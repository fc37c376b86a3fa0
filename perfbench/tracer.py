"""In-memory spans and call counts around edge_placer's public functions.

The tracer swaps traced functions for wrappers in every ``edge_placer``
module namespace that holds them, because modules import functions by
name (``solver`` imports ``price``, ``cli`` imports ``run_simulation``).
It has two modes, used on separate passes:

- ``"spans"`` wraps the SPANNED functions and records (name, start, end,
  parent span, request id) into flat arrays.  Self time is derived after
  the fact: a span's duration minus the durations of its direct children.
- ``"counts"`` wraps SPANNED and COUNTED functions with bare counters, plus
  the result observers.  The pricing functions cost well under a
  microsecond and run millions of times per pass, so they are counted,
  never spanned, and never wrapped while self times are measured: their
  wrapper overhead would land in their callers' self time.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, function, span name, index of the argument that carries the
# request, result observer).  An observer maps the function's result to
# (counter name, amount); it is how admitted bounds, returned candidates,
# CSV bytes and LP variables are counted where the work happens.
SPANNED = (
    ("scenario", "parse_scenario", "scenario.parse_scenario", None, None),
    ("scenario", "validate_scenario", "scenario.validate_scenario", None, None),
    ("scenario", "scenario_hash", "scenario.scenario_hash", None, None),
    ("model", "build_topology", "model.build_topology", None, None),
    ("model", "root_path_sites", "model.root_path_sites", None, None),
    ("model", "uplink_path", "model.uplink_path", None, None),
    ("simulator", "generate_requests", "simulator.generate_requests", None, None),
    ("simulator", "run_simulation", "simulator.run_simulation", None, None),
    ("simulator", "compute_metrics", "simulator.compute_metrics", None, None),
    ("solver", "solve_with_escalation", "solver.solve_with_escalation", 2, None),
    ("solver", "solve_request", "solver.solve_request", 2,
     lambda result: ("solver.solve_request.admitted", result is not None)),
    ("solver", "feasible_candidates", "solver.feasible_candidates", 2,
     lambda result: ("solver.candidates_returned", len(result))),
    ("solver", "apply_placement", "solver.apply_placement", 1, None),
    ("cli", "trace_csv_text", "cli.trace_csv_text", None,
     lambda result: ("cli.trace_csv_bytes", len(result.encode("utf-8")))),
    ("cli", "cmd_report", "cli.report", None, None),
    ("lp_export", "build_ilp", "lp_export.build_ilp", 2,
     lambda result: ("lp_export.variables", len(result.binaries))),
    ("lp_export", "to_lp_text", "lp_export.to_lp_text", None, None),
)
COUNTED = (
    ("pricing", "price", "pricing.price"),
    ("pricing", "response_time", "pricing.response_time"),
    ("pricing", "fits", "pricing.fits"),
)


def _request_id(value) -> int:
    """Request id carried by a PlacementRequest or a Placement argument."""
    request_id = getattr(value, "id", None)
    if request_id is None:
        request_id = getattr(value, "request_id", -1)
    return request_id


PACKAGE = "edge_placer"


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name, _, _ in SPANNED]
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._swapped: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, dict[int, object]] = {}  # mode -> id(original) -> wrapper

    # -- installing ---------------------------------------------------
    def _original(self, module: str, func: str):
        return getattr(sys.modules[f"{PACKAGE}.{module}"], func)

    def _build(self, mode: str) -> dict[int, object]:
        wrappers = {}
        for name_id, (module, func, name, request_arg, observe) in enumerate(SPANNED):
            original = self._original(module, func)
            if mode == "spans":
                wrappers[id(original)] = self._spanned(name_id, original, request_arg)
            else:
                wrappers[id(original)] = self._counted(name, original, observe)
        if mode == "counts":
            for module, func, name in COUNTED:
                original = self._original(module, func)
                wrappers[id(original)] = self._counted(name, original, None)
        return wrappers

    def install(self, mode: str) -> None:
        """Swap in the ``mode`` wrappers ("spans" or "counts") in every package namespace."""
        if mode not in self._wrappers:
            self._wrappers[mode] = self._build(mode)
        wrappers = self._wrappers[mode]
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._swapped.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()

    def _spanned(self, name_id, fn, request_arg):
        stack = self._stack
        name_of, start, end, parent, request = self.name_of, self.start, self.end, self.parent, self.request

        def wrapper(*args, **kwargs):
            span = len(start)
            up = stack[-1] if stack else -1
            if request_arg is not None and len(args) > request_arg:
                rid = _request_id(args[request_arg])
            else:
                rid = request[up] if up >= 0 else -1
            name_of.append(name_id)
            parent.append(up)
            request.append(rid)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name, fn, observe):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                key, amount = observe(result)
                counts[key] += amount
            return result

        return wrapper

    # -- reading ------------------------------------------------------
    def mark(self) -> int:
        """Position to read spans from: the current span count."""
        return len(self.start)

    def self_seconds(self, first: int) -> dict[str, float]:
        """Self seconds per span name over the spans recorded since ``first``."""
        last = len(self.start)
        child = [0.0] * (last - first)
        for i in range(first, last):
            up = self.parent[i]
            if up >= first:
                child[up - first] += self.end[i] - self.start[i]
        self_s = {name: 0.0 for name in self.names}
        for i in range(first, last):
            self_s[self.names[self.name_of[i]]] += self.end[i] - self.start[i] - child[i - first]
        return self_s

    def write(self, path_prefix: str) -> None:
        """Write the spans as column files plus a JSON header describing them."""
        columns = {"name": self.name_of, "start": self.start, "end": self.end,
                   "parent": self.parent, "request": self.request}
        with open(path_prefix + ".bin", "wb") as handle:
            for column in columns.values():
                column.tofile(handle)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [[key, column.typecode, column.itemsize] for key, column in columns.items()],
            "layout": "each column stored whole, in the order listed; start/end are perf_counter seconds",
        }
        with open(path_prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle, indent=1)
