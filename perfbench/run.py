#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of edge-placer.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload paper --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42      # every workload, one process each

A run sets up the paper preset, times fresh-interpreter imports, makes one
untimed verification pass with every correctness check, then repeats timed
passes for ``--seconds``.  A pass is: set-up, the ``edge-placer run`` batch
path through ``cli.main`` into a temp dir, ``report`` replay over the CSVs,
and a driven admission loop over ``generate_requests`` output that times
each decision and exports the LP of every bound of every ``lp_stride``-th
request against the live residual state.

``--trace 0`` reports the end-to-end metrics.  Its passes also time items
of a fixed reference kernel next to the program's, and each timed item is
divided by the machine's local slowdown they show (see README.md).
``--trace 1`` reports the
per-layer metrics: it alternates untraced passes with traced ones, first
one that counts calls, then ones that record spans around the public
edge_placer functions (see tracer.py).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run record
goes on the line before it and, with the spans, into ``.perfbench_out/``.
Exit code 2 means the program under test is missing or the arguments
are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "edge_placer")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")

LP_TOLERANCE = 1e-9  # the solver's own fit/bound tolerance
SETUP_PER_PASS = 16  # set-up samples at the start of every pass
IMPORT_SAMPLES = 60  # importing interpreters, spread evenly over the timed window
REFERENCE_ITEMS = 200  # reference-kernel items per pass in each of the CLI batch and the driven loop
# About a reference-kernel item's fastest time on a 2-vCPU Intel Xeon with
# CPython 3.11: relative times are seconds at this speed (see README.md).
REFERENCE_ITEM_S = 50e-6
# Run by each importing interpreter after its import: time reference items
# and print how long all of it took, then the items' times.
CHILD_REFERENCE = """
import time
_started = time.perf_counter()
_times = []
for _ in range(20):
    _t0 = time.perf_counter()
    reference_item()
    _times.append(time.perf_counter() - _t0)
print(time.perf_counter() - _started, *_times)
"""


@dataclass(frozen=True)
class Workload:
    patterns: tuple[int, ...]
    requests: int  # per pattern
    cli_patterns: tuple[str, ...]  # one `edge-placer run --pattern` call each
    lp_stride: int  # export the LP of every bound of every lp_stride-th request


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "paper": Workload((1, 2, 3), 1000, ("all",), 10),
    "saturated": Workload((2, 3), 10000, ("2", "3"), 100),
    "lp-export": Workload((1, 2, 3), 1000, ("all",), 1),
}
SMOKE_REQUESTS = 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "import_s": "s",
    "requests_per_s": "req/s",
    "decide_us_p50": "us",
    "decide_us_p99": "us",
    "lp_models_per_s": "models/s",
    "peak_rss_mb": "MB",
}
SELF_TIMED = (
    "solver.feasible_candidates", "solver.solve_request", "solver.solve_with_escalation",
    "solver.apply_placement", "model.root_path_sites", "model.uplink_path",
    "model.build_topology", "scenario.parse_scenario", "scenario.validate_scenario",
    "scenario.scenario_hash", "simulator.generate_requests", "simulator.run_simulation",
    "simulator.compute_metrics", "cli.trace_csv_text", "cli.report",
    "lp_export.build_ilp", "lp_export.to_lp_text",
)
CALLS_PER_REQUEST = (
    "solver.solve_request", "solver.apply_placement", "model.uplink_path",
    "model.build_topology", "scenario.scenario_hash", "simulator.compute_metrics",
    "lp_export.build_ilp", "pricing.price", "pricing.response_time", "pricing.fits",
)
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "calls/req" for name in CALLS_PER_REQUEST},
    "solver.solve_request.admitted": "calls/req",
    "solver.bound_admit_ratio": "ratio",
    "solver.candidates_returned": "cands/call",
    "solver.candidates_compatible": "cands/call",
    "cli.trace_csv_bytes": "B/req",
    "lp_export.variables": "vars/model",
    "trace.overhead_ratio": "ratio",
}


def _load_program():
    """Import the edge_placer modules from the checkout's src/ tree."""
    sys.path.insert(0, SRC)
    import edge_placer.cli as cli
    import edge_placer.lp_export as lp_export
    import edge_placer.model as model
    import edge_placer.scenario as scenario
    import edge_placer.simulator as simulator
    import edge_placer.solver as solver

    return argparse.Namespace(
        cli=cli, lp_export=lp_export, model=model, scenario=scenario,
        simulator=simulator, solver=solver,
    )


@dataclass
class PassResult:
    wall_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    cli_s: list[float] = field(default_factory=list)  # `edge-placer run` calls, per request segment, in order
    cli_at: list[int] = field(default_factory=list)  # per segment, the batch's decisions before it
    decide_s: list[float] = field(default_factory=list)  # per request of the driven loop, in order
    lp_s: list[float] = field(default_factory=list)  # per exporting request: its build_ilp + to_lp_text calls
    lp_at: list[int] = field(default_factory=list)  # per exporting request, the driven loop's decisions before it
    lp_models: int = 0
    # reference-kernel items interleaved with the set-ups, the CLI batch's
    # decisions and the driven loop's decisions
    setup_reference_s: list[float] = field(default_factory=list)
    cli_reference_s: list[float] = field(default_factory=list)
    driven_reference_s: list[float] = field(default_factory=list)
    decisions: int = 0  # requests decided: CLI batch plus driven loop
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def operations(self) -> int:
        return self.decisions + self.lp_models


def _sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def lp_optimum(model) -> float | None:
    """Optimum of a 0-1 model whose assign row picks exactly one binary.

    Each binary is tried alone against every row, with the solver's
    tolerance; None when no binary is feasible.
    """
    objective = dict(model.objective)
    contributions: dict[str, dict[int, float]] = {var: {} for var in model.binaries}
    for index, row in enumerate(model.rows):
        for var, coef in row.terms:
            per_row = contributions[var]
            per_row[index] = per_row.get(index, 0.0) + coef

    def satisfied(row, lhs: float) -> bool:
        if row.sense == "=":
            return abs(lhs - row.rhs) <= LP_TOLERANCE
        return lhs <= row.rhs + LP_TOLERANCE

    violated_at_zero = {i for i, row in enumerate(model.rows) if not satisfied(row, 0.0)}
    best = None
    for var in model.binaries:
        per_row = contributions[var]
        if violated_at_zero - per_row.keys():
            continue
        if all(satisfied(model.rows[i], lhs) for i, lhs in per_row.items()):
            value = objective.get(var, 0.0)
            if best is None or value < best:
                best = value
    return best


def reference_item() -> float:
    """One item of the reference kernel: fixed dict and float work, about 50 us.

    It is independent of edge_placer, so it measures the machine's speed,
    not the program's.
    """
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(300):
        key = i % 17
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key] / (1 + key)
    return acc


def time_reference(times: list[float]) -> None:
    t0 = perf_counter()
    reference_item()
    times.append(perf_counter() - t0)


class Bench:
    def __init__(self, ep, workload: Workload, seed: int, smoke: bool, tmp_root: str,
                 relative: bool = False):
        self.ep = ep
        self.relative = relative  # time reference items and per-request CLI segments
        self.workload = workload
        self.seed = seed
        self.requests = SMOKE_REQUESTS if smoke else workload.requests
        self.tmp_root = tmp_root
        self.reference_stride = -(-self.total_requests // REFERENCE_ITEMS)
        self.scenario_text = ep.scenario.serialize_scenario(ep.scenario.paper_scenario())

    @property
    def total_requests(self) -> int:
        return len(self.workload.patterns) * self.requests

    def setup(self):
        """Everything before the first request is generated."""
        scenario_mod = self.ep.scenario
        scenario = scenario_mod.parse_scenario(self.scenario_text)
        violations = scenario_mod.validate_scenario(scenario)
        if violations:
            raise ValueError(f"paper preset fails validation: {violations}")
        return scenario, self.ep.model.build_topology(scenario.topology_spec())

    def run_pass(self, check: bool, setups: int = 1) -> PassResult:
        """One pass over the workload; ``check`` adds the seed-independent checks."""
        result = PassResult()
        started = perf_counter()
        for _ in range(setups):
            if self.relative:
                time_reference(result.setup_reference_s)
            t0 = perf_counter()
            scenario, topology = self.setup()
            result.setup_s.append(perf_counter() - t0)

        out = tempfile.mkdtemp(dir=self.tmp_root)
        try:
            csv_paths = self._cli_batch(out, result)
            self._report(csv_paths, result)
            self._driven(scenario, topology, csv_paths, check, result)
        finally:
            shutil.rmtree(out)
        result.wall_s = perf_counter() - started
        return result

    def _cli_batch(self, out: str, result: PassResult) -> dict[int, str]:
        main = self.ep.cli.main
        argvs = [
            ["run", "--paper", "--pattern", pattern, "--requests", str(self.requests),
             "--seed", str(self.seed), "--out", os.path.join(out, pattern)]
            for pattern in self.workload.cli_patterns
        ]
        codes = []
        # A timestamp at each decision of run_simulation splits each call's
        # wall time into per-request segments that line up across passes.
        # Every reference_stride-th decision also times a reference item,
        # which falls between two segments, in neither.
        simulator = self.ep.simulator
        decide = getattr(simulator, "solve_with_escalation", None)
        marks: list[float] = []  # per decision: where a segment ends, where the next starts
        decided = 0
        if self.relative and decide is not None:
            def stamped(*args, **kwargs):
                nonlocal decided
                end = start = perf_counter()
                if decided % self.reference_stride == 0:
                    reference_item()
                    start = perf_counter()
                    result.cli_reference_s.append(start - end)
                decided += 1
                marks.extend((end, start))
                return decide(*args, **kwargs)

            simulator.solve_with_escalation = stamped
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in argvs:
                    marks.clear()
                    before = decided
                    t0 = perf_counter()
                    codes.append(main(argv))
                    bounds = [t0, *marks, perf_counter()]
                    result.cli_s.extend(bounds[i + 1] - bounds[i] for i in range(0, len(bounds), 2))
                    result.cli_at.extend(range(before, decided + 1))
        finally:
            if decide is not None:
                simulator.solve_with_escalation = decide
        result.decisions += self.total_requests
        for argv, code in zip(argvs, codes):
            if code != 0:
                result.problems.append(f"`{' '.join(argv[:5])}` exited {code}")

        csv_paths: dict[int, str] = {}
        for pattern in self.workload.cli_patterns:
            for name in sorted(os.listdir(os.path.join(out, pattern))):
                path = os.path.join(out, pattern, name)
                result.digests[f"{pattern}/{name}"] = _sha256_file(path)
                if name.startswith("trace_"):
                    csv_paths[int(name[len("trace_"):-len(".csv")])] = path
        if sorted(csv_paths) != sorted(self.workload.patterns):
            result.problems.append(f"CLI wrote traces for patterns {sorted(csv_paths)}")
        return csv_paths

    def _report(self, csv_paths: dict[int, str], result: PassResult) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.ep.cli.main(["report", *csv_paths.values()])
        if code != 0:
            result.problems.append(f"`edge-placer report` over the written CSVs exited {code}")

    def _driven(self, scenario, topology, csv_paths, check: bool, result: PassResult) -> None:
        ep = self.ep
        generate = ep.simulator.generate_requests
        decide = ep.solver.solve_with_escalation
        apply = ep.solver.apply_placement
        build_ilp, to_lp_text = ep.lp_export.build_ilp, ep.lp_export.to_lp_text
        stride = self.workload.lp_stride
        lp_hash = hashlib.sha256()
        samples = result.decide_s
        for pattern_value in self.workload.patterns:
            pattern = ep.simulator.PatternKind(pattern_value)
            stream = generate(scenario, pattern, self.requests, self.seed, topology=topology)
            state = ep.solver.ResidualState.fresh(topology)
            outcomes = []
            for index, request in enumerate(stream):
                if index % stride == 0:
                    lp_s = 0.0
                    for bound in request.requirement.ladder():
                        t0 = perf_counter()
                        model = build_ilp(topology, state, request, bound)
                        text = to_lp_text(model)
                        lp_s += perf_counter() - t0
                        result.lp_models += 1
                        lp_hash.update(text.encode("utf-8"))
                        if check:
                            self._check_lp(topology, state, request, bound, model, result)
                    result.lp_s.append(lp_s)
                    result.lp_at.append(len(samples))
                if self.relative and len(samples) % self.reference_stride == 0:
                    time_reference(result.driven_reference_s)
                t0 = perf_counter()
                outcome = decide(topology, state, request)
                if outcome.placed:
                    apply(state, outcome.placement)
                samples.append(perf_counter() - t0)
                outcomes.append(outcome)
            result.decisions += len(stream)
            if check:
                self._check_csv(pattern, state, outcomes, csv_paths.get(pattern_value), result)
                self._check_residuals(topology, state, outcomes, pattern_value, result)
        result.digests["lp.txt"] = lp_hash.hexdigest()

    # -- seed-independent checks, run on the untimed verification pass --
    def _check_lp(self, topology, state, request, bound, model, result: PassResult) -> None:
        solver = self.ep.solver
        placement = solver.solve_request(topology, state, request, bound)
        optimum = lp_optimum(model)
        where = f"request {request.id} bound {bound.kind.value}={bound.value}"
        if placement is None or optimum is None:
            if (placement is None) != (optimum is None):
                result.problems.append(
                    f"{where}: LP optimum {optimum} but solver placement {placement}")
            return
        expected = (placement.response_time if bound.kind is solver.RequirementKind.COST_CAP
                    else placement.price)
        if abs(optimum - expected) > LP_TOLERANCE:
            result.problems.append(f"{where}: LP optimum {optimum!r} != solver objective {expected!r}")

    def _check_csv(self, pattern, state, outcomes, csv_path, result: PassResult) -> None:
        if csv_path is None:
            return
        trace = self.ep.simulator.Trace("", pattern, self.seed, tuple(outcomes), state)
        rebuilt = self.ep.cli.trace_csv_text(trace).encode("utf-8")
        with open(csv_path, "rb") as handle:
            if handle.read() != rebuilt:
                result.problems.append(
                    f"pattern {pattern.value}: driven loop does not rebuild the CLI trace CSV")

    def _check_residuals(self, topology, state, outcomes, pattern_value, result: PassResult) -> None:
        device_used = {device_id: 0.0 for device_id in topology.devices}
        link_used = {link_id: 0.0 for link_id in topology.links}
        for outcome in outcomes:
            if outcome.placed:
                placement = outcome.placement
                device_used[placement.device_id] += placement.resource_demand
                for link_id in placement.path_link_ids:
                    link_used[link_id] += placement.bandwidth_demand
        capacities = [(d.id, d.capacity, device_used[d.id], state.device_remaining.get(d.id))
                      for d in topology.devices.values()]
        capacities += [(l.id, l.bandwidth_capacity, link_used[l.id], state.link_remaining.get(l.id))
                       for l in topology.links.values()]
        for item, capacity, used, residual in capacities:
            if residual is None or abs(capacity - used - residual) > LP_TOLERANCE or residual < -LP_TOLERANCE:
                result.problems.append(
                    f"pattern {pattern_value}: {item} capacity {capacity} - placed {used} "
                    f"!= residual {residual}")
                return


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, min(len(sorted_values), -(-len(sorted_values) * q // 100)))
    return sorted_values[int(rank) - 1]


class ImportTimer:
    """Wall time of fresh interpreters: bare, and running `import edge_placer.cli`.

    The first import runs untimed and writes the bytecode cache, so every
    timed import finds it warm.  A bare interpreter runs before every third
    importing one; it only goes in the run record.  The importing interpreter runs
    with ``-X importtime``, which splits its wall time into segments: each
    module's own import time, and the rest (process start, interpreter
    set-up, exit).  After the import it times reference items, which give
    its own slowdown; what it does after the import is left out of the rest.
    """

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.code = "import edge_placer.cli\n" + inspect.getsource(reference_item) + CHILD_REFERENCE
        self.bare: list[float] = []
        self.samples: list[dict[str, float]] = []  # per sample, each segment's relative time
        self._spawn(self.code)

    def _spawn(self, code: str, *options: str) -> tuple[float, str, str]:
        t0 = perf_counter()
        done = subprocess.run([sys.executable, *options, "-c", code], env=self.env, cwd=ROOT, check=True,
                              capture_output=True, text=True)
        return perf_counter() - t0, done.stdout, done.stderr

    def sample(self) -> None:
        if len(self.samples) % 3 == 0:
            self.bare.append(self._spawn("pass")[0])
        wall, printed, report = self._spawn(self.code, "-X", "importtime")
        after, *references = map(float, printed.split())
        segments: dict[str, float] = {}
        later = 0.0  # modules imported after edge_placer.cli
        for line in report.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[0][12:].strip().isdigit():
                seconds = int(fields[0][12:]) / 1e6
                if "edge_placer.cli" in segments:
                    later += seconds
                else:
                    segments[fields[2].strip()] = seconds
        segments[""] = wall - sum(segments.values()) - later - after
        slowdown = statistics.median(references) / REFERENCE_ITEM_S
        self.samples.append({name: seconds / slowdown for name, seconds in segments.items()})

    def total(self) -> float:
        """Sum of the segments' median relative times."""
        return sum(statistics.median(sample[name] for sample in self.samples) for name in self.samples[0])


def bytecode_cache_warm() -> bool:
    sources = [os.path.join(PACKAGE_DIR, name) for name in os.listdir(PACKAGE_DIR) if name.endswith(".py")]
    return all(os.path.exists(importlib.util.cache_from_source(path)) for path in sources)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for directory, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, cache_warm_at_start: bool) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "bytecode_cache_warm_at_start": cache_warm_at_start,
    }


def load_pins(path: str, workload: str, smoke: bool, seed: int) -> dict[str, str] | None:
    with open(path, encoding="utf-8") as handle:
        pinned = json.load(handle)
    if seed != pinned["seed"]:
        return None
    return pinned["digests"].get(workload + ("/smoke" if smoke else ""))


def local_slowdowns(references: list[float], window: int = 2) -> list[float]:
    """Per reference item, the median of its 2 * window + 1 nearest items over the nominal item time."""
    width = min(len(references), 2 * window + 1)
    slowdowns = []
    for j in range(len(references)):
        low = min(max(0, j - window), len(references) - width)
        slowdowns.append(statistics.median(references[low:low + width]) / REFERENCE_ITEM_S)
    return slowdowns


def slowdowns_at(at, references: list[float], stride: int) -> list[float]:
    """The machine's slowdown where each item was timed.

    ``at[i]`` counts the decisions before item i; a reference item was timed
    before every ``stride``-th decision.  Without reference items the
    slowdown is taken as 1.
    """
    if not references:
        return [1.0] * len(at)
    slowdowns = local_slowdowns(references)
    last = len(slowdowns) - 1
    return [slowdowns[min(position // stride, last)] for position in at]


class Relative:
    """Each timed item's median over the timed passes of its relative time.

    Only passes whose outputs match the verification pass are added, so
    every pass times the same deterministic items in the same order, and
    item i of a series lines up across passes.  A relative time is the
    item's time divided by the slowdown of the reference items timed next
    to it in the same pass.
    """

    def __init__(self, reference_stride: int):
        self.reference_stride = reference_stride
        self.passes: dict[str, list[array]] = {}  # per series, per pass, relative times
        self.slowdowns: list[float] = []  # per pass, its median slowdown

    def add(self, res: PassResult) -> None:
        stride = self.reference_stride
        series = {
            "setup_s": (res.setup_s, slowdowns_at(range(len(res.setup_s)), res.setup_reference_s, 1)),
            "cli_s": (res.cli_s, slowdowns_at(res.cli_at, res.cli_reference_s, stride)),
            "decide_s": (res.decide_s, slowdowns_at(range(len(res.decide_s)), res.driven_reference_s, stride)),
            "lp_s": (res.lp_s, slowdowns_at(res.lp_at, res.driven_reference_s, stride)),
        }
        for name, (times, slowdowns) in series.items():
            self.passes.setdefault(name, []).append(array("d", (t / s for t, s in zip(times, slowdowns))))
        references = res.setup_reference_s + res.cli_reference_s + res.driven_reference_s
        if references:
            self.slowdowns.append(statistics.median(references) / REFERENCE_ITEM_S)

    def items(self, name: str) -> list[float]:
        return [statistics.median(values) for values in zip(*self.passes[name])]


def end_to_end_metrics(relative: Relative, import_s: float, requests: int, lp_models: int,
                       peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics over the timed passes; README.md explains each estimator."""
    decisions = sorted(relative.items("decide_s"))
    return {
        "setup_s": statistics.median(relative.items("setup_s")),
        "import_s": import_s,
        "requests_per_s": requests / sum(relative.items("cli_s")),
        "decide_us_p50": _percentile(decisions, 50) * 1e6,
        "decide_us_p99": _percentile(decisions, 99) * 1e6,
        "lp_models_per_s": lp_models / sum(relative.items("lp_s")),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(self_times: list[dict[str, float]], counts, requests: int,
                      overhead: float) -> dict[str, float]:
    """Per-layer metrics from the spans passes' self times and the counts pass.

    Self times are medians over spans passes, in seconds per pass.  Counts
    repeat exactly; they are per workload request, and each request is
    decided twice per pass (CLI batch and driven loop).
    """
    metrics = {f"{name}.self_s": statistics.median([self_s[name] for self_s in self_times]) for name in SELF_TIMED}
    metrics.update({f"{name}.calls": counts[name] / requests for name in CALLS_PER_REQUEST})
    solve_calls = counts["solver.solve_request"]
    scans = counts["solver.feasible_candidates"]
    metrics.update({
        "solver.solve_request.admitted": counts["solver.solve_request.admitted"] / requests,
        "solver.bound_admit_ratio": counts["solver.solve_request.admitted"] / solve_calls,
        "solver.candidates_returned": counts["solver.candidates_returned"] / scans,
        # fits() runs once per compatible (device, variant) pair a scan enumerates
        "solver.candidates_compatible": counts["pricing.fits"] / scans,
        "cli.trace_csv_bytes": counts["cli.trace_csv_bytes"] / requests,
        "lp_export.variables": counts["lp_export.variables"] / counts["lp_export.build_ilp"],
        "trace.overhead_ratio": overhead,
    })
    return metrics


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"perfbench: no edge_placer package under {SRC}", file=sys.stderr)
        return 2
    cache_warm_at_start = bytecode_cache_warm()
    try:
        ep = _load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    record = run_record(args, cache_warm_at_start)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        return _measure(args, ep, record, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


def _measure(args, ep, record: dict, tmp_root: str) -> int:
    bench = Bench(ep, WORKLOADS[args.workload], args.seed, args.smoke, tmp_root, relative=not args.trace)
    pins = load_pins(args.pinned, args.workload, args.smoke, args.seed)
    attempted = failed = 0
    problems: list[str] = []

    def account(res: PassResult) -> bool:
        nonlocal attempted, failed
        attempted += res.operations
        if res.problems:
            failed += res.operations
            problems.extend(res.problems[:5])
        return not res.problems

    def guarded_pass(check: bool, setups: int = 1) -> PassResult:
        try:
            return bench.run_pass(check, setups)
        except Exception:  # a crash in the program is a failed pass, not a crashed benchmark
            traceback.print_exc()
            res = PassResult(decisions=2 * bench.total_requests)
            res.problems.append("pass raised; traceback on stderr")
            return res

    imports = None
    if not args.trace:  # import time is an end-to-end metric only
        imports = ImportTimer()
        import_samples = 2 if args.smoke else IMPORT_SAMPLES
        imports.sample()
        record["bytecode_cache_warm_for_import_s"] = bytecode_cache_warm()

    verification = guarded_pass(check=True)
    # the peak of set-up plus one pass, before the timed passes' bookkeeping grows
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if pins is None:
        record["pinned_digests"] = "none for this seed and size"
    else:
        record["pinned_digests"] = "checked"
        if verification.digests != pins:
            differing = sorted(k for k in set(pins) | set(verification.digests)
                               if pins.get(k) != verification.digests.get(k))
            verification.problems.append(f"pinned digest mismatch: {', '.join(differing)}")
    run_valid = account(verification)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    relative = Relative(bench.reference_stride)  # of the timed passes, with --trace 0
    untraced: list[float] = []  # pass walls
    spanned: list[float] = []
    self_times: list[dict[str, float]] = []
    counted = False
    deadline = perf_counter() + args.seconds
    while True:
        # traced runs go untraced, counts, untraced, spans, untraced, spans, ...
        if tracer is None or len(untraced) <= len(spanned) + counted:
            mode = None
        else:
            mode = "spans" if counted else "counts"
        gc.collect()
        if mode == "counts":
            tracer.counts.clear()  # counts come from one successful counts pass
        if mode:
            tracer.install(mode)
            first_span = tracer.mark()
        try:
            res = guarded_pass(check=False, setups=1 if tracer else SETUP_PER_PASS)
        finally:
            if mode:
                tracer.uninstall()
        if res.digests != verification.digests and not res.problems:
            res.problems.append("pass output differs from the verification pass")
        if account(res):
            if mode is None:
                untraced.append(res.wall_s)
                if tracer is None:
                    relative.add(res)
            elif mode == "counts":
                counted = True
            else:
                spanned.append(res.wall_s)
                self_times.append(tracer.self_seconds(first_span))
        while imports and len(imports.samples) < import_samples * min(1.0, 1 - (deadline - perf_counter()) / args.seconds):
            imports.sample()
        if perf_counter() >= deadline and untraced and (tracer is None or (counted and spanned)):
            break
        if perf_counter() >= deadline + 120:
            break

    if not run_valid:
        failed = attempted
    record.update({
        "passes_untraced": len(untraced),
        "passes_spanned": len(spanned),
        "setup_samples": f"{len(verification.setup_s) if tracer else SETUP_PER_PASS} per pass x {len(untraced)} passes",
        "decide_samples": f"{len(verification.decide_s)} requests x {len(untraced)} passes",
        "lp_models_per_pass": verification.lp_models,
        "problems": problems,
    })
    if not untraced or (tracer is not None and not (counted and spanned)):
        print(f"perfbench: no pass completed; problems: {problems}", file=sys.stderr)
        return 1

    if tracer is None:
        record["import_samples"] = len(imports.samples)
        record["python_startup_s"] = min(imports.bare)
        values = end_to_end_metrics(relative, imports.total(), bench.total_requests, verification.lp_models,
                                    peak_rss_mb)
        record["slowdown"] = statistics.median(relative.slowdowns)
        units = END_TO_END_UNITS
    else:
        overhead = statistics.median(spanned) / statistics.median(untraced)
        values = per_layer_metrics(self_times, tracer.counts, bench.total_requests, overhead)
        units = PER_LAYER_UNITS
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}"))  # latest traced run only
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    for name, metric in metrics.items():
        print(f"{args.workload:<10} {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    if tracer is None:
        print(f"{'':<10} decide samples: {record['decide_samples']}; "
              f"bare interpreter start: {record['python_startup_s']:.4f} s; "
              f"slowdown: {record['slowdown']:.4f}; "
              f"failed_share: {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in problems:
        print(f"problem: {problem}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"record": record, "result": result}, handle, indent=1)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--pinned", args.pinned]
        if args.smoke:
            argv.append("--smoke")
        status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_REQUESTS} requests per pattern, for the benchmark's own test")
    parser.add_argument("--pinned", default=PINNED, help="JSON file of seed-42 output digests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
