"""Command-line front end: run simulations, emit LP files, validate, report.

Exit codes: 0 success, 1 validation violations or report mismatches,
2 a usage error or invalid input (unreadable, non-UTF-8 or bad scenario or CSV, out-of-range
index), 3 any output failure.  Raised errors become codes 2 and 3 in ``main`` alone.

Trace CSV format (one row per request, arrival order)::

    index,request_id,app,granted_bound_kind,granted_bound_value,tier,
    device_id,response_time_s,price_yen,running_avg_response_s,rejected

``index`` is the number of placed requests so far (the placement index;
it repeats on rejected rows).  Floats are printed with 6 decimals.
Rejected rows have ``rejected=1`` and empty bound/tier/device/response/price
fields; their ``running_avg_response_s`` repeats the running average so
far (empty before the first placement).  Output is byte-deterministic
for fixed (scenario, pattern, requests, seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from collections import deque

from .model import DEVICE_PREFIXES, Tier, ValidationError, build_topology
from .scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    paper_scenario,
    validate_scenario,
)
from .simulator import (
    PatternKind,
    Trace,
    generate_requests,
    run_simulation,
    running_totals,
)
from .solver import RequirementKind

CSV_COLUMNS = [
    "index",
    "request_id",
    "app",
    "granted_bound_kind",
    "granted_bound_value",
    "tier",
    "device_id",
    "response_time_s",
    "price_yen",
    "running_avg_response_s",
    "rejected",
]


class _CsvFields(dict):
    """Each distinct app name or device id as csv.writer writes it mid-row (quoted when it must be), built once."""

    def __missing__(self, value: str) -> str:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow(["", value])
        field = self[value] = buffer.getvalue()[1:-1]
        return field


def trace_csv_text(trace: Trace) -> str:
    fields = _CsvFields()
    rows = [",".join(CSV_COLUMNS) + "\n"]
    append = rows.append
    totals = running_totals(trace.outcomes)
    placed = 0
    average = ""  # the running average, formatted once per placement
    for outcome in trace.outcomes:
        request = outcome.request
        p = outcome.placement
        if p is None:
            append(f"{placed},{request.id},{fields[request.app.name]},,,,,,,{average},1\n")
            continue
        placed, mean, _, _ = next(totals)
        average = f"{mean:.6f}"
        bound = p.granted_bound
        append(
            f"{placed},{request.id},{fields[request.app.name]},{bound.kind._value_},{bound.value:.6f},"
            f"{p.tier._value_},{fields[p.device_id]},{p.response_time:.6f},{p.price:.6f},{average},0\n"
        )
    return "".join(rows)


def _summary_table(results: list[tuple[PatternKind, Trace]]) -> str:
    lines = [
        "| pattern | requests | placed | rejected | avg response (s) | total price (yen/month) | user | carrier | cloud |",
        "|--:|--:|--:|--:|--:|--:|--:|--:|--:|",
    ]
    for pattern, trace in results:
        last = deque(running_totals(trace.outcomes), maxlen=1)  # the totals after the last placement
        placed, average, price_sum, tiers = last[0] if last else (0, 0.0, 0.0, dict.fromkeys(Tier, 0))
        avg = f"{average:.6f}" if placed else "-"
        lines.append(
            f"| {pattern.value} | {len(trace.outcomes)} | {placed} "
            f"| {len(trace.outcomes) - placed} | {avg} | {price_sum:.2f} "
            f"| {tiers[Tier.USER_EDGE]} | {tiers[Tier.CARRIER_EDGE]} | {tiers[Tier.CLOUD]} |"
        )
    return "\n".join(lines)


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of ``path``; a read failure or a non-UTF-8 byte (with its line) is a ScenarioError."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        return data.decode("utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read {what}: {exc}") from None
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise ScenarioError(f"cannot read {what}: byte {data[exc.start]:#04x} is not UTF-8", line) from None


def _load_scenario(args) -> Scenario:
    if args.paper:
        return paper_scenario()
    return parse_scenario(_read_text(args.scenario, "scenario file"))


def _load_valid_scenario(args, require_placeable: bool = True) -> Scenario | None:
    """The scenario, or None after printing its ``validate_scenario`` violations (exit 2)."""
    scenario = _load_scenario(args)
    violations = validate_scenario(scenario, require_placeable)
    for violation in violations:
        print(f"scenario error: {violation}", file=sys.stderr)
    return None if violations else scenario


def _patterns(value: str) -> list[PatternKind]:
    return list(PatternKind) if value == "all" else [PatternKind(int(value))]


def cmd_run(args) -> int:
    scenario = _load_valid_scenario(args)
    if scenario is None:
        return 2
    topology = build_topology(scenario.topology_spec())
    results = []
    for pattern in _patterns(args.pattern):
        trace = run_simulation(scenario, pattern, args.requests, args.seed, topology=topology)
        results.append((pattern, trace))

    os.makedirs(args.out, exist_ok=True)
    for pattern, trace in results:
        path = os.path.join(args.out, f"trace_{pattern.value}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(trace_csv_text(trace))
        print(f"wrote {path}")
    summary_path = os.path.join(args.out, "summary.md")
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write(
            "# Placement simulation summary\n\n"
            f"- scenario: {scenario.name} (sha256 {results[0][1].scenario_hash[:12]})\n"
            f"- requests: {args.requests}, seed: {args.seed}\n\n"
            + _summary_table(results)
            + "\n"
        )
    print(f"wrote {summary_path}")
    return 0


def cmd_emit_lp(args) -> int:
    from .lp_export import build_ilp, to_lp_text  # only this command needs the exporter

    # An app that no device can host still has a model: an infeasible one.
    scenario = _load_valid_scenario(args, require_placeable=False)
    if scenario is None:
        return 2
    pattern = PatternKind(int(args.pattern))
    topology = build_topology(scenario.topology_spec())
    if args.request_index < 1:
        raise ScenarioError(f"request index {args.request_index} is out of range")
    target = generate_requests(scenario, pattern, args.request_index, args.seed, topology=topology)[-1]
    ladder = target.requirement.ladder()
    if not 0 <= args.bound_index < len(ladder):
        raise ScenarioError(f"bound index {args.bound_index} outside ladder of {len(ladder)} bounds")

    state = run_simulation(scenario, pattern, args.request_index - 1, args.seed, topology=topology).final_state
    model = build_ilp(topology, state, target, ladder[args.bound_index])
    if not model.binaries:
        print("warning: no compatible device exists; emitting an infeasible model", file=sys.stderr)
    out_path = args.out or f"request{args.request_index:04d}_pattern{pattern.value}.lp"
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(to_lp_text(model))
    print(f"wrote {out_path}")
    return 0


def cmd_validate(args) -> int:
    scenario = _load_scenario(args)
    violations = validate_scenario(scenario)
    for violation in violations:
        print(f"violation: {violation}")
    if violations:
        return 1
    print("scenario ok")
    return 0


_KIND_VALUES = {kind.value for kind in RequirementKind}
_NON_NEGATIVE = ("response_time_s", "price_yen", "granted_bound_value")  # placed-row numbers that are never negative


def _read_trace(path: str) -> tuple[int, list[list]]:
    """Row count and each placed row's [response time, stored running average, tier], each row checked once.

    Lists, not tuples: the cyclic collector untracks a tuple of atomic values, and freeing an untracked
    object does not lower its allocation count, so the caller's next collections would come earlier.
    """
    row = 1
    placed = []
    shown = ""  # the running average as the last placed row wrote it
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != CSV_COLUMNS:
                raise ScenarioError(f"{path}: unexpected or missing CSV header")
            for row, fields in enumerate(reader, start=2):
                if len(fields) != len(CSV_COLUMNS):
                    raise ScenarioError(f"{path}: row {row} has {len(fields)} fields")
                index, request_id, app, kind, bound, tier, device, response, price, average, rejected = fields
                if rejected not in ("0", "1"):
                    raise ScenarioError(f"{path}: row {row} has rejected {rejected!r}, not 0 or 1")
                count = len(placed) + (rejected == "0")  # placements up to and including this row
                if index != str(count):
                    raise ScenarioError(f"{path}: row {row} has index {index!r}, not {count}")
                if request_id != str(row - 1):
                    raise ScenarioError(f"{path}: row {row} has request_id {request_id!r}, not {row - 1}")
                if not app:
                    raise ScenarioError(f"{path}: row {row} has an empty app")
                if rejected == "1":
                    if kind or bound or tier or device or response or price:
                        column, value = next((c, v) for c, v in zip(CSV_COLUMNS[3:9], fields[3:9]) if v)
                        raise ScenarioError(f"{path}: row {row} is rejected but has {column} {value!r}")
                    if average != shown:
                        raise ScenarioError(
                            f"{path}: row {row} has running_avg_response_s {average!r}, not {shown!r}"
                        )
                    continue
                try:
                    numbers = float(response), float(price), float(bound), float(average)
                except ValueError:
                    raise ScenarioError(f"{path}: row {row} has non-numeric fields") from None
                if not all(map(math.isfinite, numbers)):
                    raise ScenarioError(f"{path}: row {row} has non-finite numbers")
                if min(numbers[:3]) < 0:
                    signed = zip(_NON_NEGATIVE, (response, price, bound), numbers)
                    column, value = next((c, v) for c, v, n in signed if n < 0)
                    raise ScenarioError(f"{path}: row {row} has negative {column} {value!r}")
                if tier not in DEVICE_PREFIXES:
                    raise ScenarioError(f"{path}: row {row} has unknown tier {tier!r}")
                if kind not in _KIND_VALUES:
                    raise ScenarioError(f"{path}: row {row} has unknown granted_bound_kind {kind!r}")
                if not device:
                    raise ScenarioError(f"{path}: row {row} has an empty device_id")
                if not device.startswith(DEVICE_PREFIXES[tier]):
                    raise ScenarioError(f"{path}: row {row} has device_id {device!r}, not a {tier} device")
                placed.append([numbers[0], numbers[3], tier])
                shown = average
    except (OSError, UnicodeDecodeError) as exc:
        _read_text(path, path)  # raises the read failure, or names the line of the first byte that is not UTF-8
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ScenarioError(f"{path}: line {reader.line_num} cannot be read: {exc}") from None
    return row - 1, placed


def cmd_report(args) -> int:
    mismatches = 0
    for path in args.traces:
        total, placed = _read_trace(path)
        print(f"\n## {path}: {total} requests, {len(placed)} placed, {total - len(placed)} rejected")
        step = max(1, len(placed) // 10)
        table = ["| placements | avg response (s) | user | carrier | cloud |", "|--:|--:|--:|--:|--:|"]
        counts = {"user": 0, "carrier": 0, "cloud": 0}
        response_sum = 0.0
        for i, (response, stored, tier) in enumerate(placed, start=1):
            response_sum += response
            average = response_sum / i
            if abs(average - stored) > 1e-6:
                print(
                    f"replay mismatch at placement {i}: running average "
                    f"{stored:.6f} in file, {average:.6f} recomputed"
                )
                mismatches += 1
            counts[tier] += 1
            if i % step == 0 or i == len(placed):
                table.append(f"| {i} | {average:.6f} | {counts['user']} | {counts['carrier']} | {counts['cloud']} |")
        if placed:
            print("\n".join(table))
    return 1 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="edge-placer",
        description="Place offloaded applications on a cloud/carrier-edge/user-edge topology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--scenario", help="scenario file path")
        source.add_argument("--paper", action="store_true", help="use the built-in evaluation preset")

    p_run = sub.add_parser("run", help="run the sequential placement simulation")
    add_scenario_args(p_run)
    p_run.add_argument("--pattern", choices=["1", "2", "3", "all"], default="all")
    p_run.add_argument("--requests", type=int, default=1000)
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_lp = sub.add_parser("emit-lp", help="export one request's 0-1 program as an LP file")
    add_scenario_args(p_lp)
    p_lp.add_argument("--pattern", choices=["1", "2", "3"], required=True)
    p_lp.add_argument("--request-index", type=int, required=True, help="1-based arrival index")
    p_lp.add_argument("--bound-index", type=int, default=0, help="ladder entry to use (default 0)")
    p_lp.add_argument("--out", help="output file (default request<I>_pattern<P>.lp)")
    p_lp.set_defaults(func=cmd_emit_lp)

    for p in (p_run, p_lp):  # validate draws no requests
        p.add_argument("--seed", type=int, default=42, help="PRNG seed (default 42)")

    p_val = sub.add_parser("validate", help="validate a scenario document")
    add_scenario_args(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_rep = sub.add_parser("report", help="recompute metrics from trace CSVs")
    p_rep.add_argument("traces", nargs="+", help="trace CSV files")
    p_rep.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every read failure is already a ScenarioError: this one is a write's
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
