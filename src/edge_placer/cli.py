"""Command-line front end: run simulations, emit LP files, validate, report.

Exit codes: 0 success, 1 validation violations or report mismatches,
2 invalid input (bad scenario, malformed CSV, out-of-range index),
3 output I/O failure.

Trace CSV format (one row per request, arrival order)::

    index,request_id,app,granted_bound_kind,granted_bound_value,tier,
    device_id,response_time_s,price_yen,running_avg_response_s,rejected

``index`` is the number of placed requests so far (the placement index;
it repeats on rejected rows).  Floats are printed with 6 decimals.
Rejected rows have ``rejected=1`` and empty bound/device/response/price
fields.  Output is byte-deterministic for fixed (scenario, pattern,
requests, seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass

from .lp_export import build_ilp, to_lp_text
from .model import Tier, ValidationError, build_topology
from .scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    paper_scenario,
    scenario_hash,
    validate_scenario,
)
from .simulator import (
    PatternKind,
    Trace,
    compute_metrics,
    generate_requests,
    run_simulation,
)

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


def _f6(value: float) -> str:
    return f"{value:.6f}"


def trace_csv_text(trace: Trace) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    placed = 0
    response_sum = 0.0
    for outcome in trace.outcomes:
        request = outcome.request
        if outcome.placed:
            p = outcome.placement
            placed += 1
            response_sum += p.response_time
            writer.writerow([
                placed,
                request.id,
                request.app.name,
                p.granted_bound.kind.value,
                _f6(p.granted_bound.value),
                p.tier.value,
                p.device_id,
                _f6(p.response_time),
                _f6(p.price),
                _f6(response_sum / placed),
                0,
            ])
        else:
            writer.writerow([
                placed,
                request.id,
                request.app.name,
                "",
                "",
                "",
                "",
                "",
                "",
                _f6(response_sum / placed) if placed else "",
                1,
            ])
    return buffer.getvalue()


def _summary_table(results: list[tuple[PatternKind, Trace]]) -> str:
    lines = [
        "| pattern | requests | placed | rejected | avg response (s) | total price (yen/month) | user | carrier | cloud |",
        "|--:|--:|--:|--:|--:|--:|--:|--:|--:|",
    ]
    for pattern, trace in results:
        metrics = compute_metrics(trace)
        if metrics.points:
            last = metrics.points[-1]
            avg = _f6(last.running_avg_response)
            total_price = f"{last.cumulative_price:.2f}"
            counts = last.tier_counts
        else:
            avg, total_price = "-", "0.00"
            counts = {Tier.USER_EDGE: 0, Tier.CARRIER_EDGE: 0, Tier.CLOUD: 0}
        lines.append(
            f"| {pattern.value} | {metrics.total_requests} | {metrics.total_placed} "
            f"| {metrics.total_rejections} | {avg} | {total_price} "
            f"| {counts[Tier.USER_EDGE]} | {counts[Tier.CARRIER_EDGE]} | {counts[Tier.CLOUD]} |"
        )
    return "\n".join(lines)


def _load_scenario(args) -> Scenario:
    if getattr(args, "paper", False):
        return paper_scenario()
    if not args.scenario:
        raise ScenarioError("either --paper or --scenario PATH is required")
    try:
        with open(args.scenario, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    return parse_scenario(text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EDGE_PLACER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ScenarioError(f"EDGE_PLACER_SEED must be an integer, got {env!r}") from None
    return 42


def _patterns(value: str) -> list[PatternKind]:
    if value == "all":
        return [PatternKind.PATTERN1, PatternKind.PATTERN2, PatternKind.PATTERN3]
    return [PatternKind(int(value))]


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    violations = validate_scenario(scenario)
    if violations:
        for violation in violations:
            print(f"scenario error: {violation}", file=sys.stderr)
        return 2
    seed = _seed(args)
    topology = build_topology(scenario.topology_spec())
    results = []
    for pattern in _patterns(args.pattern):
        trace = run_simulation(scenario, pattern, args.requests, seed, topology=topology)
        results.append((pattern, trace))

    try:
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
                f"- scenario: {scenario.name} (sha256 {scenario_hash(scenario)[:12]})\n"
                f"- requests: {args.requests}, seed: {seed}\n\n"
                + _summary_table(results)
                + "\n"
            )
        print(f"wrote {summary_path}")
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_emit_lp(args) -> int:
    scenario = _load_scenario(args)
    pattern = PatternKind(int(args.pattern))
    seed = _seed(args)
    topology = build_topology(scenario.topology_spec())
    if args.request_index < 1:
        print(f"request index {args.request_index} is out of range", file=sys.stderr)
        return 2
    target = generate_requests(scenario, pattern, args.request_index, seed, topology=topology)[-1]
    ladder = target.requirement.ladder()
    if not 0 <= args.bound_index < len(ladder):
        print(
            f"bound index {args.bound_index} outside ladder of {len(ladder)} bounds",
            file=sys.stderr,
        )
        return 2

    state = run_simulation(scenario, pattern, args.request_index - 1, seed, topology=topology).final_state
    model = build_ilp(topology, state, target, ladder[args.bound_index])
    if not model.binaries:
        print("warning: no compatible device exists; emitting an infeasible model", file=sys.stderr)
    out_path = args.out or f"request{args.request_index:04d}_pattern{pattern.value}.lp"
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(to_lp_text(model))
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
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


@dataclass
class _TraceRows:
    placed: list[dict]
    total: int


_FLOAT_COLUMNS = ("response_time_s", "price_yen", "running_avg_response_s")
_TIER_VALUES = {tier.value for tier in Tier}


def _read_trace_csv(path: str) -> _TraceRows:
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != CSV_COLUMNS:
                raise ScenarioError(f"{path}: unexpected or missing CSV header")
            placed = []
            total = 0
            for row in reader:
                if len(row) != len(CSV_COLUMNS):
                    raise ScenarioError(f"{path}: row {total + 2} has {len(row)} fields")
                record = dict(zip(CSV_COLUMNS, row))
                total += 1
                if record["rejected"] == "1":
                    continue
                try:
                    for column in _FLOAT_COLUMNS:
                        record[column] = float(record[column])
                    record["index"] = int(record["index"])
                except ValueError:
                    raise ScenarioError(f"{path}: row {total + 1} has non-numeric fields") from None
                if not all(math.isfinite(record[column]) for column in _FLOAT_COLUMNS):
                    raise ScenarioError(f"{path}: row {total + 1} has non-finite numbers")
                if record["tier"] not in _TIER_VALUES:
                    raise ScenarioError(f"{path}: row {total + 1} has unknown tier {record['tier']!r}")
                placed.append(record)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    return _TraceRows(placed=placed, total=total)


def cmd_report(args) -> int:
    mismatches = 0
    for path in args.traces:
        rows = _read_trace_csv(path)
        print(f"\n## {path}: {rows.total} requests, {len(rows.placed)} placed, {rows.total - len(rows.placed)} rejected")
        response_sum = 0.0
        recomputed = []
        for i, record in enumerate(rows.placed, start=1):
            response_sum += record["response_time_s"]
            recomputed.append(response_sum / i)
            if abs(recomputed[-1] - record["running_avg_response_s"]) > 1e-6:
                print(
                    f"replay mismatch at placement {i}: running average "
                    f"{record['running_avg_response_s']:.6f} in file, {recomputed[-1]:.6f} recomputed"
                )
                mismatches += 1
        if not rows.placed:
            continue
        step = max(1, len(rows.placed) // 10)
        print("| placements | avg response (s) | user | carrier | cloud |")
        print("|--:|--:|--:|--:|--:|")
        counts = {"user": 0, "carrier": 0, "cloud": 0}
        for i, record in enumerate(rows.placed, start=1):
            counts[record["tier"]] += 1
            if i % step == 0 or i == len(rows.placed):
                print(
                    f"| {i} | {recomputed[i - 1]:.6f} "
                    f"| {counts['user']} | {counts['carrier']} | {counts['cloud']} |"
                )
    return 1 if mismatches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="edge-placer",
        description="Place offloaded applications on a cloud/carrier-edge/user-edge topology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("--scenario", help="scenario file path")
        p.add_argument("--paper", action="store_true", help="use the built-in evaluation preset")
        p.add_argument("--seed", type=int, default=None,
                       help="PRNG seed (default: $EDGE_PLACER_SEED or 42)")

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


if __name__ == "__main__":
    sys.exit(main())
