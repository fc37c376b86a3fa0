"""Command-line front end: run simulations, emit LP files, validate, report.

Exit codes: 0 success, 1 validation violations or report mismatches,
2 invalid input (unreadable, non-UTF-8 or bad scenario or CSV, out-of-range index),
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

from .model import Tier, ValidationError, build_topology
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
    placed = 0
    response_sum = 0.0
    average = ""  # the running average, formatted once per placement
    for outcome in trace.outcomes:
        request = outcome.request
        p = outcome.placement
        if p is None:
            append(f"{placed},{request.id},{fields[request.app.name]},,,,,,,{average},1\n")
            continue
        placed += 1
        response_sum += p.response_time
        average = f"{response_sum / placed:.6f}"
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
        # compute_metrics(trace).points[-1], without a point per placement.
        placed = 0
        response_sum = price_sum = 0.0
        tiers = []
        for outcome in trace.outcomes:
            p = outcome.placement
            if p is not None:
                placed += 1
                response_sum += p.response_time
                price_sum += p.price
                tiers.append(p.tier)
        avg = f"{response_sum / placed:.6f}" if placed else "-"
        lines.append(
            f"| {pattern.value} | {len(trace.outcomes)} | {placed} "
            f"| {len(trace.outcomes) - placed} | {avg} | {price_sum:.2f} "
            f"| {tiers.count(Tier.USER_EDGE)} | {tiers.count(Tier.CARRIER_EDGE)} | {tiers.count(Tier.CLOUD)} |"
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
    if getattr(args, "paper", False):
        return paper_scenario()
    if not args.scenario:
        raise ScenarioError("either --paper or --scenario PATH is required")
    return parse_scenario(_read_text(args.scenario, "scenario file"))


def _load_valid_scenario(args, require_placeable: bool = True) -> Scenario | None:
    """The scenario, or None after printing its ``validate_scenario`` violations (exit 2)."""
    scenario = _load_scenario(args)
    violations = validate_scenario(scenario, require_placeable)
    for violation in violations:
        print(f"scenario error: {violation}", file=sys.stderr)
    return None if violations else scenario


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
    return list(PatternKind) if value == "all" else [PatternKind(int(value))]


def cmd_run(args) -> int:
    scenario = _load_valid_scenario(args)
    if scenario is None:
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
                f"- scenario: {scenario.name} (sha256 {results[0][1].scenario_hash[:12]})\n"
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
    from .lp_export import build_ilp, to_lp_text  # only this command needs the exporter

    # An app that no device can host still has a model: an infeasible one.
    scenario = _load_valid_scenario(args, require_placeable=False)
    if scenario is None:
        return 2
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


_TIER_VALUES = {tier.value for tier in Tier}


def _read_trace(path: str) -> tuple[int, list[list]]:
    """Row count and each placed row's [response time, stored running average, tier], each row checked once.

    Lists, not tuples: the cyclic collector untracks a tuple of atomic values, and freeing an untracked
    object does not lower its allocation count, so the caller's next collections would come earlier.
    """
    row = 1
    placed = []
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != CSV_COLUMNS:
                raise ScenarioError(f"{path}: unexpected or missing CSV header")
            for row, fields in enumerate(reader, start=2):
                if len(fields) != len(CSV_COLUMNS):
                    raise ScenarioError(f"{path}: row {row} has {len(fields)} fields")
                index, request_id, _, _, _, tier, _, response, price, average, rejected = fields
                if rejected not in ("0", "1"):
                    raise ScenarioError(f"{path}: row {row} has rejected {rejected!r}, not 0 or 1")
                count = len(placed) + (rejected == "0")  # placements up to and including this row
                if index != str(count):
                    raise ScenarioError(f"{path}: row {row} has index {index!r}, not {count}")
                if request_id != str(row - 1):
                    raise ScenarioError(f"{path}: row {row} has request_id {request_id!r}, not {row - 1}")
                if rejected == "1":
                    continue
                try:
                    numbers = float(response), float(price), float(average)
                except ValueError:
                    raise ScenarioError(f"{path}: row {row} has non-numeric fields") from None
                if not all(map(math.isfinite, numbers)):
                    raise ScenarioError(f"{path}: row {row} has non-finite numbers")
                if tier not in _TIER_VALUES:
                    raise ScenarioError(f"{path}: row {row} has unknown tier {tier!r}")
                placed.append([numbers[0], numbers[2], tier])
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
        p.add_argument("--scenario", help="scenario file path")
        p.add_argument("--paper", action="store_true", help="use the built-in evaluation preset")

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
        p.add_argument("--seed", type=int, default=None, help="PRNG seed (default: $EDGE_PLACER_SEED or 42)")

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
