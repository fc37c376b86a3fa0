import csv
import dataclasses
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys

import pytest

import edge_placer
from edge_placer.cli import CSV_COLUMNS, main, trace_csv_text
from edge_placer.lp_export import build_ilp, to_lp_text
from edge_placer.model import Tier, build_topology
from edge_placer.scenario import cost_performance_demo_scenario, paper_scenario, serialize_scenario
from edge_placer.simulator import PatternKind, compute_metrics, generate_requests, run_simulation
from edge_placer.solver import ResidualState, apply_placement, solve_with_escalation

from test_lp_export import enumerate_optimum


def read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def edited_paper(tmp_path, old, new):
    """Write the paper preset with one text replacement; return its path."""
    text = serialize_scenario(paper_scenario())
    assert old in text
    path = tmp_path / "edited.scn"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return str(path)


# NAS.FT's per-link transfer time 8 * 1e308 / 0.5 overflows to inf.
INFINITE_TRANSFER = ("transfer_data_mb = 0.2\nbandwidth_mbps = 2.0", "transfer_data_mb = 1e308\nbandwidth_mbps = 0.5")

# A GPU's full cost, unit price x capacity x tier multiplier, overflows to inf.
OVERFLOWING_UNIT_PRICE = ('"gpu": 6250.0', '"gpu": 1e308')
GPU_COST_ERRORS = [f"{tier} gpu cost must be finite and >= 0" for tier in ("cloud", "carrier", "user")]

# Each mix weight is finite, but their total overflows to inf.
OVERFLOWING_MIX = ('mix = {"NAS.FT": 3.0, "MRI-Q": 1.0}', 'mix = {"NAS.FT": 1e308, "MRI-Q": 1e308}')
MIX_TOTAL_ERROR = "mix weights must add up to a finite total"

# The paper's price menus, and menus below the price of every device.
PAPER_PRICE_MENUS = '"NAS.FT": [7000.0, 8500.0, 10000.0], "MRI-Q": [12500.0, 20000.0]'
UNAFFORDABLE_PRICE_MENUS = '"NAS.FT": [1.0], "MRI-Q": [1.0]'


# perfbench/run.py has no side effects at import; its WORKLOADS give the shapes of
# the full-size workloads whose seed-42 outputs perfbench/pinned.json pins.
PERFBENCH = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py"))


@pytest.mark.parametrize("workload", PERFBENCH["WORKLOADS"])
def test_outputs_match_pinned_digests(tmp_path, workload):
    # The benchmark's verification pass: the CLI batch, `report` over its traces,
    # and the LP stream of the driven loop, where each stride-th request exports
    # every rung of its ladder against the live residuals before it is decided.
    with open(PERFBENCH["PINNED"], encoding="utf-8") as handle:
        pinned = json.load(handle)
    spec = PERFBENCH["WORKLOADS"][workload]
    seed = pinned["seed"]
    digests = {}
    for cli_pattern in spec.cli_patterns:
        out = tmp_path / cli_pattern
        assert main(["run", "--paper", "--pattern", cli_pattern, "--requests", str(spec.requests),
                     "--seed", str(seed), "--out", str(out)]) == 0
        for path in out.iterdir():
            digests[f"{cli_pattern}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert main(["report", *map(str, sorted(tmp_path.glob("*/trace_*.csv")))]) == 0

    scenario = paper_scenario()
    topology = build_topology(scenario.topology_spec())
    lp_digest = hashlib.sha256()
    for pattern in spec.patterns:
        state = ResidualState.fresh(topology)
        stream = generate_requests(scenario, PatternKind(pattern), spec.requests, seed, topology=topology)
        for index, request in enumerate(stream):
            if index % spec.lp_stride == 0:
                for bound in request.requirement.ladder():
                    lp_digest.update(to_lp_text(build_ilp(topology, state, request, bound)).encode("utf-8"))
            outcome = solve_with_escalation(topology, state, request)
            if outcome.placed:
                apply_placement(state, outcome.placement)
    digests["lp.txt"] = lp_digest.hexdigest()
    assert digests == pinned["digests"][workload]


class TestRun:
    def test_paper_all_patterns(self, tmp_path):
        code = main([
            "run", "--paper", "--pattern", "all", "--requests", "200",
            "--seed", "42", "--out", str(tmp_path),
        ])
        assert code == 0
        for p in (1, 2, 3):
            assert (tmp_path / f"trace_{p}.csv").exists()
        summary = read(tmp_path / "summary.md")
        assert "| pattern |" in summary and "| 3 |" in summary

    def test_csv_matches_in_memory_trace(self, tmp_path):
        main(["run", "--paper", "--pattern", "2", "--requests", "150", "--seed", "9", "--out", str(tmp_path)])
        trace = run_simulation(paper_scenario(), PatternKind.PATTERN2, 150, 9)
        assert read(tmp_path / "trace_2.csv") == trace_csv_text(trace)

    def test_zero_requests_header_only(self, tmp_path):
        code = main(["run", "--paper", "--pattern", "1", "--requests", "0", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        assert read(tmp_path / "trace_1.csv") == ",".join(CSV_COLUMNS) + "\n"
        assert read(tmp_path / "summary.md").endswith("\n| 1 | 0 | 0 | 0 | - | 0.00 | 0 | 0 | 0 |\n")

    def test_all_rejected_run(self, tmp_path):
        # Rows but no placement: the running average is empty on every row and "-" in the summary.
        scenario = edited_paper(tmp_path, PAPER_PRICE_MENUS, UNAFFORDABLE_PRICE_MENUS)
        assert main(["run", "--scenario", scenario, "--pattern", "2", "--requests", "50", "--out", str(tmp_path)]) == 0
        assert read(tmp_path / "summary.md").endswith("\n| 2 | 50 | 0 | 50 | - | 0.00 | 0 | 0 | 0 |\n")
        rows = list(csv.DictReader(io.StringIO(read(tmp_path / "trace_2.csv"))))
        assert len(rows) == 50
        assert all(row["rejected"] == "1" and row["running_avg_response_s"] == "" for row in rows)

    def test_summary_rows_agree_with_compute_metrics(self, tmp_path, paper_runs):
        code = main(["run", "--paper", "--pattern", "all", "--requests", "1000", "--seed", "42",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = [line for line in read(tmp_path / "summary.md").splitlines() if line.startswith("| ")]
        assert len(rows) == 4
        for row, pattern in zip(rows[1:], PatternKind):
            metrics = paper_runs.metrics(pattern, 42)
            last = metrics.points[-1]
            counts = last.tier_counts
            assert row == (
                f"| {pattern.value} | {metrics.total_requests} | {len(metrics.points)} "
                f"| {metrics.total_rejections} | {last.running_avg_response:.6f} | {last.cumulative_price:.2f} "
                f"| {counts[Tier.USER_EDGE]} | {counts[Tier.CARRIER_EDGE]} | {counts[Tier.CLOUD]} |"
            )

    def test_missing_scenario_file(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.toml"), "--pattern", "1"]) == 2

    def test_invalid_scenario_file(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("schema_version = 1\n")
        assert main(["run", "--scenario", str(bad), "--pattern", "1"]) == 2

    @pytest.mark.parametrize("preset", [paper_scenario, cost_performance_demo_scenario], ids=["paper", "demo"])
    def test_scenario_file_equivalent_to_preset(self, tmp_path, preset):
        # A preset's text validates, runs as the preset does, and its traces report clean.
        scenario = preset()
        scenario_path = tmp_path / "preset.scn"
        scenario_path.write_text(serialize_scenario(scenario), encoding="utf-8")
        assert main(["validate", "--scenario", str(scenario_path)]) == 0
        assert main(["run", "--scenario", str(scenario_path), "--pattern", "all", "--requests", "120",
                     "--seed", "5", "--out", str(tmp_path)]) == 0
        paths = [tmp_path / f"trace_{pattern.value}.csv" for pattern in PatternKind]
        for pattern, path in zip(PatternKind, paths):
            trace = run_simulation(scenario, pattern, 120, 5)
            assert read(path) == trace_csv_text(trace)
        assert f"- scenario: {scenario.name} (sha256 {trace.scenario_hash[:12]})\n" in read(tmp_path / "summary.md")
        assert main(["report", *map(str, paths)]) == 0

    def test_default_seed_is_42(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EDGE_PLACER_SEED", "7")  # no environment variable sets the seed
        main(["run", "--paper", "--pattern", "1", "--requests", "80", "--out", str(tmp_path / "default")])
        main(["run", "--paper", "--pattern", "1", "--requests", "80", "--seed", "42",
              "--out", str(tmp_path / "flag")])
        assert read(tmp_path / "default" / "trace_1.csv") == read(tmp_path / "flag" / "trace_1.csv")

    def test_rejected_rows_have_empty_device_fields(self, tmp_path):
        # saturate quickly: tiny scenario with one 1-unit device
        text = """\
schema_version = 1
name = "tiny"

[topology]
cloud_sites = 1
carrier_sites = 1
user_sites = 1
input_nodes = 1
cloud_fleet = {}
cloud_capacity = {}
carrier_fleet = {}
carrier_capacity = {}
user_fleet = {"gpu": 1}
user_capacity = {"gpu": 1.0}

[pricing]
unit_price = {"gpu": 100.0}
carrier_multiplier = 1.25
user_multiplier = 1.5
flat_server_pricing = false

[links]
user_carrier = {"bandwidth_mbps": 30.0, "monthly_cost": 0.0}
carrier_cloud = {"bandwidth_mbps": 100.0, "monthly_cost": 0.0}

[[apps]]
name = "only"
transfer_data_mb = 0.1
bandwidth_mbps = 1.0
variants = [{"device_class": "gpu", "processing_time_s": 1.0, "resource_demand": 1.0}]

[requests]
mix = {"only": 1.0}
price_menus = {"only": [500.0]}
deadline_menus = {"only": [2.0]}
"""
        scenario_path = tmp_path / "tiny.scn"
        scenario_path.write_text(text, encoding="utf-8")
        code = main(["run", "--scenario", str(scenario_path), "--pattern", "2", "--requests", "3",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        rows = read(tmp_path / "trace_2.csv").splitlines()
        assert len(rows) == 4
        first, second = rows[1].split(","), rows[2].split(",")
        assert first[-1] == "0" and second[-1] == "1"
        header = rows[0].split(",")
        for column in ("tier", "device_id", "response_time_s", "price_yen", "granted_bound_kind"):
            assert second[header.index(column)] == ""


    @pytest.mark.parametrize("old, new", [
        ('"processing_time_s": 5.8', '"processing_time_s": NaN'),
        ('"bandwidth_mbps": 30.0', '"bandwidth_mbps": NaN'),
        ('"bandwidth_mbps": 30.0', '"bandwidth_mbps": 1e999'),
    ])
    def test_non_finite_scenario_exit_2(self, tmp_path, capsys, old, new):
        text = serialize_scenario(paper_scenario())
        line = next(n for n, row in enumerate(text.splitlines(), start=1) if old in row)
        path = tmp_path / "non_finite.scn"
        path.write_text(text.replace(old, new), encoding="utf-8")
        code = main(["run", "--scenario", str(path), "--pattern", "1", "--requests", "5",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"line {line}:" in err and "not a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--pattern", "1", "--requests", "5"],
        ["emit-lp", "--pattern", "1", "--request-index", "3"],
    ])
    def test_infinite_transfer_time_exit_2(self, tmp_path, capsys, argv):
        path = edited_paper(tmp_path, *INFINITE_TRANSFER)
        out = tmp_path / "out"
        code = main([*argv, "--scenario", path, "--seed", "42", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "scenario error: app 'NAS.FT': per-link transfer time" in err and "not finite" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--pattern", "2", "--requests", "1000"],
        ["emit-lp", "--pattern", "2", "--request-index", "3"],
    ], ids=["run", "emit-lp"])
    def test_overflowing_mix_total_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main([*argv, "--scenario", edited_paper(tmp_path, *OVERFLOWING_MIX), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"scenario error: {MIX_TOTAL_ERROR}\n"
        assert not out.exists()

    def test_overflowing_unit_price_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", edited_paper(tmp_path, *OVERFLOWING_UNIT_PRICE), "--pattern", "1",
                     "--requests", "5", "--seed", "42", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert all(f"scenario error: {message}" in err for message in GPU_COST_ERRORS)
        assert "Traceback" not in err and not out.exists()


def reference_csv_text(trace):
    """The trace CSV as ``csv.writer`` writes it, field by field."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    placed = 0
    response_sum = 0.0
    for outcome in trace.outcomes:
        request = outcome.request
        average = f"{response_sum / placed:.6f}" if placed else ""
        if outcome.placed:
            p = outcome.placement
            placed += 1
            response_sum += p.response_time
            writer.writerow([
                placed, request.id, request.app.name, p.granted_bound.kind.value,
                f"{p.granted_bound.value:.6f}", p.tier.value, p.device_id, f"{p.response_time:.6f}",
                f"{p.price:.6f}", f"{response_sum / placed:.6f}", 0,
            ])
        else:
            writer.writerow([placed, request.id, request.app.name, "", "", "", "", "", "", average, 1])
    return buffer.getvalue()


class TestTraceCsv:
    def test_equals_csv_writer_rendering(self, paper):
        topology = build_topology(paper.topology_spec())
        for pattern in PatternKind:
            for seed in (1, 2, 3, 4, 5):
                trace = run_simulation(paper, pattern, 3000, seed, topology=topology)
                assert trace_csv_text(trace) == reference_csv_text(trace), (pattern, seed)

    def test_app_name_that_needs_quoting(self, paper, tmp_path):
        name = 'MRI,"Q"\nx'
        mri = paper.apps[1]
        scenario = dataclasses.replace(
            paper, apps=(paper.apps[0], dataclasses.replace(mri, app=dataclasses.replace(mri.app, name=name)))
        )
        trace = run_simulation(scenario, PatternKind.PATTERN2, 300, 7)
        text = trace_csv_text(trace)
        assert text == reference_csv_text(trace)
        path = tmp_path / "trace_2.csv"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == CSV_COLUMNS and len(rows) == 301
        apps = [row[CSV_COLUMNS.index("app")] for row in rows[1:]]
        assert apps == [outcome.request.app.name for outcome in trace.outcomes]
        assert {"NAS.FT", name} == set(apps)
        assert main(["report", str(path)]) == 0


class TestEmitLp:
    def test_first_request_pattern2_optimum(self, tmp_path):
        out = tmp_path / "first.lp"
        code = main(["emit-lp", "--paper", "--pattern", "2", "--request-index", "1",
                     "--seed", "42", "--out", str(out)])
        assert code == 0
        # first bound (7000 yen) admits only the cloud GPUs: optimum 7.4 s
        assert enumerate_optimum(read(out)) == pytest.approx(7.4, abs=1e-9)

    @pytest.mark.parametrize("pattern, bound_index", [(1, 0), (2, 0), (3, 0), (3, 1)],
                             ids=["1", "2", "3", "3-bound-index-1"])
    def test_residuals_match_independent_replay(self, tmp_path, pattern, bound_index):
        out = tmp_path / "replayed.lp"
        code = main(["emit-lp", "--paper", "--pattern", str(pattern), "--request-index", "500",
                     "--bound-index", str(bound_index), "--seed", "42", "--out", str(out)])
        assert code == 0
        scenario = paper_scenario()
        topology = build_topology(scenario.topology_spec())
        stream = generate_requests(scenario, PatternKind(pattern), 500, 42, topology=topology)
        state = ResidualState.fresh(topology)
        for request in stream[:-1]:
            outcome = solve_with_escalation(topology, state, request)
            if outcome.placed:
                apply_placement(state, outcome.placement)
        target = stream[-1]
        bound = target.requirement.ladder()[bound_index]
        expected = to_lp_text(build_ilp(topology, state, target, bound))
        # the replay changed residuals the target's model reads
        assert expected != to_lp_text(build_ilp(topology, ResidualState.fresh(topology), target, bound))
        assert read(out) == expected

    def test_missing_unit_price_exit_2(self, tmp_path, capsys):
        path = edited_paper(tmp_path, ', "fpga": 1200.0}', "}")
        out = tmp_path / "x.lp"
        code = main(["emit-lp", "--scenario", path, "--pattern", "1", "--request-index", "3",
                     "--seed", "42", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "scenario error: unit_price is missing device class 'fpga'" in err
        assert "Traceback" not in err and not out.exists()

    def test_out_of_range_request_index(self, tmp_path):
        code = main(["emit-lp", "--paper", "--pattern", "2", "--request-index", "0",
                     "--seed", "42", "--out", str(tmp_path / "x.lp")])
        assert code == 2

    def test_empty_topology_warns_but_emits(self, tmp_path, capsys):
        text = """\
schema_version = 1
name = "empty"

[topology]
cloud_sites = 1
carrier_sites = 1
user_sites = 1
input_nodes = 1
cloud_fleet = {}
cloud_capacity = {}
carrier_fleet = {}
carrier_capacity = {}
user_fleet = {}
user_capacity = {}

[pricing]
unit_price = {}
carrier_multiplier = 1.25
user_multiplier = 1.5
flat_server_pricing = false

[links]
user_carrier = {"bandwidth_mbps": 30.0, "monthly_cost": 0.0}
carrier_cloud = {"bandwidth_mbps": 100.0, "monthly_cost": 0.0}

[[apps]]
name = "ghost"
transfer_data_mb = 0.1
bandwidth_mbps = 1.0
variants = [{"device_class": "gpu", "processing_time_s": 1.0, "resource_demand": 1.0}]

[requests]
mix = {"ghost": 1.0}
price_menus = {"ghost": [500.0]}
deadline_menus = {"ghost": [2.0]}
"""
        scenario_path = tmp_path / "empty.scn"
        scenario_path.write_text(text, encoding="utf-8")
        out = tmp_path / "empty.lp"
        code = main(["emit-lp", "--scenario", str(scenario_path), "--pattern", "2",
                     "--request-index", "1", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert "infeasible" in capsys.readouterr().err
        assert enumerate_optimum(read(out)) is None


class TestValidate:
    def test_paper_preset_ok(self):
        assert main(["validate", "--paper"]) == 0

    def test_violations_exit_1(self, tmp_path):
        text = serialize_scenario(paper_scenario()).replace("input_nodes = 300", "input_nodes = 301")
        path = tmp_path / "odd.scn"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", "--scenario", str(path)]) == 1

    def test_infinite_transfer_time_exit_1(self, tmp_path, capsys):
        assert main(["validate", "--scenario", edited_paper(tmp_path, *INFINITE_TRANSFER)]) == 1
        out = capsys.readouterr().out
        assert "violation: app 'NAS.FT': per-link transfer time" in out and "scenario ok" not in out

    def test_overflowing_unit_price_exit_1(self, tmp_path, capsys):
        assert main(["validate", "--scenario", edited_paper(tmp_path, *OVERFLOWING_UNIT_PRICE)]) == 1
        captured = capsys.readouterr()
        assert all(f"violation: {message}" in captured.out for message in GPU_COST_ERRORS)
        assert "scenario ok" not in captured.out and "Traceback" not in captured.err

    def test_overflowing_mix_total_exit_1(self, tmp_path, capsys):
        assert main(["validate", "--scenario", edited_paper(tmp_path, *OVERFLOWING_MIX)]) == 1
        assert capsys.readouterr().out == f"violation: {MIX_TOTAL_ERROR}\n"

    def test_unparseable_exit_2(self, tmp_path):
        path = tmp_path / "broken.scn"
        path.write_text("???", encoding="utf-8")
        assert main(["validate", "--scenario", str(path)]) == 2


class TestReport:
    def test_report_reproduces_metrics(self, tmp_path, capsys):
        main(["run", "--paper", "--pattern", "3", "--requests", "200", "--seed", "4", "--out", str(tmp_path)])
        code = main(["report", str(tmp_path / "trace_3.csv")])
        assert code == 0
        output = capsys.readouterr().out
        metrics = compute_metrics(run_simulation(paper_scenario(), PatternKind.PATTERN3, 200, 4))
        final = metrics.points[-1].running_avg_response
        assert f"{final:.6f}" in output
        assert f"{len(metrics.points)} placed" in output

    @pytest.mark.parametrize("pattern, requests, price_menus", [
        ("1", "0", PAPER_PRICE_MENUS),
        ("2", "20", UNAFFORDABLE_PRICE_MENUS),
    ], ids=["header-only", "all-rejected"])
    def test_no_placed_rows_print_no_table(self, tmp_path, capsys, pattern, requests, price_menus):
        scenario = edited_paper(tmp_path, PAPER_PRICE_MENUS, price_menus)
        argv = ["--scenario", scenario, "--pattern", pattern, "--requests", requests, "--out", str(tmp_path)]
        assert main(["run", *argv]) == 0
        trace = tmp_path / f"trace_{pattern}.csv"
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        assert capsys.readouterr().out == f"\n## {trace}: {requests} requests, 0 placed, {requests} rejected\n"

    def test_tampered_response_time_flagged(self, tmp_path, capsys):
        main(["run", "--paper", "--pattern", "2", "--requests", "60", "--seed", "4", "--out", str(tmp_path)])
        path = tmp_path / "trace_2.csv"
        lines = read(path).splitlines()
        fields = lines[10].split(",")
        fields[CSV_COLUMNS.index("response_time_s")] = "9.999999"
        lines[10] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["report", str(path)])
        assert code == 1
        assert "replay mismatch" in capsys.readouterr().out

    def test_malformed_csv_exit_2(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("not,a,trace\n1,2,3\n", encoding="utf-8")
        assert main(["report", str(path)]) == 2

    @pytest.mark.parametrize("column, value, message", [
        ("tier", "moon", "unknown tier 'moon'"),
        ("response_time_s", "nan", "non-finite"),
        ("price_yen", "inf", "non-finite"),
        ("granted_bound_kind", "nonsense", "unknown granted_bound_kind 'nonsense'"),
        ("granted_bound_value", "abc", "non-numeric"),
        ("granted_bound_value", "inf", "non-finite"),
        ("device_id", "", "empty device_id"),
        ("app", "", "empty app"),
        ("response_time_s", "-7.400000", "negative response_time_s '-7.400000'"),
        ("price_yen", "-6743.333333", "negative price_yen '-6743.333333'"),
        ("granted_bound_value", "-7000.000000", "negative granted_bound_value '-7000.000000'"),
        ("tier", "user", "device_id 'cloud000_gpu00', not a user device"),
        ("device_id", "cloudy000_gpu00", "device_id 'cloudy000_gpu00', not a cloud device"),
        ("device_id", "carrier000_gpu00", "device_id 'carrier000_gpu00', not a cloud device"),
    ])
    def test_bad_row_exit_2(self, tmp_path, capsys, column, value, message):
        main(["run", "--paper", "--pattern", "2", "--requests", "30", "--seed", "4", "--out", str(tmp_path)])
        path = tmp_path / "trace_2.csv"
        lines = read(path).splitlines()
        row = next(i for i, line in enumerate(lines) if line.endswith(",0"))
        fields = lines[row].split(",")
        fields[CSV_COLUMNS.index(column)] = value
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: row {row + 1} " in err and message in err
        assert "Traceback" not in err

    def test_no_files_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2

    def test_stdout_matches_pinned_digests(self, tmp_path, capsys, monkeypatch):
        # The seed-42 paper traces, then the tampered file of test_tampered_response_time_flagged.
        monkeypatch.chdir(tmp_path)
        main(["run", "--paper", "--pattern", "all", "--requests", "1000", "--seed", "42", "--out", "."])
        main(["run", "--paper", "--pattern", "2", "--requests", "60", "--seed", "4", "--out", "tampered"])
        lines = read("tampered/trace_2.csv").splitlines()
        fields = lines[10].split(",")
        fields[CSV_COLUMNS.index("response_time_s")] = "9.999999"
        lines[10] = ",".join(fields)
        (tmp_path / "tampered" / "trace_2.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        for traces, code, digest in (
            (["trace_1.csv", "trace_2.csv", "trace_3.csv"], 0, "4de32c8fc3e56df87c9bd82d2b0b8e4ebfd12752bf49d284e015aac857e77128"),
            (["tampered/trace_2.csv"], 1, "0d1a9655055eae44dcea30b1dcf77ded036e74abc4cfffbc53c0750aca5f40ea"),
        ):
            assert main(["report", *traces]) == code
            assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest, traces


def paper_bytes_with(old: bytes, new: bytes) -> bytes:
    text = serialize_scenario(paper_scenario()).encode("utf-8")
    assert old in text
    return text.replace(old, new)


SCENARIO_COMMANDS = [
    ["validate"],
    ["run", "--pattern", "1", "--requests", "5"],
    ["emit-lp", "--pattern", "1", "--request-index", "3"],
]


class TestUnreadableInput:
    """Bad bytes or values in an input file exit 2 with a line- or row-anchored message, never a traceback."""

    @pytest.mark.parametrize("argv", SCENARIO_COMMANDS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("old, new, line, message", [
        (b'name = "paper-3tier"', b'name = "paper-\xff3tier"', 2, "is not UTF-8"),
        (b'name = "paper-3tier"', b"name = " + b"[" * 100_000 + b"]" * 100_000, 2,
         "invalid value for 'name': nested too deeply"),
        (b'name = "paper-3tier"', b'name = "\\ud800"', 2, "invalid value for 'name': lone surrogate escape"),
        (b'"MRI-Q"', b'"MRI-\\udc00Q"', 33, "invalid value for 'name': lone surrogate escape"),
        (b'"NAS.FT": [7000.0, 8500.0', b'"NAS.FT": [8500.0, 7000.0', 40,
         "app 'NAS.FT': 'price_menus': menu values must be strictly increasing"),
    ], ids=["non-utf8-byte", "deep-nesting", "lone-surrogate", "lone-surrogate-app-name", "swapped-price-menu"])
    def test_bad_scenario_exit_2(self, tmp_path, capsys, argv, old, new, line, message):
        path = tmp_path / "bad.scn"
        path.write_bytes(paper_bytes_with(old, new))
        out = tmp_path / "out"
        extra = [] if argv[0] == "validate" else ["--seed", "42", "--out", str(out)]
        code = main([*argv, "--scenario", str(path), *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: line {line}: " in captured.err and message in captured.err
        assert "Traceback" not in captured.err and "scenario ok" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("column, value, message", [
        ("app", "NAS\udcffFT", "line {line}: cannot read {path}: byte 0xff is not UTF-8"),
        ("request_id", "9" * 200_000, "{path}: line {line} cannot be read: field larger than field limit"),
        ("rejected", "2", "{path}: row {line} has rejected '2', not 0 or 1"),
        ("granted_bound_kind", "cost_cap", "{path}: row {line} is rejected but has granted_bound_kind 'cost_cap'"),
        ("granted_bound_value", "abc", "{path}: row {line} is rejected but has granted_bound_value 'abc'"),
        ("tier", "cloud", "{path}: row {line} is rejected but has tier 'cloud'"),
        ("device_id", "cloud000_gpu00", "{path}: row {line} is rejected but has device_id 'cloud000_gpu00'"),
        ("response_time_s", "7.400000", "{path}: row {line} is rejected but has response_time_s '7.400000'"),
        ("price_yen", "6743.333333", "{path}: row {line} is rejected but has price_yen '6743.333333'"),
        ("running_avg_response_s", "", "{path}: row {line} has running_avg_response_s '', not '{average}'"),
        ("running_avg_response_s", "abc", "{path}: row {line} has running_avg_response_s 'abc', not '{average}'"),
    ], ids=["non-utf8-byte", "oversized-field", "rejected-not-0-or-1", "rejected-with-bound-kind",
            "rejected-with-bound-value", "rejected-with-tier", "rejected-with-device", "rejected-with-response",
            "rejected-with-price", "rejected-average-empty", "rejected-average-not-the-last"])
    def test_bad_trace_exit_2(self, tmp_path, capsys, paper_runs, column, value, message):
        # The first rejected row, after placed ones: a rejected row repeats the last placed row's average.
        trace = paper_runs.trace(PatternKind.PATTERN1, 4, 470)  # rejections start at arrival 463
        row = 2 + next(i for i, o in enumerate(trace.outcomes) if o.placement is None)
        lines = trace_csv_text(trace).splitlines()
        fields = lines[row - 1].split(",")
        average = fields[CSV_COLUMNS.index("running_avg_response_s")]
        fields[CSV_COLUMNS.index(column)] = value
        lines[row - 1] = ",".join(fields)
        path = tmp_path / "trace.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert message.format(path=path, line=row, average=average) in err and "Traceback" not in err


def tampered_trace(tmp_path, trace, row, column, value):
    """Write ``trace`` as CSV with one field of report row ``row`` (the header is row 1) replaced; return its path."""
    lines = trace_csv_text(trace).splitlines()
    fields = lines[row - 1].split(",")
    fields[CSV_COLUMNS.index(column)] = value
    lines[row - 1] = ",".join(fields)
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestReportRowNumbers:
    """``index`` is the placement count after a placed row and so far on a rejected one; ``request_id`` the arrival number."""

    @pytest.mark.parametrize("rejected", ["0", "1"], ids=["placed-row", "rejected-row"])
    @pytest.mark.parametrize("column, value", [
        ("index", "999"),
        ("index", "0"),
        ("request_id", "999"),
        ("request_id", "x"),
    ])
    def test_wrong_number_exit_2(self, tmp_path, capsys, paper_runs, rejected, column, value):
        trace = paper_runs.trace(PatternKind.PATTERN1, 4, 470)  # rejections start at arrival 463
        row = 2 + next(i for i, o in enumerate(trace.outcomes) if (o.placement is None) == (rejected == "1"))
        expected = trace_csv_text(trace).splitlines()[row - 1].split(",")[CSV_COLUMNS.index(column)]
        path = tampered_trace(tmp_path, trace, row, column, value)
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: row {row} has {column} {value!r}, not {expected}\n" in err
        assert "Traceback" not in err


class TestRefusals:
    """Refusals of bad arguments or files: exit code and message, never a traceback."""

    def refused(self, capsys, argv, code, message):
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_validate_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--paper", "--seed", "1"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("sources, message", [
        (["--paper", "--scenario", "garbage.scn"], "error: argument --scenario: not allowed with argument --paper"),
        ([], "error: one of the arguments --scenario --paper is required"),
    ], ids=["both", "neither"])
    @pytest.mark.parametrize("command", [
        ["validate"],
        ["run", "--requests", "5", "--out", "out"],
        ["emit-lp", "--pattern", "2", "--request-index", "1", "--out", "out"],
    ], ids=["validate", "run", "emit-lp"])
    def test_paper_and_scenario_are_exclusive(self, tmp_path, capsys, monkeypatch, command, sources, message):
        # Exactly one source: the file would be refused if it were read, so neither may win silently.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "garbage.scn").write_text("garbage\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([*command, *sources])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, pattern, message, served", [
        ("input_nodes = 300", "input_nodes = 0", "all", "scenario has no input nodes to originate requests", []),
        ('"MRI-Q": [4.0, 8.0]', '"MRI-Q": []', "3", "app 'MRI-Q' has an empty deadline menu", ["1", "2"]),
    ], ids=["no-input-nodes", "empty-deadline-menu"])
    def test_valid_scenario_without_requests_to_originate(self, tmp_path, capsys, old, new, pattern, message, served):
        # validate checks the scenario; run refuses only the requests it cannot draw.
        path = edited_paper(tmp_path, old, new)
        assert main(["validate", "--scenario", path]) == 0
        assert capsys.readouterr().out == "scenario ok\n"
        out = tmp_path / "out"
        self.refused(capsys, ["run", "--scenario", path, "--pattern", pattern, "--requests", "5", "--out", str(out)],
                     2, f"error: {message}\n")
        assert not out.exists()
        for other in served:
            assert main(["run", "--scenario", path, "--pattern", other, "--requests", "5", "--out", str(out)]) == 0

    @pytest.mark.parametrize("index_args, message", [
        (["--request-index", "0"], "error: request index 0 is out of range\n"),
        (["--request-index", "1", "--bound-index", "5"], "error: bound index 5 outside ladder of 3 bounds\n"),
        (["--request-index", "1", "--bound-index", "3"], "error: bound index 3 outside ladder of 3 bounds\n"),
    ], ids=["request-index", "bound-index", "bound-index-equal-to-ladder-length"])
    def test_emit_lp_index_out_of_range(self, tmp_path, capsys, index_args, message):
        out = tmp_path / "x.lp"
        self.refused(capsys, ["emit-lp", "--paper", "--pattern", "2", *index_args, "--out", str(out)], 2, message)
        assert not out.exists()

    def test_negative_request_count(self, tmp_path, capsys):
        self.refused(capsys, ["run", "--paper", "--requests", "-3", "--out", str(tmp_path / "out")], 2,
                     "error: request count must be >= 0\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--paper", "--pattern", "2", "--requests", "5", "--out"],
        ["emit-lp", "--paper", "--pattern", "2", "--request-index", "1", "--out"],
    ], ids=["run", "emit-lp"])
    def test_unwritable_out_exit_3(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        self.refused(capsys, [*argv, str(blocker / "out")], 3, "I/O error: ")

    @pytest.mark.parametrize("column, value, message", [
        ("app", "NAS.FT,extra", "has 12 fields"),
        ("response_time_s", "fast", "has non-numeric fields"),
        ("running_avg_response_s", "", "has non-numeric fields"),
    ])
    def test_bad_report_row(self, tmp_path, capsys, paper_runs, column, value, message):
        path = tampered_trace(tmp_path, paper_runs.trace(PatternKind.PATTERN2, 4, 30), 6, column, value)
        self.refused(capsys, ["report", str(path)], 2, f"error: {path}: row 6 {message}\n")


def test_runtime_imports_only_the_standard_library():
    # -S: without it, .pth files of the environment's site-packages import modules of their own.
    # The directory edge_placer was imported from: src/, or an installed copy.
    src = os.path.dirname(os.path.dirname(edge_placer.__file__))
    code = (
        "import pkgutil, sys; sys.path.insert(0, sys.argv[1]); import edge_placer\n"
        "for module in pkgutil.iter_modules(edge_placer.__path__): __import__(f'edge_placer.{module.name}')\n"
        "print(sorted({name.partition('.')[0] for name in sys.modules} - sys.stdlib_module_names - {'__main__'}))"
    )
    loaded = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=True).stdout
    assert loaded == "['edge_placer']\n"


def test_cli_import_leaves_lp_export_unloaded():
    src = os.path.dirname(os.path.dirname(edge_placer.__file__))
    code = "import sys, edge_placer.cli; print(sorted(m for m in sys.modules if m.startswith('edge_placer')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert "edge_placer.cli" in loaded and "edge_placer.lp_export" not in loaded
