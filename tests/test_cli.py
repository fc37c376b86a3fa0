import hashlib
import json
import os

import pytest

from edge_placer.cli import CSV_COLUMNS, main, trace_csv_text
from edge_placer.lp_export import build_ilp, to_lp_text
from edge_placer.model import build_topology
from edge_placer.scenario import paper_scenario, serialize_scenario
from edge_placer.simulator import PatternKind, compute_metrics, generate_requests, run_simulation
from edge_placer.solver import ResidualState, apply_placement, solve_with_escalation

from test_lp_export import enumerate_optimum


def read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


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

    def test_paper_outputs_match_pinned_digests(self, tmp_path):
        pinned_path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "pinned.json")
        with open(pinned_path, encoding="utf-8") as handle:
            pinned = json.load(handle)
        code = main(["run", "--paper", "--pattern", "all", "--requests", "1000",
                     "--seed", str(pinned["seed"]), "--out", str(tmp_path)])
        assert code == 0
        for name in ("trace_1.csv", "trace_2.csv", "trace_3.csv", "summary.md"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == pinned["digests"]["paper"][f"all/{name}"], name

    def test_zero_requests_header_only(self, tmp_path):
        code = main(["run", "--paper", "--pattern", "1", "--requests", "0", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        assert read(tmp_path / "trace_1.csv") == ",".join(CSV_COLUMNS) + "\n"

    def test_missing_scenario_file(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.toml"), "--pattern", "1"]) == 2

    def test_invalid_scenario_file(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("schema_version = 1\n")
        assert main(["run", "--scenario", str(bad), "--pattern", "1"]) == 2

    def test_scenario_file_equivalent_to_preset(self, tmp_path):
        scenario_path = tmp_path / "paper.scn"
        scenario_path.write_text(serialize_scenario(paper_scenario()), encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--paper", "--pattern", "2", "--requests", "120", "--seed", "5", "--out", str(out_a)])
        main(["run", "--scenario", str(scenario_path), "--pattern", "2", "--requests", "120",
              "--seed", "5", "--out", str(out_b)])
        assert read(out_a / "trace_2.csv") == read(out_b / "trace_2.csv")

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EDGE_PLACER_SEED", "7")
        main(["run", "--paper", "--pattern", "1", "--requests", "80", "--out", str(tmp_path / "env")])
        main(["run", "--paper", "--pattern", "1", "--requests", "80", "--seed", "7",
              "--out", str(tmp_path / "flag")])
        assert read(tmp_path / "env" / "trace_1.csv") == read(tmp_path / "flag" / "trace_1.csv")

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


class TestEmitLp:
    def test_first_request_pattern2_optimum(self, tmp_path):
        out = tmp_path / "first.lp"
        code = main(["emit-lp", "--paper", "--pattern", "2", "--request-index", "1",
                     "--seed", "42", "--out", str(out)])
        assert code == 0
        # first bound (7000 yen) admits only the cloud GPUs: optimum 7.4 s
        assert enumerate_optimum(read(out)) == pytest.approx(7.4, abs=1e-9)

    @pytest.mark.parametrize("pattern", [1, 2, 3])
    def test_residuals_match_independent_replay(self, tmp_path, pattern):
        out = tmp_path / "replayed.lp"
        code = main(["emit-lp", "--paper", "--pattern", str(pattern), "--request-index", "500",
                     "--seed", "42", "--out", str(out)])
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
        bound = target.requirement.ladder()[0]
        expected = to_lp_text(build_ilp(topology, state, target, bound))
        # the replay changed residuals the target's model reads
        assert expected != to_lp_text(build_ilp(topology, ResidualState.fresh(topology), target, bound))
        assert read(out) == expected

    def test_bound_index_beyond_ladder(self, tmp_path):
        code = main(["emit-lp", "--paper", "--pattern", "2", "--request-index", "1",
                     "--seed", "42", "--bound-index", "5", "--out", str(tmp_path / "x.lp")])
        assert code == 2

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
        assert f"{metrics.total_placed} placed" in output

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
