"""Smoke test of the benchmark itself, on tiny request counts.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out", "test")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", "42", "--seconds", "1",
            "--smoke", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(*args: str) -> dict:
    done = _run(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_reported_with_its_unit(workload, trace, kind):
    result = _result("--workload", workload, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {metric["name"]: metric["unit"] for metric in _spec()[kind]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared
    if kind == "end_to_end":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_call_counts_repeat_exactly():
    runs = [_result("--workload", "lp-export", "--trace", "1")["metrics"] for _ in range(2)]
    counted = [name for name in runs[0] if not name.endswith(".self_s") and name != "trace.overhead_ratio"]
    assert {name: runs[0][name] for name in counted} == {name: runs[1][name] for name in counted}


def test_corrupted_pinned_digest_fails_every_operation():
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)
    pinned["digests"]["paper/smoke"]["all/trace_2.csv"] = "0" * 64
    os.makedirs(SCRATCH, exist_ok=True)
    corrupted = os.path.join(SCRATCH, "pinned-corrupted.json")
    with open(corrupted, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle)
    result = _result("--workload", "paper", "--trace", "0", "--pinned", corrupted)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_without_the_program_it_fails_and_prints_no_result():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = _run("--workload", "paper", "--trace", "0", cwd=bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
