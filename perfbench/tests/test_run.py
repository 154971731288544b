"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_failing_operation_is_counted(tmp_path):
    runner = run.Runner(tmp_path)
    # d=9 is outside the CLI's choices: a usage error, exit code 1.
    bad = run.Command("simulate", 9, trials=100, seed=1)
    good = run.Command("simulate", 2, trials=2000, seed=1)
    jobs = [runner.run_job([bad], False), runner.run_job([good], False)]
    assert jobs[0]["ops"][0]["failures"] == ["exit code 1"]
    assert jobs[1]["ops"][0]["failures"] == []
    metrics = run.end_to_end(jobs, [op for job in jobs for op in job["ops"]])
    assert metrics["ops_ok_share"] == (0.5, "share")


def test_gates_flag_wrong_outputs():
    sim = run.Command("simulate", 3, trials=36000, seed=0)
    summary = {"d": 3, "trials": 36000, "seed": 0, "success_count": 1000,
               "error_count": 1, "inconclusive_count": 34999}
    assert run.output_gate(sim, json.dumps(summary)) == ["error_count 1"]
    summary.update(success_count=1500, error_count=0, inconclusive_count=34500)
    assert "sigma" in run.output_gate(sim, json.dumps(summary))[0]
    csv = run.Command("simulate", 2, trials=2, seed=0, fmt="csv")
    assert run.output_gate(csv, run.CSV_HEADER + "\n0,1,1,0.5,0.5\n")
    opt = run.Command("optimize", 3, resolution=0.01)
    assert run.output_gate(opt, json.dumps({"d": 3, "S_opt": 2.0}))
    assert run.output_gate(opt, json.dumps({"d": 3, "S_opt": 2.25})) == []


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }


def _run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sim-d3", "sim-d5-csv"])
def test_metric_names_match_benchmark_json(workload, trace):
    proc = _run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    assert [v["unit"] for v in result["metrics"].values()] == [m["unit"] for m in spec]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(tmp_path, "sim-d3", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
