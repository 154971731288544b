"""tools/pairs.py: the before/after record of benchmark pairs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import pairs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in SPEC["end_to_end"]]


def _check_record(record, done=None):
    """Every key of the pairs-v1 schema, and nothing else: a complete
    record, or, given `done`, one left after that many of its pairs, with
    their rows and no summary."""
    complete = done is None
    done = record["pairs"] if complete else done
    assert tuple(record) == (pairs.RECORD_KEYS if complete else pairs.RECORD_KEYS[:-1])
    assert record["complete"] is complete
    assert record["schema"] == pairs.SCHEMA
    assert len(record["seeds"]) == record["pairs"]
    assert len(record["runs"]) == 2 * done
    assert isinstance(record["change_dirty"], bool)
    assert record["change_dirty"] == bool(record["dirty_paths"])
    assert set(record["src_sha256"]) == {"parent", "change"}
    for k, seed in enumerate(record["seeds"][:done]):
        rows = [run for run in record["runs"] if run["pair"] == k]
        assert [run["seed"] for run in rows] == [seed, seed]
        assert {run["side"] for run in rows} == {"parent", "change"}
        assert [run["first"] for run in rows] == [True, False]
        assert rows[0]["side"] == ("parent" if k % 2 == 0 else "change")
    for run in record["runs"]:
        assert tuple(run) == pairs.RUN_KEYS
        assert list(run["metrics"]) == METRICS
    if not complete:
        return
    assert list(record["summary"]) == METRICS
    for name, s in record["summary"].items():
        assert tuple(s) == pairs.SUMMARY_KEYS
        for side in ("parent", "change"):
            assert tuple(s[side]) == pairs.SIDE_KEYS
            assert s[side]["q1"] <= s[side]["median"] <= s[side]["q3"]
        assert s["pairs"] == record["pairs"]
        assert 0 <= s["change_wins"] + s["ties"] <= s["pairs"]
        assert 0.0 < s["sign_test_p"] <= 1.0


def test_summary_counts_wins_in_the_better_direction():
    runs = []
    for k, (p, c) in enumerate([(0.10, 0.08), (0.11, 0.09), (0.10, 0.12), (0.10, 0.10)]):
        for side, job in (("parent", p), ("change", c)):
            metrics = dict.fromkeys(METRICS, 1.0)
            metrics["job_s"] = job
            metrics["ops_ok_share"] = 1.0 if side == "parent" else 0.5
            runs.append({"pair": k, "side": side, "metrics": metrics})
    summary = pairs.summarize(runs, SPEC)
    job = summary["job_s"]
    assert (job["change_wins"], job["ties"], job["pairs"]) == (2, 1, 4)
    assert job["sign_test_p"] == pairs.sign_test_p(2, 1) == 1.0
    assert job["parent"] == pytest.approx({"median": 0.10, "q1": 0.10, "q3": 0.1025})
    ok = summary["ops_ok_share"]  # higher is better
    assert (ok["better"], ok["change_wins"], ok["ties"]) == ("higher", 0, 0)
    assert ok["sign_test_p"] == 2 / 16


def test_sign_test_p_values():
    assert pairs.sign_test_p(10, 0) == 2 / 1024
    assert pairs.sign_test_p(1, 9) == 2 * 11 / 1024
    assert pairs.sign_test_p(5, 5) == 1.0
    assert pairs.sign_test_p(0, 0) == 1.0


def test_committed_pair_records_follow_the_schema():
    """Every pairs-v1 record in a BENCH_*.json file has the fixed schema
    and is complete."""
    records = [r for path in ROOT.glob("BENCH_*.json")
               for r in json.loads(path.read_text()).values()
               if isinstance(r, dict) and r.get("schema") == pairs.SCHEMA]
    for record in records:
        _check_record(record)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_dirty_paths_name_changed_and_untracked_files(monkeypatch, tmp_path):
    """Each path is named whole, modified (" M" in porcelain) or untracked,
    and a path outside src/, perfbench/ and BENCHMARK.json is not named."""
    def run(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("a = 1\n")
    (tmp_path / "README.md").write_text("r\n")
    run("init", "-q")
    run("add", "-A")
    run("commit", "-q", "-m", "base")
    (tmp_path / "src" / "a.py").write_text("a = 2\n")
    (tmp_path / "src" / "b.py").write_text("b = 1\n")
    (tmp_path / "README.md").write_text("s\n")
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    assert pairs.dirty_paths() == ["src/a.py", "src/b.py"]


def test_dirty_change_side_is_refused(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(pairs, "dirty_paths", lambda: ["src/quditid/montecarlo.py"])
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD", "--workload", "sim-d3", "--pairs", "1", "--seconds", "1",
            "--seed0", "1", "--name", "x", "--out", str(out)]
    assert pairs.main(argv) == 2
    assert "--allow-dirty" in capsys.readouterr().err
    assert not out.exists()


def test_stopped_run_keeps_its_finished_pairs(monkeypatch, tmp_path):
    """A run stopped in its second pair leaves the first pair's rows in an
    incomplete record, beside the records already in the file."""
    calls = []

    def run_side(tree, workload, seed, seconds):
        if len(calls) == 2:
            raise KeyboardInterrupt
        calls.append(tree.name)
        return 1, 1, 0, dict.fromkeys(METRICS, 1.0)

    monkeypatch.setattr(pairs, "dirty_paths", lambda: [])
    monkeypatch.setattr(pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(pairs, "build_trees", lambda tmp, sha: {"parent": tmp / "parent",
                                                               "change": tmp / "change"})
    monkeypatch.setattr(pairs, "run_side", run_side)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"earlier": {"kept": True}}, indent=2) + "\n")
    argv = ["--parent", "HEAD", "--workload", "algebra", "--pairs", "3", "--seconds", "1",
            "--seed0", "5", "--name", "stopped", "--out", str(out)]
    with pytest.raises(KeyboardInterrupt):
        pairs.main(argv)
    records = json.loads(out.read_text())
    assert list(records) == ["earlier", "stopped"]
    assert records["earlier"] == {"kept": True}
    record = records["stopped"]
    _check_record(record, done=1)
    assert [(run["pair"], run["side"]) for run in record["runs"]] == [(0, "parent"), (0, "change")]
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs a git checkout")
def test_one_pair_smoke_run(tmp_path):
    """One pair at --seconds 1 writes one schema record beside an existing
    one, which stays as it was."""
    out = tmp_path / "BENCH_sim-d3.json"
    out.write_text(json.dumps({"earlier": {"kept": True}}, indent=2) + "\n")
    proc = subprocess.run(
        [sys.executable, "tools/pairs.py", "--parent", "HEAD", "--workload", "sim-d3",
         "--pairs", "1", "--seconds", "1", "--seed0", "7", "--name", "smoke",
         "--allow-dirty", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    records = json.loads(out.read_text())
    assert list(records) == ["earlier", "smoke"]
    assert records["earlier"] == {"kept": True}
    record = records["smoke"]
    _check_record(record)
    assert record["workload"] == "sim-d3" and record["seeds"] == [7]
    assert all(run["correct"] and run["failed"] == 0 for run in record["runs"])
    assert record["summary"]["ops_ok_share"]["change"]["median"] == 1.0
