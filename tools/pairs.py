"""Before/after benchmark pairs for one workload, written as one record.

    python3 tools/pairs.py --parent REV --workload W --pairs N --seconds S \\
        --seed0 K --name NAME [--allow-dirty] [--out FILE]

Builds two trees in a temporary directory.  Both hold this checkout's
perfbench/ and BENCHMARK.json; the parent tree's src/ comes from
`git archive REV`, the change tree's from the working tree.  Pair k runs
`python3 TREE/perfbench/run.py --workload W --seed K+k --seconds S
--trace 0` in each tree, untraced, the parent first in even pairs and the
change first in odd ones.

The record goes under NAME into FILE (default BENCH_W.json at the root
of the checkout), beside the records already there, which stay as they
are; an existing NAME is refused.  Its schema (RECORD_KEYS, "pairs-v1"):
both SHAs, the provenance, the command, one row per run, and per
end-to-end metric of BENCHMARK.json each side's median and quartiles,
the change's wins out of N and a two-sided sign-test p-value.  The file
is rewritten after every pair, with the rows so far, "complete": false
and no summary, so a run that stops early keeps its finished pairs; the
last pair's write sets "complete": true and adds the summary.

The change side must match HEAD in src/, perfbench/ and BENCHMARK.json.
--allow-dirty runs it anyway, and the record lists the paths that differ
and the SHA-256 of each tree's src/.
"""

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "pairs-v1"
RECORD_KEYS = (
    "schema", "workload", "command", "run_command", "parent_sha", "change_sha",
    "change_dirty", "dirty_paths", "src_sha256", "provenance", "pairs", "seconds",
    "seeds", "complete", "runs", "summary",
)
RUN_KEYS = ("pair", "seed", "side", "first", "loadavg", "correct", "attempted", "failed", "metrics")
SIDE_KEYS = ("median", "q1", "q3")
SUMMARY_KEYS = ("better", "parent", "change", "change_wins", "ties", "pairs", "sign_test_p")
# What the benchmark reads from a checkout besides src/.
BENCH_PATHS = ("perfbench", "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", "*.pyc", "out")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def dirty_paths():
    """Paths under src/, perfbench/ or BENCHMARK.json that differ from HEAD
    in the working tree, untracked files included."""
    paths = ("src", *BENCH_PATHS)
    changed = git("diff", "--name-only", "HEAD", "--", *paths).splitlines()
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *paths).splitlines()
    return sorted(changed + untracked)


def src_digest(src):
    """SHA-256 over the relative paths and bytes of every .py file in src."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def build_trees(tmp, parent_sha):
    """The parent and change trees under tmp, each with this checkout's
    benchmark files."""
    trees = {"parent": tmp / "parent", "change": tmp / "change"}
    for tree in trees.values():
        tree.mkdir()
        shutil.copytree(ROOT / "perfbench", tree / "perfbench", ignore=IGNORED)
        shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    archive = subprocess.run(["git", "archive", "--format=tar", parent_sha, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(trees["parent"], filter="data")
    shutil.copytree(ROOT / "src", trees["change"] / "src", ignore=IGNORED)
    return trees


def run_side(tree, workload, seed, seconds):
    """One untraced run.py run in tree: (correct, attempted, failed,
    {metric: value}) from the JSON object on its last stdout line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} seed {seed}: run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    return last["correct"], last["attempted"], last["failed"], metrics


def quartiles(values):
    """Median, q1 and q3 (statistics.quantiles, inclusive); one value is
    all three."""
    if len(values) == 1:
        return dict.fromkeys(SIDE_KEYS, values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def sign_test_p(wins, losses):
    """Two-sided exact sign-test p-value of wins against losses, ties
    dropped: twice the smaller binomial(n, 1/2) tail, at most 1."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2.0 * tail)


def summarize(runs, spec):
    """Per end-to-end metric of the BENCHMARK.json `spec`: each side's
    quartiles, and the change's wins, ties and sign-test p over the pairs."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [by_pair[k] for k in sorted(by_pair)]
    out = {}
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        out[name] = {
            "better": better,
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "sign_test_p": sign_test_p(wins, len(pairs) - wins - ties),
        }
    return out


def write_records(out, records):
    """Replace the file `out` with `records`, through a temporary file, so
    a run stopped mid-write leaves the previous version whole."""
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, out)


def provenance():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--name", required=True, help="key of the record in the output file")
    parser.add_argument("--allow-dirty", action="store_true",
                        help="run a change side that differs from HEAD, and record that")
    parser.add_argument("--out", type=Path, help="record file (default BENCH_W.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1 or args.seed0 < 0:
        parser.error("--pairs and --seconds must be >= 1 and --seed0 >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    records = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    if args.name in records:
        print(f"error: {out.name} already holds a record {args.name!r}", file=sys.stderr)
        return 2
    dirty = dirty_paths()
    if dirty and not args.allow_dirty:
        print("error: the change side differs from HEAD in " + ", ".join(dirty)
              + "; commit it or pass --allow-dirty", file=sys.stderr)
        return 2
    parent_sha = git("rev-parse", "--verify", args.parent + "^{commit}")
    seeds = [args.seed0 + k for k in range(args.pairs)]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = build_trees(Path(tmp), parent_sha)
        record = records[args.name] = {
            "schema": SCHEMA,
            "workload": args.workload,
            "command": shlex.join(["python3", "tools/pairs.py", *(argv or sys.argv[1:])]),
            "run_command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                           f"--seconds {args.seconds} --trace 0",
            "parent_sha": parent_sha,
            "change_sha": git("rev-parse", "HEAD"),
            "change_dirty": bool(dirty),
            "dirty_paths": dirty,
            "src_sha256": {side: src_digest(tree / "src") for side, tree in trees.items()},
            "provenance": provenance(),
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seeds": seeds,
            "complete": False,
            "runs": runs,
        }
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                loadavg = os.getloadavg()[0]
                correct, attempted, failed, metrics = run_side(
                    trees[side], args.workload, seed, args.seconds)
                runs.append({"pair": k, "seed": seed, "side": side, "first": side == order[0],
                             "loadavg": loadavg, "correct": correct, "attempted": attempted,
                             "failed": failed, "metrics": metrics})
                print(f"pair {k} seed {seed} {side:6s} job_s {metrics.get('job_s')}",
                      file=sys.stderr)
            if k == args.pairs - 1:
                record["complete"] = True
                record["summary"] = summarize(runs, spec)
            write_records(out, records)
    for name, s in record["summary"].items():
        print(f"{name:14s} parent {s['parent']['median']:.6g} change {s['change']['median']:.6g} "
              f"wins {s['change_wins']}/{s['pairs']} p {s['sign_test_p']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
