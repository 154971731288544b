"""quditid benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; quditid is imported from ./src.
Each workload is a closed loop with one client: one operation at a time,
each a fresh Python process (perfbench/child.py) that imports quditid,
timed as set-up, and calls `quditid.cli.main(argv)` with its output sent to
a temporary file.  A job is one pass over the workload's commands; jobs
repeat until S seconds have passed.  These are batch jobs, so the figures
are wall time, memory and output size per job at the stated input sizes.

Every operation passes correctness gates (exit code, closed-form success
rate, row counts, unit-norm vectors, output digest equal across repeats);
a failed gate counts against `ops_ok_share` and sets `correct` to false.

On a shared machine identical runs differ by up to a third in wall time,
so each process also times a fixed pure-Python calibration loop, and
setup_s and job_s are scaled to the speed where that loop takes CAL_REF_S
(see `scaled`).  The raw times are kept in the result file.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced jobs and prints the per-layer metrics: the
traced processes wrap the module-level names each layer calls through and
report counters and spans; the untraced ones give the tracing overhead.

A result file with every sample, the per-command figures and provenance
goes to perfbench/out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

MIN_SETUP_SAMPLES = 5
# Reference time of child.calibrate, about its time on a 2.1 GHz Xeon vCPU
# under CPython 3.11: setup_s, job_s and the tracing throughputs are
# reported at the speed where the loop takes this long.
CAL_REF_S = 0.03
# The loop is all interpreter work and swings more than quditid's mix of
# interpreter, file loading and numpy work.  Over ten runs of each workload
# on a shared 2-vCPU machine, scaling by (CAL_REF_S / loop time) ** 0.75
# left the least run-to-run spread (interquartile range over median: 0.15
# to 0.26 unscaled, 0.07 to 0.16 with exponent 1, 0.03 to 0.09 with 0.75);
# ten more runs with new seeds gave 0.03 to 0.07.
CAL_EXPONENT = 0.75
CHILD_TIMEOUT_S = 30
# Every child is stopped by this many seconds after start, so a run with a
# hung operation still exits well within three minutes.
RUN_LIMIT_S = 160
SIGMAS = 5.0
NORM_TOL = 1e-9
CSV_HEADER = "trial,truth,outcome,p_success,p_inconclusive"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a job.  `trials` is the Monte Carlo work it
    does, 0 for the algebra commands."""

    kind: str
    d: int
    trials: int = 0
    seed: int = 0
    fmt: str = "json"
    resolution: float = 0.01

    def args(self):
        args = [self.kind, "--d", str(self.d)]
        if self.kind == "simulate":
            args += ["--trials", str(self.trials), "--seed", str(self.seed),
                     "--format", self.fmt]
        elif self.kind == "optimize":
            args += ["--mode", "grid", "--resolution", repr(self.resolution)]
        return args


@dataclass(frozen=True)
class Workload:
    why: str
    commands: object  # seed -> list of Command


# Why each workload exists.  The two simulate workloads both run the
# montecarlo layer but weight it differently; algebra runs no Monte Carlo
# work, so a change to one side should leave the other flat.
WORKLOADS = {
    "sim-d3": Workload(
        why="simulate --d 3 JSON summary: stream setup and Haar draws dominate "
            "each trial; moves with stream and draw changes, flat for CSV, "
            "dense verify or JSON build changes",
        commands=lambda seed: [Command("simulate", 3, trials=40000, seed=seed)],
    ),
    "sim-d5-csv": Workload(
        why="simulate --d 5 --format csv: largest determinant share per trial, "
            "plus per-trial CSV row formatting and an in-memory CSV that grows "
            "RSS with trials",
        commands=lambda seed: [
            Command("simulate", 5, trials=20000, seed=seed, fmt="csv")
        ],
    ),
    "algebra": Workload(
        why="verify --d 4, build --d 5 and optimize --d 3 grid, no Monte Carlo: "
            "dense 1024x1024 eigensolves, a 25.8 MB JSON write and the grid "
            "search",
        commands=lambda seed: [
            Command("verify", 4),
            Command("build", 5),
            Command("optimize", 3, resolution=0.01),
        ],
    ),
}

# name, unit, traced name, field, per ("trial" or "job")
LAYER_METRICS = [
    ("montecarlo.trial_stream.us_per_trial", "us", "montecarlo.trial_stream", "total", "trial"),
    ("montecarlo.trial_stream.calls_per_trial", "count", "montecarlo.trial_stream", "calls", "trial"),
    ("tensor_core.haar_state.us_per_trial", "us", "tensor_core.haar_state", "total", "trial"),
    ("tensor_core.haar_state.calls_per_trial", "count", "tensor_core.haar_state", "calls", "trial"),
    ("montecarlo.det.us_per_trial", "us", "montecarlo.det", "total", "trial"),
    ("montecarlo.det.matrices_per_trial", "count", "montecarlo.det", "matrices", "trial"),
    ("montecarlo.run_experiment.us_per_trial", "us", "montecarlo.run_experiment", "total", "trial"),
    ("montecarlo.run_experiment.self_us_per_trial", "us", "montecarlo.run_experiment", "self", "trial"),
    # A CSV row is one trial; the JSON summary formats a handful of floats.
    ("jsonio.format_float.us_per_row", "us", "jsonio.format_float", "total", "trial"),
    ("jsonio.format_float.calls_per_row", "count", "jsonio.format_float", "calls", "trial"),
    ("cli.main.self_s", "s", "cli.main", "self", "job"),
    ("analytics.verify_report.self_s", "s", "analytics.verify_report", "self", "job"),
    ("analytics.confusion.s", "s", "analytics.confusion", "total", "job"),
    ("analytics.success_probability.s", "s", "analytics.success_probability", "total", "job"),
    ("state_ops.build_rho.calls", "count", "state_ops.build_rho", "calls", "job"),
    ("state_ops.build_rho.s", "s", "state_ops.build_rho", "total", "job"),
    ("state_ops.to_dense.calls", "count", "state_ops.to_dense", "calls", "job"),
    ("state_ops.to_dense.s", "s", "state_ops.to_dense", "total", "job"),
    ("analytics.eigvalsh.s", "s", "analytics.eigvalsh", "total", "job"),
    ("analytics.eigvalsh.calls", "count", "analytics.eigvalsh", "calls", "job"),
    ("analytics.eigvalsh.max_dim", "count", "analytics.eigvalsh", "max_dim", "job"),
    ("analytics.eigvalsh.bytes_computed", "bytes", "analytics.eigvalsh", "bytes_computed", "job"),
    ("detection.build_povm.s", "s", "detection.build_povm", "total", "job"),
    ("detection.build_povm.calls", "count", "detection.build_povm", "calls", "job"),
    ("detection.povm_to_dict.s", "s", "detection.povm_to_dict", "total", "job"),
    ("tensor_core.state_to_dict.s", "s", "tensor_core.state_to_dict", "total", "job"),
    ("jsonio.dumps.s", "s", "jsonio.dumps", "total", "job"),
    ("jsonio.dumps.bytes_out", "bytes", "jsonio.dumps", "bytes_out", "job"),
    ("sym_optimizer.optimal_weight_grid.s", "s", "sym_optimizer.optimal_weight_grid", "total", "job"),
    ("sym_optimizer.grid.candidates", "count", "sym_optimizer.grid", "candidates", "job"),
]
STAT_FIELDS = {"calls": 0, "total": 1, "self": 2}


# ---------------------------------------------------------------- gates

def closed_form_success(d):
    return 1.0 / ((d + 1) * d ** (d - 1))


def _success_gate(cmd, successes):
    p = closed_form_success(cmd.d)
    sigma = math.sqrt(p * (1.0 - p) / cmd.trials)
    rate = successes / cmd.trials
    if abs(rate - p) > SIGMAS * sigma:
        return [f"success rate {rate!r} is {abs(rate - p) / sigma:.1f} sigma from {p!r}"]
    return []


def _gate_simulate_json(cmd, text):
    s = json.loads(text)
    fails = []
    if (s["d"], s["trials"], s["seed"]) != (cmd.d, cmd.trials, cmd.seed):
        fails.append("summary d/trials/seed differ from the request")
    if s["error_count"] != 0:
        fails.append(f"error_count {s['error_count']}")
    if s["success_count"] + s["error_count"] + s["inconclusive_count"] != cmd.trials:
        fails.append("outcome counts do not sum to trials")
    return fails + _success_gate(cmd, s["success_count"])


def _gate_simulate_csv(cmd, text):
    lines = text.splitlines()
    if lines[:1] != [CSV_HEADER] or len(lines) != cmd.trials + 1:
        return [f"expected header plus {cmd.trials} rows, got {len(lines)} lines"]
    successes = errors = 0
    for i, line in enumerate(lines[1:]):
        trial, truth, outcome, _, _ = line.split(",")
        if int(trial) != i or not 1 <= int(truth) <= cmd.d:
            return [f"malformed row {i}: {line!r}"]
        if outcome == truth:
            successes += 1
        elif outcome != "0":
            errors += 1
    fails = [f"{errors} misidentified trials"] if errors else []
    return fails + _success_gate(cmd, successes)


def _gate_verify(cmd, text):
    r = json.loads(text)
    if r["d"] != cmd.d or r["ok"] is not True or r["failed_checks"]:
        return [f"verify not ok: failed_checks={r['failed_checks']}"]
    return []


def _gate_build(cmd, text):
    m = json.loads(text)
    d = cmd.d
    fails = []
    if m["d"] != d or m["scale"] != d / (d + 1):
        fails.append(f"d={m['d']} scale={m['scale']!r}, want scale {d / (d + 1)!r}")
    if [e["n"] for e in m["elements"]] != list(range(1, d + 1)):
        fails.append("elements are not labelled 1..d")
    for e in m["elements"]:
        if len(e["vectors"]) != d:
            fails.append(f"element {e['n']} has {len(e['vectors'])} vectors")
        for v in e["vectors"]:
            norm = math.fsum(re * re + im * im for re, im in v["amps"])
            if len(v["amps"]) != d ** (d + 1) or abs(norm - 1.0) > NORM_TOL:
                fails.append(f"element {e['n']} has a vector of norm^2 {norm!r}")
    return fails


def _gate_optimize(cmd, text):
    r = json.loads(text)
    want = cmd.d * cmd.d / (cmd.d + 1)
    if r["d"] != cmd.d or abs(r["S_opt"] - want) > cmd.d * cmd.resolution:
        return [f"S_opt {r['S_opt']!r} not within {cmd.d * cmd.resolution} of {want!r}"]
    return []


def output_gate(cmd, text):
    """Correctness failures of one command's output (empty when it passed)."""
    if cmd.kind == "simulate":
        gate = _gate_simulate_csv if cmd.fmt == "csv" else _gate_simulate_json
    else:
        gate = {"verify": _gate_verify, "build": _gate_build,
                "optimize": _gate_optimize}[cmd.kind]
    try:
        return gate(cmd, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable {cmd.kind} output: {exc!r}"]


def output_digest(cmd, text):
    """Digest that must repeat for the same command and seed.  The simulate
    summary's wall_time_s is a measurement, not an output, so it is left out."""
    if cmd.kind == "simulate" and cmd.fmt == "json":
        try:
            summary = json.loads(text)
            summary.pop("wall_time_s", None)
            text = json.dumps(summary, sort_keys=True)
        except (ValueError, AttributeError):
            pass  # not a summary object; the gate reports it
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------ operations

def child_env():
    env = dict(os.environ)
    env.pop("QID_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


def spawn(workdir, tag, trace, cli_args, limit=None):
    """Run child.py once, stopping it at CHILD_TIMEOUT_S or at the
    perf_counter time `limit`; returns (report dict or None, failures)."""
    report_path = workdir / f"{tag}.json"
    argv = [sys.executable, str(CHILD), str(report_path), "1" if trace else "0", *cli_args]
    timeout = CHILD_TIMEOUT_S
    if limit is not None:
        timeout = max(1.0, min(timeout, limit - time.perf_counter()))
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, [f"timed out after {timeout:.0f} s"]
    if proc.returncode != 0 or not report_path.exists():
        return None, [f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    report = json.loads(report_path.read_text())
    report_path.unlink()
    if not Path(report["quditid_file"]).is_relative_to(SRC):
        return None, [f"imported quditid from {report['quditid_file']}, not {SRC}"]
    return report, []


class Runner:
    """Runs operations and keeps every gate verdict of one benchmark run."""

    def __init__(self, workdir, limit=None):
        self.workdir = workdir
        self.limit = limit  # perf_counter time by which every child is stopped
        self.ops = 0
        self.first_digest = {}  # command -> digest of its first output
        self.verdicts = {}  # (command, digest) -> output gate failures

    def run_op(self, cmd, trace):
        self.ops += 1
        tag = f"op{self.ops}"
        out = self.workdir / f"{tag}.out"
        report, fails = spawn(self.workdir, tag, trace, cmd.args() + ["--out", str(out)],
                              self.limit)
        op = {"command": " ".join(cmd.args()), "traced": trace, "trials": cmd.trials}
        if report is not None:
            op.update(report)
            if report["rc"] != 0:
                fails.append(f"exit code {report['rc']}")
            elif not out.exists():
                fails.append("no output written")
            else:
                text = out.read_text(encoding="utf-8")
                digest = output_digest(cmd, text)
                op["out_bytes"] = len(text.encode("utf-8"))
                op["digest"] = digest
                if (cmd, digest) not in self.verdicts:
                    self.verdicts[cmd, digest] = output_gate(cmd, text)
                fails += self.verdicts[cmd, digest]
                first = self.first_digest.setdefault(cmd, digest)
                if digest != first:
                    fails.append("output digest differs from the first repeat")
        if out.exists():
            out.unlink()
        op["failures"] = fails
        return op

    def run_job(self, commands, trace):
        return {"traced": trace, "ops": [self.run_op(c, trace) for c in commands]}


# --------------------------------------------------------------- metrics

def summary(values):
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def scaled(op, key):
    """op[key] in seconds at the reference speed, from the median of the
    calibration loops timed in the same process.  This takes out most of
    the slow and fast phases of a shared machine."""
    return op[key] * (CAL_REF_S / statistics.median(op["cal_s"])) ** CAL_EXPONENT


def job_s(job):
    return sum(scaled(op, "main_s") for op in job["ops"])


def job_trials(job):
    return sum(op["trials"] for op in job["ops"])


def end_to_end(jobs, probes):
    """probes: the untraced processes' reports, each with import_s and cal_s."""
    ops = [op for job in jobs for op in job["ops"]]
    failed = sum(1 for op in ops if op["failures"])
    complete = [j for j in jobs if all("main_s" in op for op in j["ops"])]
    by_command = {}
    for op in ops:
        if "main_s" in op:
            by_command.setdefault(op["command"], []).append(scaled(op, "main_s"))
    return {
        "setup_s": (statistics.median(scaled(p, "import_s") for p in probes), "s"),
        # One pass through the job's commands, each at its median.
        "job_s": (sum(statistics.median(v) for v in by_command.values()), "s"),
        "peak_rss_mib": (statistics.median(
            max(op["rss_mib"] for op in j["ops"]) for j in complete), "MiB"),
        "output_mb": (statistics.fmean(
            sum(op.get("out_bytes", 0) for op in j["ops"]) / 1e6 for j in complete), "MB"),
        "ops_ok_share": ((len(ops) - failed) / len(ops), "share"),
    }


def merge_traces(job):
    """Sum one job's counters over its processes (max for max_ counts)."""
    stats, extra = {}, {}
    for op in job["ops"]:
        for name, (calls, total, self_s) in op.get("stats", {}).items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, counts in op.get("extra", {}).items():
            acc = extra.setdefault(name, {})
            for key, value in counts.items():
                acc[key] = max(acc.get(key, 0), value) if key.startswith("max_") \
                    else acc.get(key, 0) + value
    return stats, extra


def layer_value(stats, extra, trials, traced, field, per, unit):
    if field in STAT_FIELDS:
        value = stats.get(traced, [0, 0.0, 0.0])[STAT_FIELDS[field]]
    else:
        value = extra.get(traced, {}).get(field, 0)
    if per == "trial":
        value = value / trials if trials else 0.0
    return value * 1e6 if unit == "us" else value


def per_layer(jobs):
    traced = [j for j in jobs if j["traced"] and all("main_s" in op for op in j["ops"])]
    plain = [j for j in jobs if not j["traced"] and all("main_s" in op for op in j["ops"])]
    metrics = {}
    merged = [(merge_traces(j), job_trials(j)) for j in traced]
    for name, unit, traced_name, field, per in LAYER_METRICS:
        values = [layer_value(s, e, n, traced_name, field, per, unit)
                  for (s, e), n in merged]
        metrics[name] = (statistics.median(values) if values else 0.0, unit)

    def trials_per_s(group):
        rates = [job_trials(j) / job_s(j) for j in group]
        return statistics.median(rates) if rates else 0.0

    metrics["tracing.traced_trials_per_s"] = (trials_per_s(traced), "1/s")
    metrics["tracing.untraced_trials_per_s"] = (trials_per_s(plain), "1/s")
    overhead = 0.0
    if traced and plain:
        overhead = (statistics.median(job_s(j) for j in traced)
                    / statistics.median(job_s(j) for j in plain) - 1.0)
    metrics["tracing.overhead_share"] = (overhead, "share")
    return metrics


def per_command(jobs):
    """The untraced per-command figures: wall time, RSS, output size and,
    for simulate, trials per second of main() (output write included)."""
    rows = {}
    for job in jobs:
        if job["traced"]:
            continue
        for op in job["ops"]:
            if "main_s" in op:
                rows.setdefault(op["command"], []).append(op)
    table = {}
    for command, ops in rows.items():
        row = {
            "wall_s": summary([op["main_s"] for op in ops]),
            "rss_mib": summary([op["rss_mib"] for op in ops]),
            "output_mb": summary([op.get("out_bytes", 0) / 1e6 for op in ops]),
        }
        if ops[0]["trials"]:
            row["trials_per_s"] = summary([op["trials"] / op["main_s"] for op in ops])
        table[command] = row
    return table


# ------------------------------------------------------------ provenance

def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(load_at_start):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "qid_threads_set_in_env": "QID_THREADS" in os.environ,
        "qid_threads_in_children": "QID_THREADS" in child_env(),
        "git_sha": git_sha(),
        "loadavg_at_start": load_at_start,
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return args


def measure(runner, workload, seed, seconds, trace):
    """Closed loop: jobs back to back for `seconds`, starting no job that
    the previous one's duration says would end after the deadline (but at
    least one).  The seed fixes the simulate seed and each job's command
    order."""
    commands = workload.commands(seed)
    order = random.Random(seed)
    deadline = time.perf_counter() + seconds
    jobs = []
    last = 0.0
    while not jobs or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        job_commands = order.sample(commands, len(commands))
        if trace:
            jobs.append(runner.run_job(job_commands, False))
        jobs.append(runner.run_job(job_commands, trace))
        last = time.perf_counter() - started
    return jobs


def _terminate(signum, frame):
    # Raised inside subprocess.run, which then kills and waits for the child.
    raise SystemExit(128 + signum)


def main(argv=None):
    limit = time.perf_counter() + RUN_LIMIT_S
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "quditid" / "cli.py").is_file():
        print(f"error: no quditid sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir, limit)
        started = time.perf_counter()
        jobs = measure(runner, workload, args.seed, args.seconds, bool(args.trace))
        measured_s = time.perf_counter() - started
        probes = [op for j in jobs for op in j["ops"]
                  if "import_s" in op and not op["traced"]]
        setup_fails = []
        while len(probes) < MIN_SETUP_SAMPLES and not setup_fails:
            report, setup_fails = spawn(workdir, f"setup{len(probes)}", False, [], limit)
            if report is not None:
                probes.append(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for j in jobs for op in j["ops"]]
    failed = sum(1 for op in ops if op["failures"]) + bool(setup_fails)
    attempted = len(ops) + bool(setup_fails)
    if not probes or not any(all("main_s" in op for op in j["ops"]) for j in jobs):
        print("error: no operation completed; nothing to report", file=sys.stderr)
        return 1
    metrics = per_layer(jobs) if args.trace else end_to_end(jobs, probes)
    prov = provenance(load_at_start)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": measured_s,
        "closed_loop": "one client, one fresh process per command, in sequence",
        "provenance": prov,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_share": failed / attempted,
        "import_s": summary([p["import_s"] for p in probes]),
        "cal_s": summary([c for p in probes for c in p["cal_s"]]),
        "cal_ref_s": CAL_REF_S,
        "setup_failures": setup_fails,
        "per_command": per_command(jobs),
        "metrics": metrics,
        "jobs": jobs,
    }, indent=1))

    for op in ops:
        for failure in op["failures"]:
            print(f"FAILED {op['command']}: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"results: {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
