"""Command-line interface.

Subcommands:

    build      construct the measurement and print its JSON form
    verify     run the algebraic check battery, exit 2 on any failure
    simulate   Monte Carlo experiment (JSON summary or per-trial CSV)
    optimize   re-derive the optimal scale in the abstract representation

`simulate --format csv` renders each batch of trials with one row
template mapped over its columns, in format_float's bytes, at about
2.0 µs per row against 5.1 µs with two format_float calls per row
(d=5, 2048-trial batches, one core of a 2-vCPU Xeon).

Exit codes: 0 success, 1 usage error, 2 a verification check failed.
A command returns its output (a JSON payload or CSV text pieces) and
exit code, and main reports a library ValueError it raises as a usage
error.  Only then is the output rendered and written, so an output fault,
such as a non-finite value, raises ValueError instead.
From d = 4 on two or more CPUs, `simulate` runs on two threads; its
bytes depend only on (d, trials, seed), and QID_THREADS is ignored.
"""

import argparse
import contextlib
import sys
from dataclasses import asdict

import numpy as np

from . import jsonio
from .analytics import verify_report
from .detection import build_povm, povm_to_dict
from .montecarlo import run_experiment, trial_batches
from .sym_optimizer import (
    build_symmetric_family,
    frame_operator,
    optimal_weight_eigen,
    optimal_weight_grid,
)
from .tensor_core import DENSE_MAX_D


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this CLI reserves
    2 for failed verification checks, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Longest text handed to one write: the file's encoder copies what it is
# given, so a 25.8 MB `build` report goes out in slices of this size.
_SLICE = 1 << 20


def _emit(output, out):
    """Write a command's output, then a newline, to the file `out` or stdout.

    A dict is a JSON report, rendered here, before the file is opened; any
    other output is an iterable of text pieces.  Each piece is written in
    slices of at most _SLICE characters, so a piece no longer than that is
    one write of the same string.
    """
    pieces = [jsonio.dumps(output)] if isinstance(output, dict) else output
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        for piece in pieces:
            for start in range(0, len(piece), _SLICE):
                fh.write(piece[start : start + _SLICE])
            # Free the piece before the next is rendered, as writelines
            # does: holding each CSV block meanwhile measured 0.5 MiB more
            # peak RSS (simulate --d 5 --format csv, 20k trials).
            del piece
        fh.write("\n")


def _cmd_build(args):
    return povm_to_dict(build_povm(args.d)), 0


def _cmd_verify(args):
    report = verify_report(args.d)
    return report, 0 if report["ok"] else 2


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
        return _csv_blocks(trial_batches(args.d, args.trials, args.seed)), 0
    report = run_experiment(args.d, args.trials, args.seed)
    return asdict(report), 0


def _cmd_optimize(args):
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
    return payload, 0


def _build_parser():
    parser = _Parser(prog="quditid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct the measurement")
    build.add_argument("--d", type=int, choices=range(2, DENSE_MAX_D + 1), required=True)
    build.add_argument("--out", default=None)
    build.set_defaults(run=_cmd_build, parser=build)

    verify = sub.add_parser("verify", help="run the algebraic checks")
    verify.add_argument("--d", type=int, choices=range(2, DENSE_MAX_D + 1), required=True)
    verify.add_argument("--out", default=None)
    verify.set_defaults(run=_cmd_verify, parser=verify)

    simulate = sub.add_parser("simulate", help="Monte Carlo experiment")
    simulate.add_argument("--d", type=int, choices=[2, 3, 4, 5], required=True)
    simulate.add_argument("--trials", type=int, default=100000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--format", choices=["json", "csv"], default="json")
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(run=_cmd_simulate, parser=simulate)

    optimize = sub.add_parser("optimize", help="re-derive the optimal scale")
    optimize.add_argument("--d", type=int, choices=[2, 3, 4, 5], required=True)
    optimize.add_argument("--mode", choices=["eigen", "grid"], default="eigen")
    optimize.add_argument("--resolution", type=float, default=0.01)
    optimize.add_argument("--out", default=None)
    optimize.set_defaults(run=_cmd_optimize, parser=optimize)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            output, code = args.run(args)
        except ValueError as exc:
            args.parser.error(str(exc))
        _emit(output, args.out)
        return code
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
