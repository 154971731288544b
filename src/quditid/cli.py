"""Command-line interface.

Subcommands:

    build      construct the measurement and print its JSON form
    verify     run the algebraic check battery, exit 2 on any failure
    simulate   Monte Carlo experiment (JSON summary or per-trial CSV)
    optimize   re-derive the optimal scale in the abstract representation

This module parses, dispatches, refuses and writes; how a number is
written (the JSON reports and the `simulate` CSV rows) is jsonio's rule.

Exit codes: 0 success, 1 usage error, 2 a verification check failed.
A command returns its output (a JSON payload or CSV text pieces) and
exit code, and main reports a library ValueError it raises as a usage
error.  Only then is the output rendered and written, so an output fault,
such as a non-finite value, raises ValueError instead.
The bytes `simulate` writes depend only on (d, trials, seed);
QID_THREADS is ignored.
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


# Characters per write.  The text goes out in blocks of exactly _SLICE
# characters (the last one shorter), each cut from and joined across the
# rendered pieces, so the whole text is never joined into one string.  At
# 64 KiB a block and its UTF-8 copy each stay below glibc's 128 KiB mmap
# threshold, so every write reuses heap memory; 1 MiB slices of the
# `build --d 5` text were mapped, faulted and unmapped per slice.
_SLICE = 1 << 16


def _emit(output, out, error):
    """Write a command's output, then a newline, to the file `out` or stdout.

    A dict is a JSON report, rendered here into its list of pieces before
    the file is opened, so an output fault raises before any file exists;
    any other output is an iterable of text pieces.  An OSError from
    opening `out` goes to `error`, the parser's usage-error exit.

    Every write but the last is exactly _SLICE characters.  `build --d 5`
    renders 6,212 pieces of 25.8 MB, one per nonzero row or zero run.  To
    a file, they took 21 ms in blocks, 37 ms when joined first (a fresh
    mapping of the whole text, 6,300 minor faults) and 36 ms one piece at
    a time (8 KiB writes): medians of 7 fresh processes, heap warmed as in
    perfbench/child.py, 2-vCPU Xeon.
    """
    pieces = jsonio.render(output) if isinstance(output, dict) else output
    try:
        sink = open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        error(f"cannot open --out: {exc}")
    with sink as fh:
        block, size = [], 0  # the next write's parts and their length
        try:
            for piece in pieces:
                start = 0
                while len(piece) - start >= _SLICE - size:
                    end = start + _SLICE - size
                    block.append(piece[start:end])
                    fh.write("".join(block))
                    block, size, start = [], 0, end
                block.append(piece[start:])  # the piece itself when start is 0
                size += len(piece) - start
                # Free the piece before the next is rendered, as writelines
                # does: holding each CSV batch meanwhile measured 0.5 MiB
                # more peak RSS (simulate --d 5 --format csv, 20k trials).
                # The block keeps fewer than _SLICE characters of it.
                del piece
            block.append("\n")
        finally:
            # Every piece rendered is written, also when rendering the next
            # one fails, so a failed CSV run leaves its finished batches.
            fh.write("".join(block))


def _cmd_build(args):
    return povm_to_dict(build_povm(args.d)), 0


def _cmd_verify(args):
    report = verify_report(args.d)
    return report, 0 if report["ok"] else 2


def _cmd_simulate(args):
    if args.format == "csv":
        return jsonio.csv_blocks(trial_batches(args.d, args.trials, args.seed)), 0
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
        _emit(output, args.out, args.parser.error)
        return code
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
