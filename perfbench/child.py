"""One benchmark operation: a fresh interpreter that imports quditid and runs
one CLI command.

    python3 perfbench/child.py REPORT TRACE [CLI-ARGS...]

Times `import quditid` (numpy and scipy included) as set-up, then calls
`quditid.cli.main(CLI-ARGS)` and writes a JSON report to REPORT: exit code,
import and main wall times, peak RSS, and, with TRACE=1, the per-layer
counters and spans recorded by `Tracer`.  Without CLI-ARGS it only times
the import.

Before the import it also times a fixed pure-Python loop (`calibrate`),
which touches nothing of quditid, so the driver can scale wall times by the
speed the shared machine gave this process.

Tracing wraps the module-level names each layer calls through, in this
process only; the package's own files are not changed.  Per-trial names
are kept as counters (calls, total and self time); chunk-level calls and
whole commands are also kept as spans with a parent link.
"""

import json
import os
import resource
import sys
import time
import traceback

_T0 = time.perf_counter()  # origin of span start and end times

# Exit code recorded when main() raises instead of returning one.
RC_EXCEPTION = 99
CAL_SLICES = 3
CAL_ITERATIONS = 25_000


def calibrate():
    """Seconds for a fixed pure-Python loop (float formatting, dict inserts,
    integer arithmetic): the speed the machine gives this process now."""
    start = time.perf_counter()
    table = {}
    for i in range(CAL_ITERATIONS):
        table[format(i * 0.7071067811865476, ".17g")] = i * i % 7
    return time.perf_counter() - start


class Tracer:
    """Counters and spans for wrapped callables.

    stats[name] = [calls, total_s, self_s]; self time is the call's
    duration minus that of traced calls made inside it.  extra[name] holds
    counts taken at the same boundary (matrices, bytes, dimensions).
    """

    def __init__(self):
        self.stats = {}
        self.extra = {}
        self.spans = []
        self._stack = []  # [child_s] per open traced call
        self._span_ids = []  # ids of open spans, innermost last

    def add(self, name, key, value):
        """Accumulate a count; keys starting with max_ keep the largest value."""
        counts = self.extra.setdefault(name, {})
        if key.startswith("max_"):
            counts[key] = max(counts.get(key, 0), value)
        else:
            counts[key] = counts.get(key, 0) + value

    def call(self, name, fn, args, kwargs, span):
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        if span:
            span_id = len(self.spans)
            parent = self._span_ids[-1] if self._span_ids else None
            self.spans.append(None)
            self._span_ids.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][0] += dur
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame[0]
            if span:
                self._span_ids.pop()
                self.spans[span_id] = {
                    "id": span_id, "parent": parent, "name": name,
                    "start": start - _T0, "end": end - _T0,
                }

    def wrap(self, name, fn, span=True):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, span)

        return traced


def _caller(depth=2):
    frame = sys._getframe(depth)
    return frame.f_globals.get("__name__"), frame.f_code.co_name


def install(tracer):
    """Wrap the names each layer calls through.

    A module that imported a function by name holds its own reference, so
    the wrapper goes on the importing module's attribute (for example
    quditid.montecarlo.haar_state).  numpy's det and eigvalsh are shared by
    every caller, so their wrappers attribute a call by its calling frame
    and pass the others through untraced.
    """
    import numpy as np

    from quditid import analytics, cli, detection, jsonio, montecarlo, state_ops

    def patch(owner, attr, name, span=True):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), span))

    patch(cli, "run_experiment", "montecarlo.run_experiment")
    patch(montecarlo, "trial_stream", "montecarlo.trial_stream", span=False)
    patch(montecarlo, "haar_state", "tensor_core.haar_state", span=False)
    patch(jsonio, "format_float", "jsonio.format_float", span=False)
    patch(cli, "verify_report", "analytics.verify_report")
    patch(analytics, "confusion", "analytics.confusion")
    patch(analytics, "success_probability", "analytics.success_probability")
    patch(analytics, "build_rho", "state_ops.build_rho")
    patch(state_ops.HermitianOperator, "to_dense", "state_ops.to_dense")
    patch(cli, "build_povm", "detection.build_povm")
    patch(analytics, "build_povm", "detection.build_povm")
    patch(cli, "povm_to_dict", "detection.povm_to_dict")
    patch(detection, "state_to_dict", "tensor_core.state_to_dict")
    patch(cli, "optimal_weight_grid", "sym_optimizer.optimal_weight_grid")

    dumps = jsonio.dumps

    def traced_dumps(*args, **kwargs):
        text = tracer.call("jsonio.dumps", dumps, args, kwargs, True)
        tracer.add("jsonio.dumps", "bytes_out", len(text.encode("utf-8")))
        return text

    jsonio.dumps = traced_dumps

    det = np.linalg.det

    def traced_det(a, *args, **kwargs):
        if _caller() != ("quditid.montecarlo", "_probs_batch"):
            return det(a, *args, **kwargs)
        a = np.asarray(a)
        tracer.add("montecarlo.det", "matrices", a.size // (a.shape[-1] * a.shape[-2]))
        return tracer.call("montecarlo.det", det, (a,) + args, kwargs, False)

    np.linalg.det = traced_det

    eigvalsh = np.linalg.eigvalsh

    def traced_eigvalsh(a, *args, **kwargs):
        module, func = _caller()
        if module == "quditid.analytics":
            a = np.asarray(a)
            n = a.shape[-1]
            tracer.add("analytics.eigvalsh", "max_dim", n)
            # Input bytes computed from the array shape, not measured traffic.
            tracer.add("analytics.eigvalsh", "bytes_computed", a.size * a.itemsize)
            return tracer.call("analytics.eigvalsh", eigvalsh, (a,) + args, kwargs, True)
        if (module, func) == ("quditid.sym_optimizer", "consider"):
            tracer.add("sym_optimizer.grid", "candidates", len(a))
        return eigvalsh(a, *args, **kwargs)

    np.linalg.eigvalsh = traced_eigvalsh


def main(argv):
    report_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    cal_s = [calibrate() for _ in range(CAL_SLICES)]
    t_start = time.perf_counter()
    import quditid
    import quditid.cli

    report = {
        "import_s": time.perf_counter() - t_start,
        "quditid_file": os.path.abspath(quditid.__file__),
    }
    if not cli_args:
        report["cal_s"] = cal_s
        _write(report_path, report)
        return 0
    tracer = None
    main_fn = quditid.cli.main
    if trace:
        tracer = Tracer()
        install(tracer)
        main_fn = tracer.wrap("cli.main", main_fn)
    t_main = time.perf_counter()
    try:
        rc = main_fn(cli_args)
    except Exception:
        traceback.print_exc()
        rc = RC_EXCEPTION
    report["main_s"] = time.perf_counter() - t_main
    report["rc"] = rc
    report["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["cal_s"] = cal_s + [calibrate() for _ in range(CAL_SLICES)]
    if tracer is not None:
        report["stats"] = tracer.stats
        report["extra"] = tracer.extra
        report["spans"] = tracer.spans
    _write(report_path, report)
    return 0


def _write(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
