import json
import os
import subprocess
import sys

import quditid

PUBLIC_NAMES = [
    "ConfusionMatrix",
    "ExperimentReport",
    "HermitianOperator",
    "INCONCLUSIVE",
    "LowRankPovmElement",
    "Povm",
    "StateVector",
    "SymmetricFamily",
    "build_detection_core",
    "build_povm",
    "build_povm_vector",
    "build_rho",
    "build_symmetric_family",
    "closed_form_success",
    "confusion",
    "encode_index",
    "frame_operator",
    "haar_average_check",
    "haar_state",
    "inner_product",
    "optimal_weight_eigen",
    "optimal_weight_grid",
    "overlap_with_product",
    "povm_to_dict",
    "product_state",
    "run_experiment",
    "state_to_dict",
    "success_probability",
    "total_dim",
    "trial_batches",
    "verify_report",
]


# Names once exported that only tests called, and the JSON readers that no
# command used; each is gone from the package.
REMOVED_NAMES = [
    "TrialRecord",
    "build_sym_projector",
    "outcome_probabilities",
    "povm_from_dict",
    "run_trial",
    "state_from_dict",
    "trial_stream",
]


def test_public_names_are_pinned_and_resolve():
    assert quditid.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(quditid, name) is not None
    for name in REMOVED_NAMES:
        assert not hasattr(quditid, name)


def _run_fresh(code):
    """stdout of `code` run in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(quditid.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: a fresh interpreter that
    imports the package has no scipy module loaded."""
    code = (
        "import json, sys, quditid; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))))"
    )
    assert json.loads(_run_fresh(code)) == []


def test_cli_import_loads_no_futures_or_logging():
    """The simulation's threads use threading alone: concurrent.futures
    would import logging, about 6 ms more set-up in every CLI run."""
    code = (
        "import json, sys, quditid.cli; "
        "print(json.dumps([m for m in ('concurrent.futures', 'logging') "
        "if m in sys.modules]))"
    )
    assert json.loads(_run_fresh(code)) == []


# Layers the benchmark's traced algebra run (verify, build, optimize) records.
ALGEBRA_LAYERS = [
    "analytics.verify_report",
    "detection.build_povm",
    "detection.povm_to_dict",
    "jsonio.dumps",
    "state_ops.build_rho",
    "sym_optimizer.optimal_weight_grid",
    "tensor_core.state_to_dict",
]


def test_benchmark_tracer_installs():
    """perfbench/child.py wraps package functions by module and name.  Its
    install() must find every one of them, and the algebra commands must
    still call through the wrapped names, or the traced benchmark run
    breaks or loses its layers.  Run in a fresh interpreter because
    install() also wraps numpy functions."""
    child = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "child.py")
    code = f"""
import contextlib, importlib.util, io, json
spec = importlib.util.spec_from_file_location("perfbench_child", {child!r})
child = importlib.util.module_from_spec(spec)
spec.loader.exec_module(child)
tracer = child.Tracer()
child.install(tracer)
from quditid import cli
argvs = [["verify", "--d", "2"], ["build", "--d", "2"],
         ["optimize", "--d", "2", "--mode", "grid", "--resolution", "0.1"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(json.dumps({{"codes": codes, "layers": sorted(tracer.stats),
                  "candidates": tracer.extra["sym_optimizer.grid"]["candidates"]}}))
"""
    result = json.loads(_run_fresh(code))
    assert result["codes"] == [0, 0, 0]
    assert set(ALGEBRA_LAYERS) <= set(result["layers"])
    # The grid's candidate count is read from eigvalsh calls inside a
    # function named consider; a rename would zero it silently.
    assert result["candidates"] > 0


def test_benchmark_tracer_sees_the_simulation():
    """The traced simulate runs record the run_experiment layer (wrapped
    on cli) and count every determinant, which the tracer attributes only
    when np.linalg.det is called from montecarlo._probs_batch; renaming
    or inlining that function would zero the layer silently."""
    child = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "child.py")
    code = f"""
import contextlib, importlib.util, io, json
spec = importlib.util.spec_from_file_location("perfbench_child", {child!r})
child = importlib.util.module_from_spec(spec)
spec.loader.exec_module(child)
tracer = child.Tracer()
child.install(tracer)
from quditid import cli
argvs = [["simulate", "--d", "2", "--trials", "3000"],
         ["simulate", "--d", "3", "--trials", "100", "--format", "csv"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(json.dumps({{"codes": codes, "layers": sorted(tracer.stats),
                  "matrices": tracer.extra["montecarlo.det"]["matrices"]}}))
"""
    result = json.loads(_run_fresh(code))
    assert result["codes"] == [0, 0]
    assert "montecarlo.run_experiment" in result["layers"]
    assert result["matrices"] == 3100
