import dataclasses
import inspect
import json
import os
import subprocess
import sys

import pytest

import quditid
from quditid import analytics, detection, montecarlo, state_ops, sym_optimizer, tensor_core
from quditid.analytics import ConfusionMatrix
from quditid.detection import LowRankPovmElement, Povm
from quditid.montecarlo import ExperimentReport
from quditid.sym_optimizer import SymmetricFamily
from quditid.tensor_core import StateVector

PUBLIC_NAMES = [
    "INCONCLUSIVE",
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


# Names once exported that only tests called, the JSON readers that no
# command used, HermitianOperator, whose constructor only respelled
# build_rho, ConfusionMatrix and ExperimentReport, whose constructors
# were a second way to make what confusion and run_experiment compute,
# StateVector and SymmetricFamily, whose constructors were a second
# way to make the states and the family that product_state,
# build_povm_vector and build_symmetric_family build, and
# LowRankPovmElement and Povm, whose constructors were a second way to
# make the measurement build_povm builds; each is gone from the
# package's exports.
REMOVED_NAMES = [
    "ConfusionMatrix",
    "ExperimentReport",
    "HermitianOperator",
    "LowRankPovmElement",
    "Povm",
    "StateVector",
    "SymmetricFamily",
    "TrialRecord",
    "build_sym_projector",
    "outcome_probabilities",
    "povm_from_dict",
    "run_trial",
    "state_from_dict",
    "trial_stream",
]


# The parameter names of every public function, so that adding or
# dropping a parameter is a visible edit here.
SIGNATURES = {
    "build_detection_core": ["d", "n"],
    "build_povm": ["d"],
    "build_povm_vector": ["d", "n", "k"],
    "build_rho": ["d", "n"],
    "build_symmetric_family": ["d"],
    "closed_form_success": ["d"],
    "confusion": ["povm", "d"],
    "encode_index": ["digits", "d"],
    "frame_operator": ["fam", "weights"],
    "haar_average_check": ["d", "n", "samples", "seed"],
    "haar_state": ["d", "rng"],
    "inner_product": ["a", "b"],
    "optimal_weight_eigen": ["fam"],
    "optimal_weight_grid": ["fam", "resolution"],
    "overlap_with_product": ["d", "n", "factors"],
    "povm_to_dict": ["povm"],
    "product_state": ["factors"],
    "run_experiment": ["d", "trials", "seed"],
    "state_to_dict": ["state"],
    "success_probability": ["povm", "d"],
    "total_dim": ["d"],
    "trial_batches": ["d", "trials", "seed"],
    "verify_report": ["d"],
}


def test_public_names_are_pinned_and_resolve():
    assert quditid.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(quditid, name) is not None
    for name in REMOVED_NAMES:
        assert not hasattr(quditid, name)
    assert sorted(SIGNATURES) == [name for name in PUBLIC_NAMES if name != "INCONCLUSIVE"]


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_public_signatures_are_pinned(name):
    """Every public name but the INCONCLUSIVE constant is a function, and
    each takes exactly the parameters SIGNATURES lists."""
    function = getattr(quditid, name)
    assert inspect.isfunction(function)
    assert list(inspect.signature(function).parameters) == SIGNATURES[name]


# The fields of every record the package's makers return, so that a field
# cannot be added or dropped without a visible edit here.  None but
# HermitianOperator and StateVector runs code when it is made: each
# record's maker guarantees what the record holds.
# test_averaged_state_holds_only_d_and_n pins HermitianOperator.
RECORDS = {
    ConfusionMatrix: ["d", "entries"],
    ExperimentReport: [
        "d", "trials", "seed", "success_count", "error_count", "inconclusive_count",
        "success_rate", "error_rate", "inconclusive_rate", "ci99_half_width", "wall_time_s",
    ],
    LowRankPovmElement: ["d", "label", "scale", "signs"],
    Povm: ["d", "elements"],
    StateVector: ["d", "amps"],
    SymmetricFamily: ["d", "vectors"],
}


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_fields_are_pinned(record):
    assert [f.name for f in dataclasses.fields(record)] == RECORDS[record]
    assert hasattr(record, "__post_init__") is (record is StateVector)


def test_every_record_is_pinned():
    """Each dataclass defined in a package module is in RECORDS, but for
    HermitianOperator."""
    found = {
        obj
        for module in (analytics, detection, montecarlo, state_ops, sym_optimizer, tensor_core)
        for obj in vars(module).values()
        if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
    }
    assert found == set(RECORDS) | {state_ops.HermitianOperator}


def test_hermitian_operator_public_methods_are_apply_and_to_dense():
    """apply holds its vector to the finite-number rule and to_dense takes
    no input; the digit swap behind both stays private, so no unchecked
    entry is public."""
    cls = state_ops.HermitianOperator
    public = sorted(
        name for name in dir(cls) if not name.startswith("_") and callable(getattr(cls, name))
    )
    assert public == ["apply", "to_dense"]
    assert not hasattr(cls, "swap")


def test_averaged_state_holds_only_d_and_n():
    """build_rho's operator is rho_n itself: no free coefficient to set."""
    assert [f.name for f in dataclasses.fields(state_ops.HermitianOperator)] == ["d", "n"]
    assert type(quditid.build_rho(2, 1)) is state_ops.HermitianOperator


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
    """The CLI imports neither concurrent.futures nor logging, which
    would add about 6 ms of set-up to every CLI run."""
    code = (
        "import json, sys, quditid.cli; "
        "print(json.dumps([m for m in ('concurrent.futures', 'logging') "
        "if m in sys.modules]))"
    )
    assert json.loads(_run_fresh(code)) == []


@pytest.mark.parametrize(
    "args",
    [["--d", "3", "--trials", "100"], ["--d", "5", "--trials", "100", "--format", "csv"]],
    ids=["d3-json", "d5-csv"],
)
def test_simulation_loads_no_fractions_decimal_or_numpy_random(args):
    """A simulate run, in either output format, stays off the
    exact-arithmetic and numpy.random imports: fractions (with decimal)
    loads only when verify's traces need it, and the trial words come
    from montecarlo's own Philox.  Each would add import time and memory
    to every simulate process."""
    code = (
        "import contextlib, io, json, sys, quditid.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = quditid.cli.main(['simulate', *{args!r}])\n"
        "print(json.dumps([code, [m for m in ('fractions', 'decimal', 'numpy.random') "
        "if m in sys.modules]]))"
    )
    assert json.loads(_run_fresh(code)) == [0, []]


# Layers the benchmark's traced algebra run (verify, build, optimize) records.
ALGEBRA_LAYERS = [
    "analytics.verify_report",
    "detection.build_povm",
    "detection.povm_to_dict",
    "state_ops.build_rho",
    "sym_optimizer.optimal_weight_grid",
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
print(json.dumps({{"codes": codes, "layers": sorted(tracer.stats)}}))
"""
    # The tracer counts grid candidates from eigvalsh calls made inside a
    # function named consider.  The grid search makes no eigensolve, so
    # that count stays 0 and is not read here.  It also wraps jsonio.dumps,
    # which the CLI no longer calls: reports are written from
    # jsonio.render's pieces, so that layer is not read either.
    result = json.loads(_run_fresh(code))
    assert result["codes"] == [0, 0, 0]
    assert set(ALGEBRA_LAYERS) <= set(result["layers"])
    # povm_to_dict hands jsonio sign rows, so `build` no longer calls the
    # wrapped tensor_core.state_to_dict, and that layer reads 0.
    assert "tensor_core.state_to_dict" not in result["layers"]


def test_benchmark_tracer_sees_the_simulation():
    """The traced simulate runs record the run_experiment layer (wrapped
    on cli).  The tracer counts determinants only from np.linalg.det
    calls made in montecarlo._probs_batch, which computes |det R|² by
    Gram-Schmidt with no such call, so the montecarlo.det layer and its
    matrix count stay empty."""
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
                  "counted": sorted(tracer.extra)}}))
"""
    result = json.loads(_run_fresh(code))
    assert result["codes"] == [0, 0]
    assert "montecarlo.run_experiment" in result["layers"]
    assert "montecarlo.det" not in result["layers"]
    assert "montecarlo.det" not in result["counted"]
