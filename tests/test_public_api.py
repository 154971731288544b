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
    "TrialRecord",
    "build_detection_core",
    "build_povm",
    "build_povm_vector",
    "build_rho",
    "build_sym_projector",
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
    "outcome_probabilities",
    "overlap_with_product",
    "povm_from_dict",
    "povm_to_dict",
    "product_state",
    "run_experiment",
    "run_trial",
    "state_from_dict",
    "state_to_dict",
    "success_probability",
    "total_dim",
    "trial_batches",
    "trial_stream",
    "verify_report",
]


def test_public_names_are_pinned_and_resolve():
    assert quditid.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(quditid, name) is not None


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: a fresh interpreter that
    imports the package has no scipy module loaded."""
    src = os.path.dirname(os.path.dirname(quditid.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, sys, quditid; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == []
