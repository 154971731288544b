"""Optimal unambiguous identification of unknown pure qudit states.

The register holds one probe qudit and d reference qudits, each of
dimension d.  This package constructs the measurement that identifies
which reference the probe matches without ever misidentifying it,
verifies its algebra (positivity, zero cross-talk, spectra,
closed-form success probability), re-derives the optimal element scale
in an independent abstract representation, and simulates the experiment
with reproducible per-trial random streams.
"""

from .analytics import (
    ConfusionMatrix,
    closed_form_success,
    confusion,
    success_probability,
    verify_report,
)
from .detection import (
    LowRankPovmElement,
    Povm,
    build_detection_core,
    build_povm,
    build_povm_vector,
    overlap_with_product,
    povm_from_dict,
    povm_to_dict,
)
from .montecarlo import (
    INCONCLUSIVE,
    ExperimentReport,
    run_experiment,
    trial_batches,
)
from .state_ops import (
    HermitianOperator,
    build_rho,
    haar_average_check,
)
from .sym_optimizer import (
    SymmetricFamily,
    build_symmetric_family,
    frame_operator,
    optimal_weight_eigen,
    optimal_weight_grid,
)
from .tensor_core import (
    StateVector,
    encode_index,
    haar_state,
    inner_product,
    product_state,
    state_from_dict,
    state_to_dict,
    total_dim,
)

__version__ = "0.1.0"

__all__ = [
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
    "povm_from_dict",
    "povm_to_dict",
    "product_state",
    "run_experiment",
    "state_from_dict",
    "state_to_dict",
    "success_probability",
    "total_dim",
    "trial_batches",
    "verify_report",
]
