"""Scalar diagnostics of the identification measurement.

Everything here reduces to traces against the averaged density
operators: the confusion matrix, the overall success probability, and a
bundled verification report for the CLI.

Traces against the low-rank conclusive elements are computed as
scale * sum_k <v_k| rho |v_k> — no dense operator products.  Spectral
checks use the d**2 x d**2 Gram matrix of the element vectors, never a
D x D operator.
"""

from dataclasses import dataclass

import numpy as np

from .detection import DENSE_MAX_D, build_povm
from .state_ops import build_rho
from .tensor_core import check_dim, total_dim

# Relative to the closed-form success probability for the success and
# misidentification checks; absolute on the unit-scale Gram entries.
EXACT_TOL = 1e-12
# Absolute on the conclusive spectrum, whose largest eigenvalue is 1.
EIG_TOL = 1e-10


def closed_form_success(d):
    """Known optimum 1/((d+1) d**(d-1)) for the average success probability."""
    d = check_dim(d)
    return 1.0 / ((d + 1) * d ** (d - 1))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Outcome probabilities per prepared state.

    entries[n-1, m-1] = Tr(rho_n Pi_m) for conclusive outcomes m = 1..d;
    the last column is the inconclusive probability, one minus the
    conclusive entries, since the inconclusive element is I - sum Pi_m.
    Rows sum to one; for the optimal measurement the off-diagonal
    conclusive entries vanish.
    """

    d: int
    entries: np.ndarray

    def __post_init__(self):
        d = check_dim(self.d)
        entries = np.array(self.entries, dtype=np.float64)
        if entries.shape != (d, d + 1):
            raise ValueError(f"expected shape {(d, d + 1)}, got {entries.shape}")
        entries.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", entries)

    def diagonal(self):
        return np.diagonal(self.entries[:, : self.d]).copy()

    def max_offdiagonal(self):
        conclusive = self.entries[:, : self.d]
        off = conclusive[~np.eye(self.d, dtype=bool)]
        return float(np.max(np.abs(off)))


def confusion(povm, d):
    """Confusion matrix of the measurement against the averaged states."""
    d = check_dim(d)
    if povm.d != d:
        raise ValueError(f"measurement built for d={povm.d}, asked for d={d}")
    rhos = [build_rho(d, n) for n in range(1, d + 1)]
    entries = np.zeros((d, d + 1))
    for n, rho in enumerate(rhos, start=1):
        for elem in povm.elements:
            acc = 0.0
            for v in elem.vectors:
                acc += float(np.real(np.vdot(v.amps, rho.apply(v.amps))))
            entries[n - 1, elem.label - 1] = elem.scale * acc
        entries[n - 1, d] = 1.0 - entries[n - 1, :d].sum()
    return ConfusionMatrix(d, entries)


def success_probability(povm, d):
    """Average probability of a correct conclusive outcome, equal priors."""
    return float(np.mean(confusion(povm, d).diagonal()))


def _gram(povm):
    """Gram matrix <v_i|v_j> of all element vectors, in element order,
    and the scale that each vector carries."""
    stacked = np.vstack([elem.matrix for elem in povm.elements])
    scales = np.concatenate(
        [np.full(len(elem.vectors), elem.scale) for elem in povm.elements]
    )
    return stacked.conj() @ stacked.T, scales


def _gram_deviation(gram, d):
    """Max deviation of the basis-vector Gram matrix from its target.

    Target: identity within each element, -1/d between same-branch
    vectors of different elements, zero across branches.
    """
    cross = np.eye(d) + (-1.0 / d) * (np.ones((d, d)) - np.eye(d))
    target = np.kron(cross, np.eye(d))
    return float(np.max(np.abs(gram - target)))


def _conclusive_spectrum(gram, scales, dim):
    """All dim eigenvalues (ascending) of the conclusive sum V^H W V.

    V stacks the element vectors and W holds their scales.  The nonzero
    eigenvalues of V^H W V are those of W^1/2 (V V^H) W^1/2, the scaled
    Gram matrix; the rest of the spectrum is zero.
    """
    root = np.sqrt(scales)
    nonzero = np.linalg.eigvalsh(root[:, None] * gram * root[None, :])
    return np.sort(np.concatenate([np.zeros(dim - len(nonzero)), nonzero]))


def conclusive_sum_spectrum(d):
    """Exact eigenvalues (ascending) of the summed conclusive elements.

    Within each of the d excitation sectors the d basis vectors have the
    -1/d overlap family as their Gram matrix, whose eigenvalues are 1/d
    (on the sum of the vectors) and (d+1)/d (d-1 times); scaling by
    d/(d+1) gives 1/(d+1) once and 1 repeated d-1 times per sector, and
    zero on everything outside the sectors.
    """
    d = check_dim(d)
    return np.concatenate(
        [
            np.zeros(total_dim(d) - d * d),
            np.full(d, 1.0 / (d + 1)),
            np.ones(d * (d - 1)),
        ]
    )


def verify_report(d, povm=None):
    """Run the full battery of algebraic checks and bundle the results.

    The checks: the success probability equals the closed form and no
    conclusive outcome fires on a wrong state (both to EXACT_TOL relative
    to the closed form), the inconclusive remainder is positive
    semidefinite, the conclusive sum has its exact spectrum, and the
    element vectors have the Gram structure whose -1/d cross term fixes
    the sign convention.  Each flags at least one broken measurement
    (tests/test_mutations.py).

    Returns a JSON-ready dict; "failed_checks" lists the names of any
    checks that did not hold, and "ok" is their conjunction.  The
    spectral checks are exact eigenproblems on the d**2 x d**2 Gram
    matrix of the element vectors (see _conclusive_spectrum).  Accepts
    d <= DENSE_MAX_D, the largest d whose dense element vectors
    build_povm builds.
    """
    d = check_dim(d)
    if d > DENSE_MAX_D:
        raise ValueError(
            f"verification supports d <= {DENSE_MAX_D}; the element vectors "
            f"for d={d} are stored densely and would not fit"
        )
    if povm is None:
        povm = build_povm(d)
    if povm.d != d:
        raise ValueError(f"measurement built for d={povm.d}, asked for d={d}")

    conf = confusion(povm, d)
    p_succ = float(np.mean(conf.diagonal()))
    p_closed = closed_form_success(d)
    max_offdiag = conf.max_offdiagonal()

    gram, scales = _gram(povm)
    spectrum = _conclusive_spectrum(gram, scales, total_dim(d))
    min_eig_unknown = float(1.0 - spectrum[-1])
    spectrum_dev = float(np.max(np.abs(spectrum - conclusive_sum_spectrum(d))))
    gram_dev = _gram_deviation(gram, d)

    prob_tol = EXACT_TOL * p_closed
    checks = {
        "success_matches_closed_form": abs(p_succ - p_closed) <= prob_tol,
        "no_misidentification": max_offdiag <= prob_tol,
        "inconclusive_psd": min_eig_unknown >= -EIG_TOL,
        "conclusive_spectrum": spectrum_dev <= EIG_TOL,
        "gram_structure": gram_dev <= EXACT_TOL,
    }
    failed = sorted(name for name, ok in checks.items() if not ok)
    return {
        "d": d,
        "p_succ": p_succ,
        "p_succ_closed_form": p_closed,
        "max_offdiag": max_offdiag,
        "min_eig_pi_unknown": min_eig_unknown,
        "conclusive_spectrum_dev": spectrum_dev,
        "gram_max_dev": gram_dev,
        "checks": checks,
        "failed_checks": failed,
        "ok": not failed,
    }
