"""Scalar diagnostics of the identification measurement: the confusion
matrix, the overall success probability, and a bundled verification
report for the CLI.

Every trace is exact.  Element m's vectors are S_k / sqrt(d!) for its
integer sign matrix S, with S S^T = d! I as build_povm guarantees, and
rho_n = c (I + SWAP_0n) / 2 with c = state_ops.rho_prefactor(d), so with
the integers d! q_k = S_k . SWAP_0n(S_k) from build_rho's digit swap,

    Tr(rho_n Pi_m) = s_m c / 2 * sum_k (1 + q_k).

The doubles s_m and c enter by one nearest-double rule (_exact): the
double nearest d/(d+1), or 2/((d+1) d**d), stands for that rational, and
any other double for its own value.  Each float reported is rounded once
from these fractions.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import state_ops
from .detection import _sign_gram, build_povm
from .state_ops import build_rho
from .tensor_core import check_dense_dim, check_dim, total_dim


def closed_form_success(d):
    """Known optimum 1/((d+1) d**(d-1)) for the average success probability."""
    d = check_dim(d)
    return 1.0 / ((d + 1) * d ** (d - 1))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Outcome probabilities per prepared state, built by confusion.

    entries[n-1, m-1] = Tr(rho_n Pi_m) for conclusive outcomes m = 1..d;
    the last column is the inconclusive probability, one minus the
    conclusive entries, since the inconclusive element is I - sum Pi_m.
    Rows sum to one; for the optimal measurement the off-diagonal
    conclusive entries vanish.  entries is a read-only float64 array.
    """

    d: int
    entries: np.ndarray

    def max_offdiagonal(self):
        conclusive = self.entries[:, : self.d]
        off = conclusive[~np.eye(self.d, dtype=bool)]
        return float(np.max(np.abs(off)))


def _exact(x, p, q):
    """The rational a double x stands for, as a Fraction: p/q if x is the
    double nearest p/q, x's own value otherwise."""
    # Imported on first use: fractions pulls in decimal, about 0.5 MiB
    # and 2 ms that every `simulate` run would otherwise pay at import.
    from fractions import Fraction

    return Fraction(p, q) if x == p / q else Fraction(x)


def _traces(povm, d):
    """Exact Tr(rho_n Pi_m) as Fractions, indexed [n-1][m-1]."""
    d = check_dim(d)
    if povm.d != d:
        raise ValueError(f"measurement built for d={povm.d}, asked for d={d}")
    fact = math.factorial(d)
    denominator = 2 * fact / _exact(state_ops.rho_prefactor(d), 2, (d + 1) * d**d)
    traces = []
    for n in range(1, d + 1):
        rho = build_rho(d, n)
        row = []
        for elem in povm.elements:
            cols = elem.signs.T
            swapped = int(np.sum(cols * rho._swap(cols), dtype=np.int64))
            rank = len(elem.signs)
            row.append(_exact(elem.scale, d, d + 1) * (rank * fact + swapped) / denominator)
        traces.append(row)
    return traces


def _success(traces):
    return sum(row[n] for n, row in enumerate(traces)) / len(traces)


def confusion(povm, d):
    """Confusion matrix against the averaged states, each entry rounded
    once from its exact trace (inconclusive: one minus the row sum)."""
    entries = np.array([[*map(float, row), float(1 - sum(row))] for row in _traces(povm, d)])
    entries.setflags(write=False)
    return ConfusionMatrix(povm.d, entries)


def success_probability(povm, d):
    """Average probability of a correct conclusive outcome, equal priors."""
    return float(_success(_traces(povm, d)))


def conclusive_sum_spectrum(d):
    """Exact eigenvalues (ascending) of the summed conclusive elements.

    Within each of the d excitation sectors the d basis vectors have the
    -1/d overlap family as their Gram matrix, whose eigenvalues are 1/d
    (on the sum of the vectors) and (d+1)/d (d-1 times); scaling by
    d/(d+1) gives 1/(d+1) once and 1 repeated d-1 times per sector, and
    zero on everything outside the sectors.  d above DENSE_MAX_D is refused.
    """
    d = check_dense_dim(d)
    return np.concatenate(
        [
            np.zeros(total_dim(d) - d * d),
            np.full(d, 1.0 / (d + 1)),
            np.ones(d * (d - 1)),
        ]
    )


def _is_psd(rows):
    """Whether symmetric `rows` with a Fraction diagonal is PSD, by exact
    LDL^T in place: a negative pivot, or a zero one over a nonzero entry, refutes it."""
    for k, pivot_row in enumerate(rows):
        below = [row for row in rows[k + 1 :] if row[k]]
        if pivot_row[k] < 0 or (pivot_row[k] == 0 and below):
            return False
        for row in below:
            ratio = row[k] / pivot_row[k]
            row[k:] = [x - ratio * y for x, y in zip(row[k:], pivot_row[k:])]
    return True


def verify_report(d):
    """Run the algebraic checks on build_povm(d) and bundle the results.

    Each check is exact, blind to the sign of any one vector (it reads
    only the operators Pi_m), and flags at least one broken measurement
    (tests/test_mutations.py):

    - success_matches_closed_form: success == 1/((d+1) d**(d-1));
    - no_misidentification: every Tr(rho_n Pi_m), m != n, is 0;
    - primal_feasible: I - sum Pi_m >= 0.  sum Pi_m shares its nonzero
      eigenvalues with D_s^(1/2) G D_s^(1/2), for G = S S^T / d! (S the
      stacked sign rows, S S^T from detection._sign_gram) and D_s each
      row's scale as _exact reads it, so this is
      d! D_s^-1 - S S^T >= 0 (Eldar 2003), by _is_psd.

    The report's floats are each rounded once from their exact values;
    "ok" is true when "failed_checks" is empty.  build_povm refuses
    d > DENSE_MAX_D.
    """
    povm = build_povm(d)
    d = povm.d
    traces = _traces(povm, d)
    p_succ = _success(traces)
    max_offdiag = max(abs(t) for n, row in enumerate(traces) for m, t in enumerate(row) if m != n)
    form = (-_sign_gram(np.vstack([elem.signs for elem in povm.elements]))).tolist()
    for i, scale in enumerate(e.scale for e in povm.elements for _ in e.signs):
        form[i][i] += math.factorial(d) / _exact(scale, d, d + 1)
    checks = {
        "success_matches_closed_form": p_succ * (d + 1) * d ** (d - 1) == 1,
        "no_misidentification": max_offdiag == 0,
        "primal_feasible": _is_psd(form),
    }
    failed = sorted(name for name, ok in checks.items() if not ok)
    return {
        "d": d,
        "p_succ": float(p_succ),
        "p_succ_closed_form": closed_form_success(d),
        "max_offdiag": float(max_offdiag),
        "checks": checks,
        "failed_checks": failed,
        "ok": not failed,
    }
