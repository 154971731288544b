"""Detection states and the optimal identification measurement.

The register is one probe qudit (position 0) followed by d reference
qudits (positions 1..d).  The conclusive outcome "probe matches
reference n" is detected through states that are totally antisymmetric
over the d qudits other than n: any product input whose probe factor
repeats one of the other reference factors is annihilated, which is
exactly the no-misidentification requirement.

Because the detection amplitudes form a Slater determinant, overlaps
with product states reduce to a d x d determinant (`overlap_with_product`)
instead of a contraction over the full d**(d+1)-dimensional space.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .jsonio import SignRows
from .tensor_core import StateVector, _check_factors, _check_index, check_dense_dim, check_dim
# perfbench/child.py binds detection.state_to_dict by name, so it stays a
# module attribute though povm_to_dict no longer calls it.
from .tensor_core import state_to_dict  # noqa: F401


def _sign_matrix(d, n):
    """Element n's read-only (d, d**(d+1)) int8 sign matrix (d and n
    already validated): row k holds the d! nonzero signs of the branch-k
    vector.

    The digit values 0..d-1 go to the d slots other than qudit n
    (ascending label order) in all d! ways, each signed by its
    permutation parity and an overall (-1)**n.  One pass over the (d!, d)
    permutation table: a broadcast inversion count gives the signs, and
    one product with the slots' place values d**(d - slot) the branch-0
    indices; branch k adds k * d**(d - n) to every index.
    """
    perms = np.array(list(itertools.permutations(range(d))))
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    slots = np.array([j for j in range(d + 1) if j != n])
    branches = np.arange(d)[:, None]
    matrix = np.zeros((d, d ** (d + 1)), dtype=np.int8)
    flat = perms @ d ** (d - slots) + branches * d ** (d - n)
    matrix[branches, flat] = np.where((n + inversions) % 2, -1, 1)
    matrix.setflags(write=False)
    return matrix


def _sign_gram(signs):
    """The int64 Gram matrix S S^T of an integer sign matrix S (rows of
    entries in {-1, 0, 1}, D to a row).

    The product runs in float64, so it uses BLAS, and it is exact: each
    entry is an integer of magnitude at most D, and any S that fits in
    memory has D < 2**53.
    """
    wide = signs.astype(np.float64)
    return (wide @ wide.T).astype(np.int64)


def build_detection_core(d, n):
    """Totally antisymmetric detection state for outcome n: branch 0 of
    build_povm_vector, with qudit n's digit held at 0.  Unit norm."""
    return build_povm_vector(d, n, 0)


def build_povm_vector(d, n, k):
    """Basis vector of the conclusive element for outcome n, branch k.

    Puts qudit n in basis state |k> and the remaining d qudits in the
    antisymmetric detection state: row k of _sign_matrix over sqrt(d!).
    Every nonzero amplitude sits in the total-excitation sector
    k + d(d-1)/2, which makes different-k vectors orthogonal regardless
    of the outcome indices.  The vector is dense, so d above DENSE_MAX_D
    is refused before anything is allocated.
    """
    d = check_dense_dim(d)
    n = _check_index("outcome index", n, 1, d)
    k = _check_index("branch index", k, 0, d - 1)
    return StateVector(d, _sign_matrix(d, n)[k] / math.sqrt(math.factorial(d)))


@dataclass(frozen=True)
class LowRankPovmElement:
    """Conclusive measurement operator scale * sum_k |v_k><v_k|, as
    build_povm builds it.

    Stored as its scale d/(d+1) and the integer sign matrix S of its
    orthonormal vectors, v_k = S_k / sqrt(d!): build_povm makes S a
    read-only int8 (d, d**(d+1)) array with entries in {-1, 0, 1} and
    S S^T = d! I exactly.  No float form is kept; `vectors` computes the
    dense StateVectors when asked.
    """

    d: int
    label: int
    scale: float
    signs: np.ndarray

    @property
    def vectors(self):
        """The vectors S_k / sqrt(d!) as dense StateVectors."""
        root = math.sqrt(math.factorial(self.d))
        return tuple(StateVector(self.d, row / root) for row in self.signs)


@dataclass(frozen=True)
class Povm:
    """The d conclusive elements of the measurement, labelled 1..d, as
    build_povm builds them.

    The inconclusive element is not stored: it is defined as the
    identity minus the conclusive sum, so completeness holds by
    construction, and verify_report's primal_feasible decides its positivity.
    """

    d: int
    elements: tuple

    @property
    def scale(self):
        return self.elements[0].scale


def build_povm(d):
    """Optimal unambiguous-identification measurement for dimension d.

    Each conclusive element carries scale d/(d+1) — the largest value
    for which the inconclusive remainder stays positive semidefinite —
    and its _sign_matrix.  No float vector and no D x D operator is
    formed.  d above DENSE_MAX_D is refused.
    """
    d = check_dense_dim(d)
    scale = d / (d + 1)
    elements = (LowRankPovmElement(d, n, scale, _sign_matrix(d, n)) for n in range(1, d + 1))
    return Povm(d, tuple(elements))


def overlap_with_product(d, n, factors):
    """Overlap of the detection state for outcome n with a product state.

    `factors` holds the d+1 unit factors of the product state in register
    order, held to _check_factors like product_state's; the factor at
    position n does not enter (the detection state ignores it).  Evaluates the
    Slater determinant of the matrix whose columns are the remaining
    factors in ascending slot order, at O(d**3) cost:

        overlap = (-1)**n / sqrt(d!) * det M,   M[v, s] = factors[slot s][v]
    """
    d = check_dim(d)
    n = _check_index("outcome index", n, 1, d)
    m = np.delete(np.column_stack(_check_factors(d, factors)), n, axis=1)
    sign = -1.0 if n % 2 else 1.0
    return complex(sign * np.linalg.det(m) / math.sqrt(math.factorial(d)))


def povm_to_dict(povm):
    """JSON-ready form: the one scale build_povm gives every element, plus
    each element's vectors in state_to_dict's form, their amplitudes given
    as sign rows over sqrt(d!) (jsonio.SignRows), so none is made dense."""
    d = povm.d
    unit = 1 / math.sqrt(math.factorial(d))
    return {
        "d": d,
        "scale": float(povm.scale),
        "elements": [
            {"n": elem.label, "vectors": [{"d": d, "amps": SignRows(s, unit)} for s in elem.signs]}
            for elem in povm.elements
        ],
    }
