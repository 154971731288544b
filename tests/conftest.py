import itertools

import numpy as np
import pytest

from quditid import build_povm, overlap_with_product
from quditid.tensor_core import _check_index, encode_index, total_dim


@pytest.fixture(scope="session")
def povm2():
    return build_povm(2)


@pytest.fixture(scope="session")
def povm3():
    return build_povm(3)


@pytest.fixture(scope="session")
def povm4():
    return build_povm(4)


def basis_ket(d, i):
    """Single-qudit computational basis state |i> as a complex vector."""
    v = np.zeros(d, dtype=np.complex128)
    v[_check_index("basis label", i, 0, d - 1)] = 1.0
    return v


def decode_index(flat, d):
    """Per-qudit digits of a flat basis index, probe digit first: the
    inverse of encode_index."""
    rest = _check_index("flat index", flat, 0, total_dim(d) - 1)
    digits = [0] * (d + 1)
    for j in range(d, -1, -1):
        rest, digits[j] = divmod(rest, d)
    return tuple(digits)


def outcome_probabilities(povm, probe, refs):
    """General-probe oracle for the outcome distribution of the product
    input probe (x) refs: each conclusive probability is
    scale * |overlap|^2 with the outcome's detection state, for any probe.
    Returns (conclusive probabilities, inconclusive)."""
    factors = [probe, *refs]
    p = np.array(
        [povm.scale * abs(overlap_with_product(povm.d, n, factors)) ** 2
         for n in range(1, povm.d + 1)]
    )
    return p, max(1.0 - float(p.sum()), 0.0)


def dense_conclusive_sum(elements):
    """Dense oracle for a sum of conclusive elements: scale * M^T conj(M)
    per element, M being the element's stacked vectors."""
    return sum(elem.scale * (elem.matrix.T @ elem.matrix.conj()) for elem in elements)


def element_expectation(elem, psi):
    """<psi| element |psi> from the element's stored vectors:
    scale * ||conj(M) psi||^2, M being the stacked vectors."""
    return elem.scale * float(np.linalg.norm(elem.matrix.conj() @ psi) ** 2)


def dense_pair_projector(d, n, sign):
    """Dense oracle for the (probe, n) pair projector, sign +1 symmetric
    and -1 antisymmetric, on the full (d+1)-qudit register.

    Sums the outer products of the pair states (|i>|j> + sign |j>|i>)/sqrt(2)
    for i < j, plus |i>|i> when sign is +1, with every spectator qudit in
    each of its basis states (identity on the spectators).  The 1/sqrt(2)
    is applied as a factor 1/2 on the outer product, so every entry is
    exact.  Basis-vector loops: small d only.
    """
    assert d <= 3
    D = total_dim(d)
    spectators = [p for p in range(1, d + 1) if p != n]

    def ket(i, j, cfg):
        digits = [0] * (d + 1)
        digits[0], digits[n] = i, j
        for p, c in zip(spectators, cfg):
            digits[p] = c
        v = np.zeros(D)
        v[encode_index(digits, d)] = 1.0
        return v

    out = np.zeros((D, D))
    for cfg in itertools.product(range(d), repeat=d - 1):
        for i in range(d):
            for j in range(i + 1, d):
                v = ket(i, j, cfg) + sign * ket(j, i, cfg)
                out += 0.5 * np.outer(v, v)
            if sign > 0:
                v = ket(i, i, cfg)
                out += np.outer(v, v)
    return out


def pair_sym_projector(d):
    """Symmetric-subspace projector (I + SWAP)/2 on a pair of qudits."""
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    return (np.eye(d * d) + swap) / 2.0


def haar_unitary(n, rng):
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
