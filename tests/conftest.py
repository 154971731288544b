import numpy as np
import pytest

from quditid import build_povm


@pytest.fixture(scope="session")
def povm2():
    return build_povm(2)


@pytest.fixture(scope="session")
def povm3():
    return build_povm(3)


@pytest.fixture(scope="session")
def povm4():
    return build_povm(4)


def dense_conclusive_sum(elements):
    """Dense oracle for a sum of conclusive elements: scale * M^T conj(M)
    per element, M being the element's stacked vectors."""
    return sum(elem.scale * (elem.matrix.T @ elem.matrix.conj()) for elem in elements)


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
