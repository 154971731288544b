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


def haar_unitary(n, rng):
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
