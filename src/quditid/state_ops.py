"""The averaged density operators rho_n on the full register.

    rho_n = c * (I + SWAP_{0n}) / 2,   c = 2 / ((d+1) * d**d)

is the averaged density operator for "probe matches reference n", where
SWAP_{0n} exchanges the probe qudit with reference qudit n and leaves
the spectators alone.  On a flat amplitude vector that swap is a
permutation of basis indices: reshape to one axis per qudit, swap axes
0 and n, flatten.  So no D x D matrix is stored, and applying rho_n
costs one copy of the vector.  build_rho is the one way to build it.
HermitianOperator's public methods are apply, which holds its vector to
_check_finite, and to_dense, which takes none and forms the D x D
matrix only for d <= DENSE_OPERATOR_MAX_D (_check_index's rule).  The
swap itself is the private _swap; analytics applies it to the integer
sign columns of the measurement, so verify's traces stay exact.
"""

from dataclasses import dataclass

import numpy as np

from .tensor_core import _check_finite, _check_index, check_dim, total_dim

# Largest d whose D x D operator to_dense forms: 4096 x 4096 at d = 4
# (d = 5 stays low-rank).
DENSE_OPERATOR_MAX_D = 4


@dataclass(frozen=True)
class HermitianOperator:
    """rho_n = c*(I + SWAP_{0n})/2 on the full (d+1)-qudit space, built by
    build_rho.  It holds only d and n, both checked; instances are
    immutable and shared freely."""

    d: int
    n: int

    def __post_init__(self):
        d = check_dim(self.d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", _check_index("reference index", self.n, 1, d))

    def _swap(self, vec):
        """SWAP_{0n} applied along the first axis of `vec`."""
        grid = vec.reshape((self.d,) * (self.d + 1) + vec.shape[1:])
        return grid.swapaxes(0, self.n).reshape(vec.shape)

    def apply(self, vec):
        """rho_n applied to `vec`, a real or complex array of finite
        numbers (tensor_core._check_finite's rule) along its first axis."""
        vec = _check_finite("vector", vec, np.complex128 if np.iscomplexobj(vec) else np.float64)
        half = rho_prefactor(self.d) / 2
        return half * vec + half * self._swap(vec)

    def to_dense(self):
        d = _check_index("dimension of a dense D x D operator", self.d, 2, DENSE_OPERATOR_MAX_D)
        eye = np.eye(total_dim(d), dtype=np.complex128)  # not copied through apply's check
        half = rho_prefactor(d) / 2
        return half * eye + half * self._swap(eye)


def rho_prefactor(d):
    """Normalization 2/((d+1) d**d) that gives rho_n unit trace."""
    d = check_dim(d)
    return 2.0 / ((d + 1) * d**d)


def build_rho(d, n):
    """Averaged density operator for "probe matches reference n".

    A scaled copy of the symmetric pair projector: trace one, positive
    semidefinite, eigenvalues in {0, 2/((d+1) d**d)}.
    """
    return HermitianOperator(d, n)
