"""Pair projectors and averaged density operators on the full register.

Every operator here has the form a*I + b*SWAP_{0n}, where SWAP_{0n}
exchanges the probe qudit with reference qudit n and leaves the
spectators alone.  On a flat amplitude vector that swap is a
permutation of basis indices: reshape to one axis per qudit, swap axes
0 and n, flatten.  So no D x D matrix is stored, and applying an
operator costs one copy of the vector.  HermitianOperator's public
methods are apply, which holds its vector to _check_finite, and
to_dense, which takes none and forms the D x D matrix only for
D <= DENSE_DIM_LIMIT (d <= 4).  The swap itself is the private _swap;
analytics applies it to the integer sign columns of the measurement,
so verify's traces stay exact.

    P_sym(0,n)  = (I + SWAP_{0n}) / 2
    P_asym(0,n) = (I - SWAP_{0n}) / 2
    rho_n       = 2 / ((d+1) * d**d) * P_sym(0,n)

rho_n is the averaged density operator for "probe matches reference n".
"""

from dataclasses import dataclass

import numpy as np

from .tensor_core import _check_finite, _check_index, _check_real, check_dim, total_dim

# Refuse to densify anything bigger than the d=4 space (d=5 stays low-rank).
DENSE_DIM_LIMIT = 4096


@dataclass(frozen=True)
class HermitianOperator:
    """The operator a*I + b*SWAP_{0n} on the full (d+1)-qudit space.

    The coefficients are finite reals, so the operator is Hermitian by
    construction.  Instances are immutable and shared freely.
    """

    d: int
    n: int
    a: float
    b: float

    def __post_init__(self):
        d = check_dim(self.d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", _check_index("reference index", self.n, 1, d))
        object.__setattr__(self, "a", _check_real("coefficient a", self.a))
        object.__setattr__(self, "b", _check_real("coefficient b", self.b))

    def _swap(self, vec):
        """SWAP_{0n} applied along the first axis of `vec`."""
        grid = vec.reshape((self.d,) * (self.d + 1) + vec.shape[1:])
        return grid.swapaxes(0, self.n).reshape(vec.shape)

    def apply(self, vec):
        """The operator applied to `vec`, a real or complex array of finite
        numbers (tensor_core._check_finite's rule) along its first axis."""
        vec = _check_finite("vector", vec, np.complex128 if np.iscomplexobj(vec) else np.float64)
        return self.a * vec + self.b * self._swap(vec)

    def to_dense(self):
        D = total_dim(self.d)
        if D > DENSE_DIM_LIMIT:
            raise ValueError(f"refusing to densify a {D}x{D} operator")
        eye = np.eye(D, dtype=np.complex128)  # not copied through apply's check
        return self.a * eye + self.b * self._swap(eye)


def rho_prefactor(d):
    """Normalization 2/((d+1) d**d) that gives rho_n unit trace."""
    d = check_dim(d)
    return 2.0 / ((d + 1) * d**d)


def build_rho(d, n):
    """Averaged density operator for "probe matches reference n".

    A scaled copy of the symmetric pair projector: trace one, positive
    semidefinite, eigenvalues in {0, 2/((d+1) d**d)}.
    """
    c = rho_prefactor(d)
    return HermitianOperator(d, n, c / 2, c / 2)
