"""Pair projectors and averaged density operators on the full register.

Every operator here has the form a*I + b*SWAP_{0n}, where SWAP_{0n}
exchanges the probe qudit with reference qudit n and leaves the
spectators alone.  On a flat amplitude vector that swap is a
permutation of basis indices: reshape to one axis per qudit, swap axes
0 and n, flatten.  So no D x D matrix is stored, and applying an
operator costs one copy of the vector.

    P_sym(0,n)  = (I + SWAP_{0n}) / 2
    P_asym(0,n) = (I - SWAP_{0n}) / 2
    rho_n       = 2 / ((d+1) * d**d) * P_sym(0,n)

rho_n is the averaged density operator for "probe matches reference n".
"""

from dataclasses import dataclass

import numpy as np

from .tensor_core import _check_index, check_dim, total_dim

# Refuse to densify anything bigger than the d=4 space (d=5 stays low-rank).
DENSE_DIM_LIMIT = 4096


@dataclass(frozen=True)
class HermitianOperator:
    """The operator a*I + b*SWAP_{0n} on the full (d+1)-qudit space.

    The coefficients are real, so the operator is Hermitian by
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
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    def _swap(self, vec):
        """SWAP_{0n} applied along the first axis of `vec`."""
        grid = vec.reshape((self.d,) * (self.d + 1) + vec.shape[1:])
        return grid.swapaxes(0, self.n).reshape(vec.shape)

    def apply(self, vec):
        vec = np.asarray(vec)
        return self.a * vec + self.b * self._swap(vec)

    def to_dense(self):
        D = total_dim(self.d)
        if D > DENSE_DIM_LIMIT:
            raise ValueError(f"refusing to densify a {D}x{D} operator")
        return self.apply(np.eye(D, dtype=np.complex128))


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


def _product_batch(factor_arrays):
    """Row-wise tensor product: [(B, d), ...] -> (B, d**len) amplitudes."""
    out = factor_arrays[0]
    for f in factor_arrays[1:]:
        out = np.einsum("bi,bj->bij", out, f).reshape(out.shape[0], -1)
    return out


def haar_average_check(d, n, samples, seed):
    """Monte Carlo check of the averaged density operator.

    Draws `samples` sets of d Haar-random reference states, averages the
    projector onto the matching-probe product state, and returns the max
    entrywise deviation from build_rho(d, n).  Decays as O(1/sqrt(samples)).
    """
    d = check_dim(d)
    n = _check_index("reference index", n, 1, d)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    D = total_dim(d)
    if D > DENSE_DIM_LIMIT:
        raise ValueError(f"dense average not supported for d={d}")
    rng = np.random.default_rng(seed)
    acc = np.zeros((D, D), dtype=np.complex128)
    done = 0
    while done < samples:
        batch = min(2048, samples - done)
        raw = rng.standard_normal((batch, d, d)) + 1j * rng.standard_normal((batch, d, d))
        refs = raw / np.linalg.norm(raw, axis=2, keepdims=True)
        factors = [refs[:, n - 1, :]] + [refs[:, j, :] for j in range(d)]
        vecs = _product_batch(factors)
        acc += np.einsum("bi,bj->ij", vecs, vecs.conjugate())
        done += batch
    avg = acc / samples
    dense_rho = build_rho(d, n).to_dense()
    return float(np.max(np.abs(avg - dense_rho)))
