"""Pair projectors and averaged density operators on the full register.

For each reference position n the symmetric/antisymmetric projectors act
on the (probe, n) qudit pair and as identity on every spectator qudit.
The averaged density operator for "probe matches reference n" is the
symmetric pair projector scaled to unit trace:

    rho_n = 2 / ((d+1) * d**d) * P_sym(0,n) (x) identity elsewhere
"""

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .tensor_core import check_dim, total_dim

HERMITICITY_TOL = 1e-12
# Refuse to densify anything bigger than the d=4 space (d=5 stays low-rank).
DENSE_DIM_LIMIT = 4096


@dataclass(frozen=True)
class HermitianOperator:
    """Sparse Hermitian operator on the full (d+1)-qudit space.

    Hermiticity is checked at construction; instances are treated as
    immutable and shared freely.
    """

    d: int
    mat: sp.csr_matrix

    def __post_init__(self):
        d = check_dim(self.d)
        mat = sp.csr_matrix(self.mat, dtype=np.complex128)
        D = total_dim(d)
        if mat.shape != (D, D):
            raise ValueError(f"expected a {D}x{D} matrix for d={d}, got {mat.shape}")
        defect = abs(mat - mat.conjugate().T)
        if defect.nnz and defect.max() > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self):
        return self.mat.shape[0]

    def entry(self, i, j):
        return complex(self.mat[i, j])

    def apply(self, vec):
        return self.mat @ vec

    def trace(self):
        return float(self.mat.trace().real)

    def to_dense(self):
        if self.dim > DENSE_DIM_LIMIT:
            raise ValueError(f"refusing to densify a {self.dim}x{self.dim} operator")
        return self.mat.toarray()

    def eigenvalues(self):
        """All eigenvalues, ascending (dense solver; small dimensions only)."""
        return np.linalg.eigvalsh(self.to_dense())


def _from_triplets(d, rows, cols, vals):
    D = total_dim(d)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(D, D), dtype=np.complex128)
    return HermitianOperator(d, mat.tocsr())


def _pair_index_maps(d, n):
    """Flat-index helpers for the (probe, n) pair with spectators fixed.

    Returns (weights of probe and qudit n, list of spectator base offsets),
    one offset per assignment of digits to the d-1 spectator qudits.
    """
    positions = [p for p in range(1, d + 1) if p != n]
    weights = [d ** (d - p) for p in positions]
    w_probe = d**d
    w_n = d ** (d - n)
    bases = []
    for cfg in itertools.product(range(d), repeat=d - 1):
        bases.append(sum(c * w for c, w in zip(cfg, weights)))
    return w_probe, w_n, bases


def build_asym_projector(d, n):
    """Projector onto the antisymmetric subspace of the (probe, n) pair.

    Assembled as the sum of outer products of the pair states
    (|i>|j> - |j>|i>)/sqrt(2) over i < j, tensored with identity on the
    spectators.  Rank d(d-1)/2 * d**(d-1).
    """
    d = check_dim(d)
    if not 1 <= n <= d:
        raise ValueError(f"reference index {n} out of range 1..{d}")
    w0, wn, bases = _pair_index_maps(d, n)
    rows, cols, vals = [], [], []
    for i in range(d):
        for j in range(i + 1, d):
            for base in bases:
                fij = base + i * w0 + j * wn
                fji = base + j * w0 + i * wn
                rows += [fij, fji, fij, fji]
                cols += [fij, fji, fji, fij]
                vals += [0.5, 0.5, -0.5, -0.5]
    return _from_triplets(d, rows, cols, vals)


def build_sym_projector(d, n):
    """Projector onto the symmetric subspace of the (probe, n) pair.

    Diagonal |i>|i> terms plus (|i>|j> + |j>|i>)/sqrt(2) pair terms,
    tensored with identity on the spectators.  Rank d(d+1)/2 * d**(d-1);
    together with the antisymmetric projector it resolves the identity.
    """
    d = check_dim(d)
    if not 1 <= n <= d:
        raise ValueError(f"reference index {n} out of range 1..{d}")
    w0, wn, bases = _pair_index_maps(d, n)
    rows, cols, vals = [], [], []
    for i in range(d):
        for base in bases:
            fii = base + i * (w0 + wn)
            rows.append(fii)
            cols.append(fii)
            vals.append(1.0)
    for i in range(d):
        for j in range(i + 1, d):
            for base in bases:
                fij = base + i * w0 + j * wn
                fji = base + j * w0 + i * wn
                rows += [fij, fji, fij, fji]
                cols += [fij, fji, fji, fij]
                vals += [0.5, 0.5, 0.5, 0.5]
    return _from_triplets(d, rows, cols, vals)


def rho_prefactor(d):
    """Normalization 2/((d+1) d**d) that gives rho_n unit trace."""
    d = check_dim(d)
    return 2.0 / ((d + 1) * d**d)


def build_rho(d, n):
    """Averaged density operator for "probe matches reference n".

    A scaled copy of the symmetric pair projector: trace one, positive
    semidefinite, eigenvalues in {0, 2/((d+1) d**d)}.
    """
    sym = build_sym_projector(d, n)
    return HermitianOperator(d, sym.mat * rho_prefactor(d))


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
    if not 1 <= n <= d:
        raise ValueError(f"reference index {n} out of range 1..{d}")
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

