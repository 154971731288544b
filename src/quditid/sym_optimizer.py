"""Independent re-derivation of the optimal conclusive-element scale.

The d conclusive basis vectors at any fixed branch have the Gram matrix
with 1 on the diagonal and -1/d off it.  Any family with that Gram can
be written explicitly in an abstract d-dimensional space, where
maximizing the total conclusive weight subject to the summed operator
staying below the identity becomes a d x d eigenvalue problem, plus a
brute-force grid search as a second opinion.

This module deliberately never imports the measurement construction;
agreement of the two routes is asserted in the test suite, not wired in
here.  It shares only tensor_core.check_dim, whose upper bound on d
keeps the (d, d, d) projector stack small for every accepted input.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import check_dim

GRAM_TOL = 1e-12
# Feasibility margin on the largest eigenvalue; boundary points count.
FEASIBILITY_TOL = 1e-10

_GRID_CHUNK = 8192


@dataclass(frozen=True)
class SymmetricFamily:
    """d unit vectors in C^d with pairwise overlap -1/d.

    Row n-1 of `vectors` holds the vector for outcome n.
    """

    d: int
    vectors: np.ndarray

    def __post_init__(self):
        d = check_dim(self.d)
        vectors = np.array(self.vectors, dtype=np.complex128)
        if vectors.shape != (d, d):
            raise ValueError(f"expected shape {(d, d)}, got {vectors.shape}")
        gram = vectors.conj() @ vectors.T
        target = np.eye(d) + (-1.0 / d) * (np.ones((d, d)) - np.eye(d))
        if np.max(np.abs(gram - target)) > GRAM_TOL:
            raise ValueError("vectors do not realize the -1/d overlap family")
        vectors.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "vectors", vectors)


def build_symmetric_family(d):
    """Explicit realization of the -1/d overlap family.

    Vector n has amplitude 1/d on the first basis direction and
    sqrt(d+1)/d * exp(2*pi*i*n*l/d) on direction l >= 1; the phases form
    a discrete Fourier pattern, so the family is covariant under the
    diagonal unitary with phases exp(2*pi*i*l/d).
    """
    d = check_dim(d)
    ls = np.arange(d)
    vectors = np.empty((d, d), dtype=np.complex128)
    for n in range(1, d + 1):
        row = (math.sqrt(d + 1) / d) * np.exp(2j * np.pi * n * ls / d)
        row[0] = 1.0 / d
        vectors[n - 1] = row
    return SymmetricFamily(d, vectors)


def rank_one_projectors(fam):
    """Stack of the |v_n><v_n| projectors, shape (d, d, d)."""
    v = fam.vectors
    return np.einsum("ni,nj->nij", v, v.conj())


def frame_operator(fam, weights=None):
    """Weighted sum of the rank-one projectors (unit weights by default)."""
    if weights is None:
        weights = np.ones(fam.d)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (fam.d,):
        raise ValueError(f"expected {fam.d} weights, got shape {weights.shape}")
    return np.tensordot(weights, rank_one_projectors(fam), axes=(0, 0))


def optimal_weight_eigen(fam):
    """Largest common weight keeping the summed operator below identity.

    With equal weights the constraint binds at the top eigenvalue of the
    unweighted frame operator, whose spectrum is {1, (d+1)/d with
    multiplicity d-1}; the answer is its reciprocal, d/(d+1).
    """
    eigs = np.linalg.eigvalsh(frame_operator(fam))
    return 1.0 / float(eigs[-1])


def optimal_weight_grid(fam, resolution):
    """Brute-force search over per-outcome weights on a regular grid.

    Scans weights in {0, resolution, ..., <=1} per outcome, keeps points
    whose weighted frame operator has top eigenvalue at most 1 (within
    FEASIBILITY_TOL), and returns (best weights, best total).  Exact
    ties in the total break toward the lexicographically smallest
    weight tuple.  Only d in {2, 3} is supported — the grid is an
    oracle, not a production optimizer.

    Candidates are visited in order of decreasing total, ties in
    lexicographic order (a stable sort of the lexicographic grid), so
    the first feasible one is the answer and the rest are never solved.
    """
    if fam.d not in (2, 3):
        raise ValueError(f"grid search supports d in {{2, 3}}, got {fam.d}")
    if not 0.0 < resolution <= 0.1:
        raise ValueError(f"resolution must lie in (0, 0.1], got {resolution}")
    d = fam.d
    steps = int(math.floor(1.0 / resolution + 1e-9)) + 1
    values = np.arange(steps) * resolution
    projs = rank_one_projectors(fam)
    index_rows = np.indices((steps,) * d).reshape(d, -1).T
    totals = values[index_rows].sum(axis=1)
    order = np.argsort(-totals, kind="stable")

    # perfbench/child.py counts grid candidates from the eigvalsh calls
    # made in a function of this name.
    def consider(rows):
        """Position in `rows` of the first feasible candidate, or None."""
        ops = np.tensordot(values[index_rows[rows]], projs, axes=(1, 0))
        top = np.linalg.eigvalsh(ops)[:, -1]
        feasible = np.flatnonzero(top <= 1.0 + FEASIBILITY_TOL)
        return int(feasible[0]) if feasible.size else None

    for start in range(0, order.size, _GRID_CHUNK):
        rows = order[start:start + _GRID_CHUNK]
        hit = consider(rows)
        if hit is not None:
            best = rows[hit]
            return values[index_rows[best]], float(totals[best])
    raise AssertionError("the zero weight vector is always feasible")
