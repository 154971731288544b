"""Independent re-derivation of the optimal conclusive-element scale.

The d conclusive basis vectors at any fixed branch have the Gram matrix
with 1 on the diagonal and -1/d off it.  Any family with that Gram can
be written explicitly in an abstract d-dimensional space, where
maximizing the total conclusive weight subject to the summed operator
staying below the identity becomes a d x d eigenvalue problem, plus a
brute-force grid search as a second opinion.  The search tests the real
Gram form A^dagger A of the frame operator A A^dagger against the
identity through the Schur complement on the last weight, which gives
each prefix's largest feasible last weight without an eigensolve.

This module deliberately never imports the measurement construction;
agreement of the two routes is asserted in the test suite, not wired in
here.  It shares only tensor_core's input rules: check_dim, whose upper
bound on d keeps the (d, d, d) projector stack small for every accepted
input, the integer range check and the finite-number checks.  check_grid
holds the grid oracle's bounds, each one such check on a named limit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import _check_finite, _check_index, _check_real, check_dim

# Feasibility margin on the largest eigenvalue; boundary points count.
FEASIBILITY_TOL = 1e-10

# Inputs the grid oracle accepts; d = 3 at the finest has 1001**2 prefixes.
GRID_MAX_D = 3
MIN_RESOLUTION = 0.001
MAX_RESOLUTION = 0.1

# Prefixes per batch of the grid search, which bounds its memory.
_CHUNK = 4096


@dataclass(frozen=True)
class SymmetricFamily:
    """d unit vectors in C^d with pairwise overlap -1/d, as
    build_symmetric_family builds them.

    Row n-1 of the read-only `vectors` holds the vector for outcome n.
    """

    d: int
    vectors: np.ndarray


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
    vectors.setflags(write=False)
    return SymmetricFamily(d, vectors)


def frame_operator(fam, weights=None):
    """Weighted sums of the projectors |v_n><v_n|: weights (..., d), default
    ones, give (..., d, d)."""
    weights = _check_finite("weights", np.ones(fam.d) if weights is None else weights)
    if weights.shape[-1:] != (fam.d,):
        raise ValueError(f"expected {fam.d} weights, got shape {weights.shape}")
    v = fam.vectors
    return np.tensordot(weights, np.einsum("ni,nj->nij", v, v.conj()), axes=(-1, 0))


def optimal_weight_eigen(fam):
    """Largest common weight keeping the summed operator below identity.

    With equal weights the constraint binds at the top eigenvalue of the
    unweighted frame operator, whose spectrum is 1/d once and (d+1)/d
    with multiplicity d-1; the answer is its reciprocal, d/(d+1).
    """
    eigs = np.linalg.eigvalsh(frame_operator(fam))
    return 1.0 / float(eigs[-1])


def check_grid(d, resolution):
    """The resolution as a float, after refusing with ValueError a grid
    search outside the oracle's bounds: d not an integer in 2..GRID_MAX_D,
    or resolution not a real in [MIN_RESOLUTION, MAX_RESOLUTION]."""
    _check_index("dimension of a grid search", d, 2, GRID_MAX_D)
    return _check_real("resolution", resolution, MIN_RESOLUTION, MAX_RESOLUTION)


def _frontier_chunks(gram, values):
    """Each prefix's frontier on the grid `values` for the real Gram `gram`.

    A prefix is a point's first d-1 grid indices.  Yields, in lexicographic
    prefix order, (n, d) index arrays of at most _CHUNK prefixes, with the
    prefix in the first d-1 columns and its frontier in the last: the
    largest k with the point feasible, or -1 when even k = 0 is not.
    """
    d, steps = len(gram), len(values)
    bound, roots = 1.0 + FEASIBILITY_TOL, np.sqrt(values)
    prefixes = steps ** (d - 1)
    for start in range(0, prefixes, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, prefixes))
        points = np.empty((len(flat), d), dtype=np.intp)
        points[:, :-1] = np.stack(np.unravel_index(flat, (steps,) * (d - 1)), axis=1)
        r = np.ones(points.shape)
        r[:, :-1] = roots[points[:, :-1]]
        # bound*I - diag(r) G diag(r) with the last root 1: a last weight w
        # scales the last row and column off the diagonal by sqrt(w) and
        # G_dd by w, so the last Schur complement is bound - w q.
        a = bound * np.eye(d) - r[:, :, None] * gram * r[:, None, :]
        ok = np.ones(len(flat), dtype=bool)
        for j in range(d - 1):
            ok &= a[:, j, j] > 0
            pivot = np.where(ok, a[:, j, j], 1.0)[:, None, None]
            a[:, j + 1:, j + 1:] -= a[:, j + 1:, j, None] * a[:, None, j, j + 1:] / pivot
        q = np.where(ok, bound - a[:, -1, -1], 1.0)
        # bound / q rounds: settle the last step on the product itself.
        k = np.searchsorted(values, bound / q, side="right") - 1
        up = np.minimum(k + 1, steps - 1)
        k = np.where(values[up] * q <= bound, up, np.where(values[k] * q <= bound, k, k - 1))
        points[:, -1] = np.where(ok, k, -1)
        yield points


def optimal_weight_grid(fam, resolution):
    """Brute-force search over per-outcome weights on a regular grid.

    Weights run over {0, resolution, ..., <=1} per outcome, for the
    (d, resolution) check_grid accepts.  Returns (weights, total) of the
    feasible point (top eigenvalue at most 1 + FEASIBILITY_TOL of the
    weighted frame operator A A^dagger, A = [sqrt(w_n) v_n], or equally of
    the real d x d matrix A^dagger A = diag(sqrt w) G diag(sqrt w), G the
    Gram matrix) with the largest float total, ties going to the
    lexicographically smallest weights.  Raising a weight adds a positive
    semidefinite term, so the feasible set is down-closed, and strictly
    raises the float total: the answer is some prefix's frontier point,
    the largest feasible last index after the first d-1.  Feasibility is
    positive semidefiniteness of (1 + FEASIBILITY_TOL) I - diag(sqrt w) G
    diag(sqrt w); by its Schur complement on the last index this holds
    when the first d-1 pivots are positive and w_d q <= 1 + FEASIBILITY_TOL,
    q = G_dd + h^T B^-1 h, with B the leading block and h the last column
    above the diagonal at w_d = 1.  So one batched elimination per chunk
    of prefixes gives every frontier at once.  Prefixes come in
    lexicographic order, and the first largest total wins.
    """
    resolution = check_grid(fam.d, resolution)
    steps = int(math.floor(1.0 / resolution + 1e-9)) + 1
    values = np.arange(steps) * resolution
    gram = (fam.vectors.conj() @ fam.vectors.T).real
    best, best_at = -np.inf, None
    for points in _frontier_chunks(gram, values):
        totals = np.where(points[:, -1] >= 0, values[points].sum(axis=1), -np.inf)
        i = int(np.argmax(totals))
        if totals[i] > best:
            best, best_at = totals[i], points[i]
    return values[best_at], float(best)
