"""Independent re-derivation of the optimal conclusive-element scale.

The d conclusive basis vectors at any fixed branch have the Gram matrix
with 1 on the diagonal and -1/d off it.  Any family with that Gram can
be written explicitly in an abstract d-dimensional space, where
maximizing the total conclusive weight subject to the summed operator
staying below the identity becomes a d x d eigenvalue problem, plus a
brute-force grid search as a second opinion, which takes each spectrum
from the real Gram form A^dagger A for the frame operator A A^dagger.

This module deliberately never imports the measurement construction;
agreement of the two routes is asserted in the test suite, not wired in
here.  It shares only tensor_core's input rules: check_dim, whose upper
bound on d keeps the (d, d, d) projector stack small for every accepted
input, and the finite-number checks.  check_grid states the grid
oracle's bounds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import _check_finite, _check_real, check_dim

# Feasibility margin on the largest eigenvalue; boundary points count.
FEASIBILITY_TOL = 1e-10

# Inputs the grid oracle accepts; d = 3 at the finest takes ~1.8M eigensolves.
GRID_DIMS = (2, 3)
MIN_RESOLUTION = 0.001
MAX_RESOLUTION = 0.1


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
    search outside the oracle's bounds: d not in GRID_DIMS (by check_dim's
    rule first), or resolution not a real in [MIN_RESOLUTION, MAX_RESOLUTION]."""
    if check_dim(d) not in GRID_DIMS:
        raise ValueError(f"grid search supports d in {GRID_DIMS}, got {d}")
    return _check_real("resolution", resolution, MIN_RESOLUTION, MAX_RESOLUTION)


def optimal_weight_grid(fam, resolution):
    """Brute-force search over per-outcome weights on a regular grid.

    Weights run over {0, resolution, ..., <=1} per outcome, for the
    (d, resolution) check_grid accepts.  Returns (weights, total) of the
    feasible point (top eigenvalue at most 1 + FEASIBILITY_TOL of the
    weighted frame operator A A^dagger, A = [sqrt(w_n) v_n], taken as that
    of the real d x d matrix A^dagger A = diag(sqrt w) G diag(sqrt w), G the
    Gram matrix) with the largest float total, ties going to the
    lexicographically smallest weights.  Raising a weight adds a positive
    semidefinite term, so the feasible set is down-closed, and strictly
    raises the float total: the answer is some prefix's frontier point,
    the largest feasible last index after the first d-1.  As the
    second-to-last index rises with the first d-2 fixed (one row), the
    frontier can only fall.  So each row is walked once from (0, top) in
    its last two indices: a feasible point is its prefix's frontier and
    the walk moves to the next prefix, an infeasible one lowers the last
    index.  Rows and prefixes come in lexicographic order, and the first
    largest total wins.
    """
    resolution = check_grid(fam.d, resolution)
    steps = int(math.floor(1.0 / resolution + 1e-9)) + 1
    values = np.arange(steps) * resolution
    gram, roots = (fam.vectors.conj() @ fam.vectors.T).real, np.sqrt(values)
    at = np.indices((steps,) * (fam.d - 2) + (1, 1)).reshape(fam.d, -1).T
    at[:, -1] = steps - 1
    best, best_at = np.full(len(at), -np.inf), at.copy()

    # perfbench/child.py counts grid candidates from the eigvalsh calls
    # made in a function of this name.
    def consider(points):
        """Feasibility of each row of grid indices in `points`."""
        r = roots[points]
        top = np.linalg.eigvalsh(r[:, :, None] * gram * r[:, None, :])[:, -1]
        return top <= 1.0 + FEASIBILITY_TOL

    while (live := np.flatnonzero((at[:, -2] < steps) & (at[:, -1] >= 0))).size:
        ok = consider(at[live])
        found = live[ok]
        totals = values[at[found]].sum(axis=1)
        gain = totals > best[found]
        best[found[gain]], best_at[found[gain]] = totals[gain], at[found[gain]]
        at[found, -2] += 1
        at[live[~ok], -1] -= 1
    row = int(np.argmax(best))
    return values[best_at[row]], float(best[row])
