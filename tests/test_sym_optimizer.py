import itertools
import math
import tracemalloc

import numpy as np
import pytest

from quditid.sym_optimizer import (
    FEASIBILITY_TOL,
    _frontier_chunks,
    build_symmetric_family,
    frame_operator,
    optimal_weight_grid,
)
from quditid.tensor_core import MAX_DIM


@pytest.mark.parametrize("d", range(2, MAX_DIM + 1))
def test_family_gram(d):
    """The -1/d Gram at every d build_symmetric_family accepts: the family
    record checks nothing itself."""
    fam = build_symmetric_family(d)
    gram = fam.vectors.conj() @ fam.vectors.T
    target = np.eye(d) + (-1.0 / d) * (np.ones((d, d)) - np.eye(d))
    assert np.max(np.abs(gram - target)) <= 1e-12
    assert not fam.vectors.flags.writeable


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_fourier_covariance(d):
    """The diagonal phase unitary cycles the family members, so a single
    group orbit generates all d vectors."""
    fam = build_symmetric_family(d)
    u = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    for n in range(d):
        rotated = u @ fam.vectors[n]
        assert np.max(np.abs(rotated - fam.vectors[(n + 1) % d])) <= 1e-12


def test_phase_sum_rule():
    # sum_n exp(2 pi i (l - l') n / d) = d * delta_{l l'} — the identity
    # behind the off-diagonal cancellation in the frame operator
    for d in (2, 3, 4, 5):
        ns = np.arange(1, d + 1)
        for l in range(d):
            for lp in range(d):
                s = np.exp(2j * np.pi * (l - lp) * ns / d).sum()
                want = d if l == lp else 0.0
                assert abs(s - want) < 1e-12


def test_frame_operator_spectrum_d4():
    fam = build_symmetric_family(4)
    eigs = np.linalg.eigvalsh(frame_operator(fam))
    np.testing.assert_allclose(eigs, [0.25, 1.25, 1.25, 1.25], atol=1e-12)
    assert eigs.sum() == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_frame_operator_trace_and_bottom(d):
    """Spectrum {1/d, (d+1)/d x (d-1)}: the uniform superposition is the
    bottom eigenvector because the -1/d overlaps nearly cancel each
    vector's own contribution."""
    fam = build_symmetric_family(d)
    eigs = np.linalg.eigvalsh(frame_operator(fam))
    assert abs(eigs[0] - 1.0 / d) <= 1e-12
    np.testing.assert_allclose(eigs[1:], (d + 1.0) / d, atol=1e-12)
    assert eigs.sum() == pytest.approx(float(d), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_one_hot_weights_give_rank_one_projectors(d):
    """A one-hot weighting picks out one |v_n><v_n|: idempotent, trace 1."""
    fam = build_symmetric_family(d)
    projs = frame_operator(fam, np.eye(d))
    assert projs.shape == (d, d, d)
    for n in range(d):
        p = projs[n]
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_frame_operator_is_the_weighted_projector_sum(d):
    """Unweighted, on a seeded (200, d) batch and on a (4, 5, d) batch,
    the operator is sum_n w_n |v_n><v_n| over the family's vectors."""
    fam = build_symmetric_family(d)
    projs = [np.outer(v, v.conj()) for v in fam.vectors]
    rng = np.random.default_rng(d)
    for weights in (np.ones(d), rng.random((200, d)), rng.random((4, 5, d))):
        expected = sum(weights[..., n, None, None] * projs[n] for n in range(d))
        got = frame_operator(fam, weights)
        assert got.shape == weights.shape + (d,)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(frame_operator(fam), frame_operator(fam, np.ones(d)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_single_weight_above_one_is_infeasible(d):
    """Rayleigh bound: the top eigenvalue is at least any diagonal matrix
    element, so alpha_n > 1 already violates the summed-operator cap."""
    fam = build_symmetric_family(d)
    for n in range(d):
        w = np.zeros(d)
        w[n] = 1.05
        top = np.linalg.eigvalsh(frame_operator(fam, w))[-1]
        assert top > 1.0 + 1e-10


def test_grid_search_d2():
    fam = build_symmetric_family(2)
    weights, total = optimal_weight_grid(fam, 0.01)
    assert abs(total - 4.0 / 3.0) <= 0.02
    for w in weights:
        assert abs(w - 2.0 / 3.0) <= 0.06
    # feasibility of the returned point
    top = np.linalg.eigvalsh(frame_operator(fam, weights))[-1]
    assert top <= 1.0 + 1e-10


def test_grid_search_d3_band():
    fam = build_symmetric_family(3)
    resolution = 0.05
    weights, total = optimal_weight_grid(fam, resolution)
    assert len(weights) == 3
    want = 9.0 / 4.0
    assert want - 3 * resolution <= total <= want + 1e-9


def test_grid_search_deterministic():
    fam = build_symmetric_family(2)
    w1, t1 = optimal_weight_grid(fam, 0.05)
    w2, t2 = optimal_weight_grid(fam, 0.05)
    np.testing.assert_array_equal(w1, w2)
    assert t1 == t2


def _exhaustive_grid(fam, resolution, chunk=8192):
    """Oracle: scan the whole grid in lexicographic order, keeping the
    first candidate with the largest feasible total."""
    steps = int(math.floor(1.0 / resolution + 1e-9)) + 1
    values = np.arange(steps) * resolution
    best_total, best = -np.inf, None
    combos = list(itertools.product(range(steps), repeat=fam.d))
    for start in range(0, len(combos), chunk):
        alphas = values[np.asarray(combos[start:start + chunk])]
        top = np.linalg.eigvalsh(frame_operator(fam, alphas))[:, -1]
        totals = alphas.sum(axis=1)
        totals[top > 1.0 + FEASIBILITY_TOL] = -np.inf
        i = int(np.argmax(totals))
        if totals[i] > best_total:
            best_total, best = totals[i], alphas[i].copy()
    return best, float(best_total)


# d = 2 has one prefix per grid index: 201 and 501 at 0.005 and 0.002.
@pytest.mark.parametrize(
    "resolution, d",
    [(r, d) for r in [0.1, 0.09, 0.07, 0.05, 0.04, 1 / 30, 0.03, 0.02] for d in (2, 3)]
    + [(0.005, 2), (0.002, 2)],
)
def test_grid_search_matches_exhaustive_scan(d, resolution):
    fam = build_symmetric_family(d)
    weights, total = optimal_weight_grid(fam, resolution)
    want_weights, want_total = _exhaustive_grid(fam, resolution)
    assert weights.tolist() == want_weights.tolist()
    assert total == want_total


def test_grid_search_tie_breaks_on_float_total():
    # With a = 10 * 0.07 and b = 11 * 0.07, (a, a, b) sums to 2.17 while
    # (a, b, a) and (b, a, a) both sum to 2.1700000000000004: the float
    # total beats the lexicographic order, then breaks the remaining tie.
    weights, total = optimal_weight_grid(build_symmetric_family(3), 0.07)
    assert weights.tolist() == [0.7000000000000001, 0.77, 0.7000000000000001]
    assert total == 2.1700000000000004


def test_grid_search_makes_no_eigensolve(monkeypatch):
    # Feasibility comes from one batched elimination per chunk of
    # prefixes, so the search reaches its answer with eigvalsh refusing.
    def refusing(*args, **kwargs):
        raise AssertionError("optimal_weight_grid called eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", refusing)
    weights, total = optimal_weight_grid(build_symmetric_family(3), 0.01)
    assert weights.tolist() == [0.75, 0.75, 0.75]
    assert total == 2.25


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_gram_form_has_the_frame_operator_spectrum(d):
    # With A = [sqrt(w_1) v_1, ..., sqrt(w_d) v_d], the frame operator is
    # A A^dagger and diag(sqrt w) G diag(sqrt w) is A^dagger A: both d x d,
    # so their spectra agree.
    fam = build_symmetric_family(d)
    gram = (fam.vectors.conj() @ fam.vectors.T).real
    weights = np.random.default_rng(d).uniform(0.0, 1.0, size=(200, d))
    r = np.sqrt(weights)
    got = np.linalg.eigvalsh(r[:, :, None] * gram * r[:, None, :])
    want = np.linalg.eigvalsh(frame_operator(fam, weights))
    assert np.max(np.abs(got - want)) <= 1e-12


# Every prefix's frontier gets the frame operator's decision: feasible at
# (p, k*), infeasible at (p, k* + 1) where that is on the grid, and
# infeasible at (p, 0) when there is no frontier.  The frontiers are read
# from the chunks optimal_weight_grid consumes.  The smallest
# |top - (1 + FEASIBILITY_TOL)| over these points is 1.0e-10, at boundary
# points whose top is 1.
@pytest.mark.parametrize("d, resolution", [(2, 0.01), (2, 0.001), (3, 0.01), (3, 0.005)])
def test_grid_feasibility_matches_frame_operator(d, resolution):
    fam = build_symmetric_family(d)
    steps = int(math.floor(1.0 / resolution + 1e-9)) + 1
    values = np.arange(steps) * resolution
    gram = (fam.vectors.conj() @ fam.vectors.T).real
    points = np.concatenate(list(_frontier_chunks(gram, values)))
    prefixes = list(itertools.product(range(steps), repeat=d - 1))
    np.testing.assert_array_equal(points[:, :-1], np.array(prefixes))
    found = points[points[:, -1] >= 0]
    beyond = found[found[:, -1] < steps - 1].copy()
    beyond[:, -1] += 1
    empty = points[points[:, -1] < 0].copy()
    empty[:, -1] = 0
    found_top, beyond_top, empty_top = (
        np.linalg.eigvalsh(frame_operator(fam, values[p]))[:, -1] for p in (found, beyond, empty)
    )
    bound = 1.0 + FEASIBILITY_TOL
    assert np.all(found_top <= bound)
    assert np.all(beyond_top > bound) and np.all(empty_top > bound)
    tops = np.concatenate([found_top, beyond_top, empty_top])
    assert np.abs(tops - bound).min() > 1e-13


def _traced_peak(d, resolution):
    """tracemalloc's peak, in bytes, over one optimal_weight_grid call."""
    fam = build_symmetric_family(d)
    tracemalloc.start()
    try:
        optimal_weight_grid(fam, resolution)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_search_memory_stays_below_the_grid():
    # The d = 3 grid at 0.005 has 201**3 = 8.1M points; the search holds
    # one chunk of at most 4096 prefixes.
    assert _traced_peak(3, 0.005) < 32 * 2**20


def test_grid_search_memory_does_not_grow_with_the_prefixes():
    # 501**2 = 251k prefixes at d = 3, 0.002, taken 4096 at a time, where
    # a batch over every prefix took 69 MiB.
    assert _traced_peak(3, 0.002) < 4 * 2**20
