import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from conftest import basis_ket, element_expectation, outcome_probabilities, pair_sym_projector
from quditid import cli, montecarlo
from quditid.analytics import closed_form_success
from quditid.montecarlo import (
    INCONCLUSIVE,
    Z_99,
    SEED_LIMIT,
    SIM_MAX_DIM,
    _simulate_range,
    haar_average_check,
    run_experiment,
    trial_batches,
    trial_stream,
)
from quditid.state_ops import rho_prefactor
from quditid.tensor_core import haar_state, product_state


def _trial_arrays(d, trials, seed):
    """(truths, outcomes, p_correct) of every trial, joined from
    trial_batches, whose batches must start where the last one ended."""
    starts, *arrays = zip(*trial_batches(d, trials, seed))
    truths, outcomes, p_correct = (np.concatenate(col) for col in arrays)
    sizes = [len(t) for t in arrays[0]]
    assert list(starts) == np.cumsum([0, *sizes[:-1]]).tolist()
    assert len(truths) == len(outcomes) == len(p_correct) == trials
    return truths, outcomes, p_correct


def test_inconclusive_code():
    assert INCONCLUSIVE == 0


def test_sample_haar_norm_and_first_moment():
    rng = np.random.default_rng(0)
    acc = np.zeros(3)
    for _ in range(20000):
        v = haar_state(3, rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        acc += np.abs(v) ** 2
    np.testing.assert_allclose(acc / 20000, 1.0 / 3.0, atol=0.01)


def test_sample_haar_second_moment():
    """E[(|psi><psi|)^{x2}] = 2 P_sym / (d(d+1)) — the identity that makes
    the averaged two-copy state a scaled symmetric projector."""
    d = 2
    rng = np.random.default_rng(17)
    n_samples = 40000
    psi = np.array([haar_state(d, rng) for _ in range(n_samples)])
    pair = (psi[:, :, None] * psi[:, None, :]).reshape(n_samples, d * d)
    second = pair.T @ pair.conj() / n_samples
    target = 2.0 * pair_sym_projector(d) / (d * (d + 1))
    assert np.max(np.abs(second - target)) < 0.02


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_draw_trials_haar_second_moment(d):
    """The references _draw_trials builds satisfy the same identity,
    E[(|psi><psi|)^{x2}] = 2 P_sym / (d(d+1)), as Haar-random states must,
    though each one's first amplitude is real and >= 0: a global phase
    leaves the projector unchanged."""
    n_samples = 40000
    refs, _, _ = montecarlo._draw_trials(d, 23, 0, n_samples // d)
    psi = refs.transpose(0, 2, 1).reshape(-1, d)  # psi[j B + b]: reference j of trial b
    np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-12)
    assert np.all(psi[:, 0].imag == 0.0) and np.all(psi[:, 0].real >= 0.0)
    pair = (psi[:, :, None] * psi[:, None, :]).reshape(len(psi), d * d)
    second = pair.T @ pair.conj() / len(psi)
    target = 2.0 * pair_sym_projector(d) / (d * (d + 1))
    assert np.max(np.abs(second - target)) < 0.02


def test_outcome_probabilities_basis_references(povm2):
    p, p_inc = outcome_probabilities(
        povm2, basis_ket(2, 0), [basis_ket(2, 0), basis_ket(2, 1)]
    )
    assert abs(p[0] - 1.0 / 3.0) <= 1e-12
    assert p[1] <= 1e-30
    assert abs(p_inc - 2.0 / 3.0) <= 1e-12


def test_outcome_probabilities_identical_references(povm2):
    psi = haar_state(2, np.random.default_rng(3))
    p, p_inc = outcome_probabilities(povm2, psi, [psi, psi])
    assert p.max() <= 1e-25
    assert p_inc >= 1.0 - 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_probabilities_match_operator_expectations(d, povm2, povm3):
    """Determinant fast path against <Psi| element |Psi> computed from the
    stored measurement vectors."""
    povm = {2: povm2, 3: povm3}[d]
    rng = np.random.default_rng(31)
    for _ in range(20):
        factors = [haar_state(d, rng) for _ in range(d + 1)]
        full = product_state(factors)
        p, p_inc = outcome_probabilities(povm, factors[0], factors[1:])
        for elem in povm.elements:
            want = element_expectation(elem, full.amps)
            assert abs(p[elem.label - 1] - want) <= 1e-12
        assert abs(p_inc - (1.0 - p.sum())) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 10])
def test_probs_batch_is_c_times_the_squared_determinant(d):
    """Gram-Schmidt's |det R|² over a full drawn batch against LAPACK's
    determinant, which only this test calls: within 1e-12 relative."""
    refs = montecarlo._draw_trials(d, 70 + d, 0, montecarlo._batch_size(d))[0]
    dets = np.linalg.det(refs.transpose(2, 0, 1))  # before _probs_batch overwrites refs
    want = d / (d + 1) / math.factorial(d) * np.abs(dets) ** 2
    np.testing.assert_allclose(montecarlo._probs_batch(d, refs), want, rtol=1e-12, atol=0)


def test_probs_batch_is_zero_for_equal_references():
    """A reference equal to an earlier one gives p = 0, finite, and the
    other trials of its batch keep their values.  The equal references
    below are exact in binary, so Gram-Schmidt leaves an exact zero norm,
    which must not turn the later steps into NaN.  A drawn reference
    repeated leaves a norm at rounding level instead, as LAPACK's LU did
    in 43% of such trials at d = 3."""
    d = 3
    refs = montecarlo._draw_trials(d, 9, 0, 64)[0]
    dets = np.linalg.det(refs.transpose(2, 0, 1))
    x = np.array([1 + 1j, 1 - 1j, 0]) / 2
    e = np.eye(d)
    exact = {5: [x, x, e[2]], 17: [e[0], e[1], e[0]], 40: [np.zeros(d), e[1], e[2]]}
    for b, rows in exact.items():
        refs[..., b] = rows
    refs[2, :, 50] = refs[1, :, 50]
    p = montecarlo._probs_batch(d, refs)
    assert np.all(np.isfinite(p))
    assert p[list(exact)].tolist() == [0.0, 0.0, 0.0]
    assert 0.0 <= p[50] <= 1e-28
    rest = np.setdiff1d(np.arange(64), [*exact, 50])
    want = d / (d + 1) / math.factorial(d) * np.abs(dets[rest]) ** 2
    np.testing.assert_allclose(p[rest], want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_simulation_matches_measurement_vectors(d, povm2, povm3, povm4):
    """Cross-layer spot check: each simulated trial's success probability
    equals <Psi|Pi_t|Psi> from build_povm's dense vectors, Psi being the
    trial's product input with the probe equal to reference t, and every
    other conclusive element has zero expectation on Psi."""
    povm = {2: povm2, 3: povm3, 4: povm4}[d]
    seed = 40 + d
    refs, truths, _ = montecarlo._draw_trials(d, seed, 0, 20)
    batch_truths, _, p_correct = _trial_arrays(d, 20, seed)
    np.testing.assert_array_equal(batch_truths, truths)
    for i, t in enumerate(truths):
        full = product_state([refs[t - 1, :, i], *refs[..., i]]).amps
        for elem in povm.elements:
            want = element_expectation(elem, full)
            if elem.label == t:
                assert abs(p_correct[i] - want) <= 1e-12
            else:
                assert want <= 1e-12


def _one_trial(d, seed, index):
    """Trial `index` under `seed`, simulated on its own: (truth, outcome,
    success probability)."""
    truths, outcomes, p = _simulate_range(d, seed, index, 1)
    return int(truths[0]), int(outcomes[0]), float(p[0])


def test_single_trial_record_shape():
    """One trial on its own: a truth in 1..d, an outcome that is the truth
    or inconclusive, and a success probability in [0, scale/d!]."""
    truths, outcomes, p = _simulate_range(3, 5, 0, 1)
    assert truths.shape == outcomes.shape == p.shape == (1,)
    assert 1 <= truths[0] <= 3
    assert outcomes[0] in (truths[0], INCONCLUSIVE)
    assert 0.0 <= p[0] <= 0.75 / 6


def test_single_trial_deterministic():
    assert _one_trial(2, 9, 4) == _one_trial(2, 9, 4)


def test_lone_trial_equals_its_row_in_a_batch(capsys):
    """A trial simulated on its own has the bytes of its row in a 64-trial
    batch, at every d, though numpy sums a single trial's amplitudes
    pairwise and a batch's in sequence.  So a CSV row does not depend on
    whether its trial ends up alone in the last batch: at d = 5 trial 787
    is alone with 788 trials and one of two with 789."""
    for d in (2, 3, 4, 5, 8, 10):
        batch = _simulate_range(d, 3, 0, 64)
        for i in range(64):
            lone = _simulate_range(d, 3, i, 1)
            assert [col.tobytes() for col in lone] == [col[i : i + 1].tobytes() for col in batch], (d, i)
    assert montecarlo._batch_size(5) == 787
    rows = []
    for trials in (788, 789):
        assert cli.main(["simulate", "--d", "5", "--seed", "3", "--trials", str(trials), "--format", "csv"]) == 0
        rows.append(capsys.readouterr().out.splitlines()[1 + 787])
    assert rows[0].startswith("787,") and rows[0] == rows[1]


def test_run_experiment_counts_and_rates(povm2):
    report = run_experiment(2, 5000, 1)
    assert report.success_count + report.error_count + report.inconclusive_count == 5000
    assert report.error_count == 0
    assert report.success_rate + report.error_rate + report.inconclusive_rate == 1.0
    assert report.ci99_half_width == pytest.approx(
        Z_99 * math.sqrt(report.success_rate * (1 - report.success_rate) / 5000)
    )
    truths, outcomes, _ = _trial_arrays(2, 5000, 1)
    assert report.success_count == np.count_nonzero(outcomes == truths)
    assert report.inconclusive_count == np.count_nonzero(outcomes == INCONCLUSIVE)


_MASK32 = 0xFFFFFFFF


def _philox_block(ctr, key):
    """Philox-4x32-10 of one counter (c0, c1, c2, c3) under key (k0, k1),
    on Python integers: ten rounds, the key bumped between rounds."""
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for r in range(10):
        if r:
            k0 = (k0 + 0x9E3779B9) & _MASK32
            k1 = (k1 + 0xBB67AE85) & _MASK32
        p0 = 0xD2511F53 * c0
        p1 = 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (
            (p1 >> 32) ^ c1 ^ k0,
            p1 & _MASK32,
            (p0 >> 32) ^ c3 ^ k1,
            p0 & _MASK32,
        )
    return c0, c1, c2, c3


# Random123 known-answer vectors for Philox-4x32-10: counter, key, output.
_PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    (
        (_MASK32, _MASK32, _MASK32, _MASK32),
        (_MASK32, _MASK32),
        (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
    ),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


@pytest.mark.parametrize("ctr,key,want", _PHILOX_KAT)
def test_philox4x32_known_answers(ctr, key, want):
    assert _philox_block(ctr, key) == want
    got = montecarlo._philox4x32(np.array(ctr, dtype=np.uint64)[:, None], key)
    assert got.dtype == np.uint64
    assert tuple(int(w) for w in got[:, 0]) == want


def _rebuild_trial(povm, seed, index):
    """One trial rebuilt from scalar Philox blocks: block k of trial i has
    counter (i low, i high, k, 0) under key (seed low, seed high).  Blocks
    k < m = ceil((2d² - d)/4) hold the stream words, word w of block k
    being stream word w m + k, and stream word s gives the uniform
    u[s] = (s's word + 0.5) / 2**32.  Amplitude l of reference j is
    sqrt(-ln u[j d + l]) times, for l >= 1, exp(2 pi i u[d² + j (d-1) +
    l - 1]), normalised per reference.  Block m's word pairs (a, b) give
    the uniforms ((a >> 6) 2**26 + (b >> 6) + 0.5) / 2**52: the truth is
    1 + floor(d v) for the first, and the outcome is sampled from the
    second by inverse CDF over [p_1..p_d, p_?], a boundary draw landing in
    the later interval."""
    d = povm.d
    key = (seed & _MASK32, seed >> 32)
    m = -(-(2 * d * d - d) // 4)
    blocks = [_philox_block((index & _MASK32, index >> 32, k, 0), key) for k in range(m + 1)]
    u = [(blocks[k][w] + 0.5) / 2**32 for w in range(4) for k in range(m)]
    refs = []
    for j in range(d):
        amps = [math.sqrt(-math.log(u[j * d + l])) for l in range(d)]
        for l in range(1, d):
            amps[l] *= cmath.exp(2j * math.pi * u[d * d + j * (d - 1) + l - 1])
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        refs.append(np.array(amps) / norm)
    a0, b0, a1, b1 = blocks[m]
    v_truth, v_outcome = (((a >> 6) * 2**26 + (b >> 6) + 0.5) / 2**52 for a, b in ((a0, b0), (a1, b1)))
    truth = 1 + math.floor(d * v_truth)
    p, p_inc = outcome_probabilities(povm, refs[truth - 1], refs)
    k = int(np.sum(np.cumsum(np.append(p, p_inc)) <= v_outcome))
    outcome = k + 1 if k < d else INCONCLUSIVE
    return truth, outcome, p[truth - 1], p_inc


def test_run_experiment_matches_single_trials(povm2, povm3):
    for povm, seed in ((povm2, 7), (povm3, 2**64 - 1)):
        d = povm.d
        truths, outcomes, p_correct = _trial_arrays(d, 64, seed)
        for i in (0, 5, 17, 63):
            assert _one_trial(d, seed, i) == (truths[i], outcomes[i], p_correct[i])
            truth, outcome, p_want, p_inc = _rebuild_trial(povm, seed, i)
            assert truth == truths[i]
            assert outcome == outcomes[i]
            assert abs(p_want - p_correct[i]) <= 1e-12
            assert abs(p_inc - (1.0 - p_correct[i])) <= 1e-12


def test_trial_beyond_32_bit_index_matches_oracle(povm2):
    """The high half of the trial index reaches the Philox counter."""
    for index in (2**32 + 3, 2**64 - 1):
        got_truth, got_outcome, got_p = _one_trial(2, 5, index)
        truth, outcome, p_correct, p_inc = _rebuild_trial(povm2, 5, index)
        assert (got_truth, got_outcome) == (truth, outcome)
        assert abs(got_p - p_correct) <= 1e-12
        assert abs((1.0 - got_p) - p_inc) <= 1e-12


@pytest.mark.parametrize("start,count", [(2**32 - 2, 4), (2**64 - 3, 3)])
def test_batch_across_counter_carry_matches_oracle(povm2, start, count):
    """One batch whose trial indices carry from the counter's low word
    into its high word, or run up to the last index, equals the scalar
    rebuild trial by trial."""
    truths, outcomes, p_correct = _simulate_range(2, 5, start, count)
    for k in range(count):
        truth, outcome, p_want, p_inc = _rebuild_trial(povm2, 5, start + k)
        assert (truths[k], outcomes[k]) == (truth, outcome)
        assert abs(p_correct[k] - p_want) <= 1e-12
        assert abs((1.0 - p_correct[k]) - p_inc) <= 1e-12


def test_batch_boundary_trials(monkeypatch, capsys):
    """Trials on either side of a batch boundary equal their single-trial
    rebuild, and a run with different batching gives the same arrays,
    the same counts and the same CSV bytes."""
    chunk = montecarlo._batch_size(2)
    truths, outcomes, p_correct = _trial_arrays(2, chunk + 2, 11)
    for i in (chunk - 1, chunk, chunk + 1):
        assert _one_trial(2, 11, i) == (truths[i], outcomes[i], p_correct[i])
    argv = ["simulate", "--d", "2", "--trials", str(chunk + 2), "--seed", "11"]
    report = run_experiment(2, chunk + 2, 11)
    assert cli.main(argv + ["--format", "csv"]) == 0
    csv = capsys.readouterr().out.splitlines(keepends=True)
    monkeypatch.setattr(montecarlo, "_BLOCKS", 7 * 3)  # 7-trial batches, 3 blocks a trial
    for got, want in zip(_trial_arrays(2, chunk + 2, 11), (truths, outcomes, p_correct)):
        np.testing.assert_array_equal(got, want)
    rebatched = run_experiment(2, chunk + 2, 11)
    assert rebatched.success_count == report.success_count
    assert rebatched.inconclusive_count == report.inconclusive_count
    assert cli.main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines(keepends=True) == csv


@pytest.mark.parametrize("d, size", [(2, 3413), (3, 2048), (5, 787), (8, 330), (10, 208)])
def test_batches_hold_a_fixed_block_budget(d, size):
    """Batches are sized in Philox blocks, not trials, so a batch's
    temporaries stay about the same at every d."""
    assert montecarlo._batch_size(d) == size
    starts = [start for start, *_ in trial_batches(d, size + 1, 0)]
    assert starts == [0, size]


@pytest.mark.parametrize("d", [2, 3, 5, 8, 10])
def test_one_batch_holds_its_temporaries_under_a_bound(d):
    """One full batch's traced allocations peak at no more than 1.45 MiB
    at every d, so a batch's temporaries cannot raise the peak RSS of a
    run unnoticed (0.60, 0.72, 0.85, 0.89 and 0.83 MiB here at d = 2, 3,
    5, 8 and 10; the first draw, which builds the 80 KiB phase tables,
    peaks 0.07 to 0.08 MiB higher)."""
    tracemalloc.start()
    try:
        _simulate_range(d, 5, 0, montecarlo._batch_size(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.45 * 2**20, peak / 2**20


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 10])
def test_batches_run_serially_one_per_next(monkeypatch, d):
    """trial_batches starts no thread at any d, and computes a batch only
    when the consumer asks for it: one next has run _simulate_range once."""
    simulate = montecarlo._simulate_range
    starts = []

    def counted(d, seed, start, count):
        starts.append(start)
        return simulate(d, seed, start, count)

    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    monkeypatch.setattr(montecarlo, "_simulate_range", counted)
    batches = trial_batches(d, 10 * montecarlo._batch_size(d), 0)
    assert starts == []
    assert next(batches)[0] == 0
    assert starts == [0]
    assert started == []


def test_batch_error_reaches_the_consumer(monkeypatch):
    """A batch's exception comes out of the consumer's next, in order,
    and the batches after it are not computed."""
    simulate = montecarlo._simulate_range
    size = montecarlo._batch_size(5)
    starts = []

    def failing(d, seed, start, count):
        starts.append(start)
        if start == size:
            raise RuntimeError("second batch")
        return simulate(d, seed, start, count)

    monkeypatch.setattr(montecarlo, "_simulate_range", failing)
    batches = trial_batches(5, 10 * size, 0)
    assert next(batches)[0] == 0
    with pytest.raises(RuntimeError, match="^second batch$"):
        next(batches)
    assert starts == [0, size]


def test_extreme_uniforms_stay_inside_unit_interval():
    """The all-zero and all-one word pairs give the extreme 52-bit uniforms
    2**-53 and 1 - 2**-53, a truth in 1..d from the second.  The radius
    words 0 and 2**32 - 1 give 2**-33 and 1 - 2**-33: the first a finite
    radius, the second a radius > 0 (so no reference can have norm 0)."""
    words = np.array([0, _MASK32], dtype=np.uint64)
    lo, hi = montecarlo._uniforms(words, words)
    assert lo == 2.0**-53 and hi == 1.0 - 2.0**-53
    for d in range(2, 15):
        assert 1 + math.floor(d * hi) == d
    lo, hi = montecarlo._uniforms32(words)
    assert lo == 2.0**-33 and hi == 1.0 - 2.0**-33
    assert math.isfinite(math.sqrt(-math.log(lo)))
    assert math.sqrt(-math.log(hi)) > 0.0


def test_phase_factors_come_from_three_tables(monkeypatch):
    """The tables hold 2048, 2048 and 1024 entries, each of modulus 1
    within 1e-15.  A drawn amplitude's phase factor lies within 2e-15 of
    exp(2 pi i (w + 0.5) 2**-32), taken by cmath, for the words at the
    tables' index boundaries and 10,000 drawn words: Philox is stubbed so
    that they are the draw's phase words, and equal radius words give
    every amplitude the radius sqrt(1/2)."""
    hi, mid, lo = montecarlo._phase_tables()
    assert [table.size for table in (hi, mid, lo)] == [2048, 2048, 1024]
    for table in (hi, mid, lo):
        assert np.max(np.abs(np.abs(table) - 1.0)) <= 1e-15
    words = [0, 1, 1023, 1024, 2**21 - 1, 2**21, 2**31, 2**32 - 1]
    words += np.random.default_rng(8).integers(0, 2**32, 10_000).tolist()

    def stub(c, key):
        # d = 2, m = 2: stream word w m + k is word w of block k < 2, so
        # words 0..3 are the radius words and words 4, 5 the phase words
        # of references 0 and 1.
        blocks = c.reshape(4, 3, len(words))
        blocks[...] = 0
        blocks[:2, :2] = 2**31
        blocks[2, 0] = blocks[2, 1] = words
        return c

    monkeypatch.setattr(montecarlo, "_philox4x32", stub)
    refs = montecarlo._draw_trials(2, 0, 0, len(words))[0]
    assert np.all(refs[:, 0] == math.sqrt(0.5))
    phase = refs[:, 1] / refs[:, 0].real
    want = np.array([cmath.exp(2j * math.pi * (w + 0.5) / 2**32) for w in words])
    assert np.max(np.abs(phase - want)) <= 2e-15


def test_run_experiment_convergence():
    report = run_experiment(2, 20000, 7)
    p = closed_form_success(2)
    assert abs(report.success_rate - p) <= 3.0 * math.sqrt(p * (1 - p) / 20000)
    assert report.error_count == 0


def test_success_rate_symmetric_across_truths():
    """No prepared index is easier to identify than another (1% chi-square)."""
    truths, outcomes, _ = _trial_arrays(2, 30000, 99)
    table = []
    for n in (1, 2):
        mask = truths == n
        succ = int(np.count_nonzero(outcomes[mask] == n))
        table.append([succ, int(mask.sum()) - succ])
    # Yates-corrected chi-square of the 2 x 2 table, one degree of freedom.
    (a, b), (c, d) = table
    total = a + b + c + d
    shift = max(abs(a * d - b * c) - total / 2, 0.0)
    x = total * shift**2 / ((a + b) * (c + d) * (a + c) * (b + d))
    assert math.erfc(math.sqrt(x / 2)) >= 0.01


def success_moment(d, k):
    """E[p_correct**k] for Haar-random references, exactly.  Gram-Schmidt on
    the reference columns gives |det R|**2 = prod_{j=2..d} B_j with
    independent B_j ~ Beta(d - j + 1, j - 1) (Goodman, Ann. Math. Statist.
    1963), so p = c prod B_j with c = d/((d + 1) d!), and
    E[p**k] = c**k prod_{j=2..d} (d - j + 1)_k / (d)_k, (x)_k rising."""
    def rising(x):
        return math.prod(range(x, x + k))

    c = Fraction(d, (d + 1) * math.factorial(d))
    return float(c**k * math.prod(Fraction(rising(d - j + 1), rising(d)) for j in range(2, d + 1)))


# Trials per d for the moment tests: about 1.6 s in all.
LAW_TRIALS = {2: 200_000, 3: 200_000, 4: 200_000, 5: 100_000, 8: 20_000, 10: 10_000}


@pytest.mark.parametrize("d", sorted(LAW_TRIALS))
def test_success_probability_moments_match_the_law(d):
    """The mean of p_correct and of its square lie within 5 standard errors
    of the exact moments, each error taken from the exact moment of twice
    the order.  Counted rates cannot see a wrong law of p; these can."""
    trials = LAW_TRIALS[d]
    p = _trial_arrays(d, trials, 3601)[2]
    for k in (1, 2):
        want = success_moment(d, k)
        se = math.sqrt((success_moment(d, 2 * k) - want**2) / trials)
        z = (float(np.mean(p**k)) - want) / se
        assert abs(z) < 5.0, (k, z)


def test_success_probability_is_uniform_at_d2():
    """At d = 2, p = B_2/3 with B_2 ~ Beta(1, 1): uniform on (0, 1/3).  A
    Kolmogorov-Smirnov test against that law, with the exact law of the
    one-sided statistic (smirnov): twice its tail bounds the two-sided
    p-value from above, so a false alarm has odds below 1e-6."""
    from scipy.special import smirnov

    u = np.sort(3.0 * _trial_arrays(2, 50_000, 3602)[2])
    n = len(u)
    steps = np.arange(1, n + 1) / n
    stat = max(float(np.max(steps - u)), float(np.max(u - (steps - 1.0 / n))))
    assert 2.0 * smirnov(n, stat) >= 1e-6


def test_success_moment_closed_forms():
    """The oracle's first moment is the closed-form success probability,
    and at d = 2 its moments are those of the uniform law on (0, 1/3)."""
    for d in (2, 3, 4, 5, 8, 10):
        assert success_moment(d, 1) == pytest.approx(closed_form_success(d), rel=1e-15)
    for k in (1, 2, 3, 4):
        assert success_moment(2, k) == pytest.approx(1 / ((k + 1) * 3**k), rel=1e-15)


def test_trial_batches_refuses_at_the_call():
    """Each argument is checked before the first batch is taken."""
    for d, trials, seed in [(1, 10, 0), (2, 0, 0), (2, 10, -1)]:
        with pytest.raises(ValueError):
            trial_batches(d, trials, seed)


@pytest.mark.parametrize("d", [1, SIM_MAX_DIM + 1])
@pytest.mark.parametrize("run", [run_experiment, trial_batches], ids=lambda f: f.__name__)
def test_simulation_bound_names_itself(run, d):
    """The simulation's bound on d is not check_dim's 2..14, and its
    message says so."""
    with pytest.raises(ValueError, match=rf"^dimension of a simulation must lie in 2\.\.{SIM_MAX_DIM}, got {d}$"):
        run(d, 10, 0)


def test_seed_and_index_range():
    """Seeds and trial indices fill 64 bits of the Philox key and counter."""
    assert SEED_LIMIT == 2**64
    assert trial_stream(2**64 - 1, 2**64 - 1) == (2**64 - 1, 2**64 - 1)
    assert run_experiment(2, 3, 2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ValueError):
        run_experiment(2, 10, 2**64)
    with pytest.raises(ValueError):
        trial_stream(2**64, 0)
    with pytest.raises(ValueError):
        trial_stream(0, 2**64)
    with pytest.raises(ValueError):
        trial_stream(0, -1)
    with pytest.raises(ValueError, match="must be an integer"):
        trial_stream(0, 1.0)


def test_counts_share_the_64_bit_bound():
    """A count of trials or samples is bounded like a trial index: the
    largest is 2**64 - 1, checked at the call without simulating."""
    trial_batches(2, 2**64 - 1, 0)
    with pytest.raises(ValueError, match=r"^trials must lie in 1\.\.18446744073709551615"):
        trial_batches(2, 2**64, 0)
    with pytest.raises(ValueError, match=r"^samples must lie in 1\.\."):
        montecarlo.haar_average_check(2, 1, 2**64, 0)


def test_haar_average_converges():
    dev = haar_average_check(2, 1, 20000, seed=5)
    assert dev < 0.02


def test_haar_average_single_sample_is_far():
    # one pure-state projector cannot reproduce a rank-6 mixture
    assert haar_average_check(2, 1, 1, seed=5) > 0.05


@pytest.mark.parametrize("d, samples, seed", [(2, 100000, 2024), (3, 20000, 1)])
def test_haar_average_check_catches_the_wrong_reference(monkeypatch, d, samples, seed):
    """The probe copies reference n of the arguments, so an operator built
    for another reference deviates by a share of its prefactor, while the
    exact operator's deviation stays well below it."""
    bound = rho_prefactor(d) / 4
    assert montecarlo.haar_average_check(d, 1, samples, seed) < bound
    real = montecarlo.build_rho
    monkeypatch.setattr(montecarlo, "build_rho", lambda dim, n: real(dim, n % dim + 1))
    assert montecarlo.haar_average_check(d, 1, samples, seed) > bound


def test_haar_average_check_draws_the_trial_batches(monkeypatch):
    """haar_average_check draws the references of trial_batches' batches:
    the same (start, count) spans, here one full batch and one trial."""
    size = montecarlo._batch_size(2)
    spans = [(start, len(truths)) for start, truths, *_ in trial_batches(2, size + 1, 5)]
    assert spans == [(0, size), (size, 1)]
    calls = []
    real = montecarlo._draw_trials
    def draw(d, seed, start, count):
        calls.append((d, seed, start, count))
        return real(d, seed, start, count)
    monkeypatch.setattr(montecarlo, "_draw_trials", draw)
    montecarlo.haar_average_check(2, 1, size + 1, 5)
    assert calls == [(2, 5, *span) for span in spans]


# SHA-256 of the (truths, outcomes, p_correct) bytes of trial_batches(d,
# 2100, 7), joined over its batches.  The simulation runs at any d up to
# SIM_MAX_DIM = 10, but the CSV digests pin only d <= 5.  Every outcome
# here is inconclusive, so only the p_correct bytes catch a change in how
# the references are normalised; at d = 8 a reordered sum changes most of
# them.
SIM_SHA256 = {
    8: (
        "42ac985697ca5e3a36e88bdb0e32af370eb7f8a97be4aa70588aa3c987ab9148",
        "efda51d6a2cb7308d88483cbdd30d47fc2d522b943017c725eb4c0cdaa1f58fe",
        "cc12e8b044ee376008f05e18fa88304efec09c40ebb1132e9b20eda47c4f517a",
    ),
    10: (
        "d3995e9a1dc19ebf689f7131881109d61491b71e10007256cf8dea536e142038",
        "efda51d6a2cb7308d88483cbdd30d47fc2d522b943017c725eb4c0cdaa1f58fe",
        "3d4a97ddd73ebcb0368c603b72c6975502bbb29d998f0c557c76df4b8fc12c2c",
    ),
}


@pytest.mark.parametrize("d", sorted(SIM_SHA256))
def test_simulation_bytes_are_pinned_past_d5(d):
    columns = _trial_arrays(d, 2100, 7)
    assert [col.dtype.str for col in columns] == ["<i8", "<i8", "<f8"]
    digests = tuple(hashlib.sha256(col.tobytes()).hexdigest() for col in columns)
    assert digests == SIM_SHA256[d]


def test_pinned_simulation_bytes_do_not_depend_on_openblas():
    """The simulation calls no BLAS or LAPACK routine, so the pinned
    p_correct and CSV digests hold in a fresh interpreter with OpenBLAS
    held to its Haswell kernels.  This is not full portability: numpy's
    own SIMD log, exp and complex arithmetic still depend on the CPU."""
    from test_cli import CSV_SHA256

    code = f"""
import hashlib, json, os, tempfile
import numpy as np
from quditid import cli, montecarlo
sim = {{}}
for d in {sorted(SIM_SHA256)!r}:
    columns = [np.concatenate(col) for col in list(zip(*montecarlo.trial_batches(d, 2100, 7)))[1:]]
    sim[d] = [hashlib.sha256(col.tobytes()).hexdigest() for col in columns]
csv = []
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "trials.csv")
    for d, trials, seed in {sorted(CSV_SHA256)!r}:
        argv = ["simulate", "--d", str(d), "--trials", str(trials), "--seed", str(seed),
                "--format", "csv", "--out", path]
        assert cli.main(argv) == 0
        with open(path, "rb") as f:
            csv.append(hashlib.sha256(f.read()).hexdigest())
print(json.dumps({{"sim": sim, "csv": csv}}))
"""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert {int(d): tuple(v) for d, v in result["sim"].items()} == SIM_SHA256
    assert result["csv"] == [CSV_SHA256[key] for key in sorted(CSV_SHA256)]


def test_summary_dict_is_scalar_only():
    """The simulate JSON is asdict(report): every field, in declaration
    order, each a scalar."""
    report = run_experiment(2, 100, 0)
    summary = asdict(report)
    assert list(summary) == [
        "d",
        "trials",
        "seed",
        "success_count",
        "error_count",
        "inconclusive_count",
        "success_rate",
        "error_rate",
        "inconclusive_rate",
        "ci99_half_width",
        "wall_time_s",
    ]
    assert all(np.isscalar(v) for v in summary.values())
