import cmath
import hashlib
import math
import sys
import threading
from dataclasses import asdict

import numpy as np
import pytest
import scipy.stats

from conftest import basis_ket, element_expectation, outcome_probabilities, pair_sym_projector
from quditid import cli, montecarlo
from quditid.analytics import closed_form_success
from quditid.montecarlo import (
    INCONCLUSIVE,
    Z_99,
    SEED_LIMIT,
    _simulate_range,
    run_experiment,
    trial_batches,
    trial_stream,
)
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
    acc = np.zeros((d * d, d * d), dtype=np.complex128)
    n_samples = 40000
    for _ in range(n_samples):
        psi = haar_state(d, rng)
        pair = np.kron(psi, psi)
        acc += np.outer(pair, pair.conj())
    target = 2.0 * pair_sym_projector(d) / (d * (d + 1))
    assert np.max(np.abs(acc / n_samples - target)) < 0.02


@pytest.mark.parametrize("d", [2, 3])
def test_draw_trials_haar_second_moment(d):
    """The references _draw_trials builds satisfy the same identity,
    E[(|psi><psi|)^{x2}] = 2 P_sym / (d(d+1)), as Haar-random states must."""
    n_samples = 40000
    refs, _, _ = montecarlo._draw_trials(d, 23, 0, n_samples // d)
    psi = refs.reshape(-1, d)
    np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-12)
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
        full = product_state([refs[i, t - 1], *refs[i]]).amps
        for elem in povm.elements:
            want = element_expectation(elem, full)
            if elem.label == t:
                assert abs(p_correct[i] - want) <= 1e-12
            else:
                assert want <= 1e-12


def _batch_size(d):
    """Trials per batch: _BLOCKS Philox blocks, d*d + 1 of them a trial."""
    return max(1, montecarlo._BLOCKS // (d * d + 1))


def _one_trial(d, seed, index):
    """Trial `index` under `seed`, simulated on its own: (truth, outcome,
    success probability)."""
    truths, outcomes, p = _simulate_range(d, seed, index, 1)
    return int(truths[0]), int(outcomes[0]), float(p[0])


def test_run_trial_record_shape():
    """One trial on its own: a truth in 1..d, an outcome that is the truth
    or inconclusive, and a success probability in [0, scale/d!]."""
    truths, outcomes, p = _simulate_range(3, 5, 0, 1)
    assert truths.shape == outcomes.shape == p.shape == (1,)
    assert 1 <= truths[0] <= 3
    assert outcomes[0] in (truths[0], INCONCLUSIVE)
    assert 0.0 <= p[0] <= 0.75 / 6


def test_run_trial_deterministic():
    assert _one_trial(2, 9, 4) == _one_trial(2, 9, 4)


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
    """One trial rebuilt from scalar Philox blocks: block j of trial i has
    counter (i low, i high, j, 0) under key (seed low, seed high); each
    word pair (a, b) gives the uniform ((a >> 6) 2**26 + (b >> 6) + 0.5) /
    2**52; amplitude l of reference j is sqrt(-ln u[2k]) exp(2 pi i
    u[2k+1]) with k = j d + l, normalised per reference; the truth is
    1 + floor(d u[2d²]); the outcome is sampled from u[2d²+1] by inverse
    CDF over [p_1..p_d, p_?], a boundary draw landing in the later interval."""
    d = povm.d
    key = (seed & _MASK32, seed >> 32)
    words = []
    for j in range(d * d + 1):
        words += _philox_block((index & _MASK32, index >> 32, j, 0), key)
    u = [((a >> 6) * 2**26 + (b >> 6) + 0.5) / 2**52 for a, b in zip(words[::2], words[1::2])]
    refs = []
    for j in range(d):
        amps = [
            math.sqrt(-math.log(u[2 * k])) * cmath.exp(2j * math.pi * u[2 * k + 1])
            for k in range(j * d, j * d + d)
        ]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        refs.append(np.array(amps) / norm)
    truth = 1 + math.floor(d * u[2 * d * d])
    p, p_inc = outcome_probabilities(povm, refs[truth - 1], refs)
    k = int(np.sum(np.cumsum(np.append(p, p_inc)) <= u[2 * d * d + 1]))
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


def test_chunk_boundary_trials(monkeypatch, capsys):
    """Trials on either side of a batch boundary equal their single-trial
    rebuild, and a run with different batching gives the same arrays,
    the same counts and the same CSV bytes."""
    chunk = _batch_size(2)
    truths, outcomes, p_correct = _trial_arrays(2, chunk + 2, 11)
    for i in (chunk - 1, chunk, chunk + 1):
        assert _one_trial(2, 11, i) == (truths[i], outcomes[i], p_correct[i])
    argv = ["simulate", "--d", "2", "--trials", str(chunk + 2), "--seed", "11"]
    report = run_experiment(2, chunk + 2, 11)
    assert cli.main(argv + ["--format", "csv"]) == 0
    csv = capsys.readouterr().out.splitlines(keepends=True)
    monkeypatch.setattr(montecarlo, "_BLOCKS", 7 * (2 * 2 + 1))  # 7-trial batches
    for got, want in zip(_trial_arrays(2, chunk + 2, 11), (truths, outcomes, p_correct)):
        np.testing.assert_array_equal(got, want)
    rebatched = run_experiment(2, chunk + 2, 11)
    assert rebatched.success_count == report.success_count
    assert rebatched.inconclusive_count == report.inconclusive_count
    assert cli.main(argv + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines(keepends=True) == csv


@pytest.mark.parametrize("d, size", [(2, 4096), (3, 2048), (5, 787), (10, 202), (14, 103)])
def test_batches_hold_a_fixed_block_budget(d, size):
    """Batches are sized in Philox blocks, not trials, so a batch's
    temporaries stay about the same at every d."""
    assert _batch_size(d) == size
    starts = [start for start, *_ in trial_batches(d, size + 1, 0)]
    assert starts == [0, size]


def _record_threads(monkeypatch):
    """A list that collects every thread montecarlo creates from now on."""
    threads = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            threads.append(self)

    monkeypatch.setattr(montecarlo.threading, "Thread", Recorded)
    return threads


def _cpus(monkeypatch, n):
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_joined(threads):
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()


@pytest.mark.parametrize("d", [4, 5])
def test_threaded_batches_equal_serial_batches(monkeypatch, d):
    """From d = 4 on two CPUs the batches are computed on threads, and
    every column equals the one-CPU serial run's, also when the threads
    switch as often as the interpreter allows."""
    trials = 5 * _batch_size(d) + 3
    threads = _record_threads(monkeypatch)
    _cpus(monkeypatch, 1)
    serial = _trial_arrays(d, trials, 3)
    assert threads == []
    _cpus(monkeypatch, 2)
    interval = sys.getswitchinterval()
    try:
        for switch in (interval, 1e-6):
            sys.setswitchinterval(switch)
            for got, want in zip(_trial_arrays(d, trials, 3), serial):
                np.testing.assert_array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 2 * 2  # two per threaded run, not one per batch
    _assert_joined(threads)


def test_thread_count_falls_back_to_cpu_count(monkeypatch):
    """Without sched_getaffinity, os.cpu_count() decides; d = 3 and a
    single batch stay serial on any CPU count."""
    threads = _record_threads(monkeypatch)
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 1)
    list(trial_batches(4, 3000, 0))
    assert threads == []
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    list(trial_batches(3, 5000, 0))
    list(trial_batches(4, 1000, 0))
    assert threads == []
    list(trial_batches(4, 3000, 0))
    assert len(threads) == 2
    _assert_joined(threads)


def test_closing_threaded_batches_early_joins_their_threads(monkeypatch):
    """Closing after one batch stops and joins both threads, which had
    started at most two batches each beyond the one consumed."""
    simulate = montecarlo._simulate_range
    starts = []

    def counted(d, seed, start, count):
        starts.append(start)
        return simulate(d, seed, start, count)

    threads = _record_threads(monkeypatch)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(montecarlo, "_simulate_range", counted)
    before = threading.active_count()
    batches = trial_batches(5, 10**6, 0)
    assert next(batches)[0] == 0
    batches.close()
    assert threading.active_count() == before
    assert len(threads) == 2
    assert 1 <= len(starts) <= 5
    _assert_joined(threads)


def test_batch_error_reaches_the_consumer(monkeypatch):
    """A batch's exception comes out of the consumer's next, in order,
    and leaves no thread running."""
    simulate = montecarlo._simulate_range
    size = _batch_size(5)

    def failing(d, seed, start, count):
        if start == size:
            raise RuntimeError("second batch")
        return simulate(d, seed, start, count)

    threads = _record_threads(monkeypatch)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(montecarlo, "_simulate_range", failing)
    before = threading.active_count()
    batches = trial_batches(5, 10 * size, 0)
    assert next(batches)[0] == 0
    with pytest.raises(RuntimeError, match="^second batch$"):
        next(batches)
    assert threading.active_count() == before
    assert next(batches, None) is None
    _assert_joined(threads)


def test_extreme_uniforms_stay_inside_unit_interval():
    """The all-zero and all-one word pairs give the extreme uniforms
    2**-53 and 1 - 2**-53: the first gives a finite radius, the second a
    radius > 0 (so no reference can have norm 0) and a truth in 1..d."""
    words = np.array([0, _MASK32], dtype=np.uint64)
    lo, hi = montecarlo._uniforms(words, words)
    assert lo == 2.0**-53 and hi == 1.0 - 2.0**-53
    assert math.isfinite(math.sqrt(-math.log(lo)))
    assert math.sqrt(-math.log(hi)) > 0.0
    for d in range(2, 15):
        assert 1 + math.floor(d * hi) == d


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
    result = scipy.stats.chi2_contingency(np.array(table))
    assert result.pvalue >= 0.01


def test_run_experiment_validation():
    """Both raise at the call: trial_batches before its first batch."""
    for run in (run_experiment, trial_batches):
        with pytest.raises(ValueError):
            run(2, 0, 0)
        with pytest.raises(ValueError, match="must be an integer"):
            run(2, 10.5, 0)
        with pytest.raises(ValueError, match="must be an integer"):
            run(2, True, 0)
        with pytest.raises(ValueError):
            run(2, 10, -1)
        with pytest.raises(ValueError, match="must be an integer"):
            run(2, 10, "seed")
        with pytest.raises(ValueError):
            run(1, 10, 0)


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


# SHA-256 of the (truths, outcomes, p_correct) bytes of trial_batches(d,
# 2100, 7), joined over its batches.  The simulation runs at any d up
# to 14, but the CSV digests pin only d <= 5.  Every outcome here is
# inconclusive, so only the p_correct bytes catch a change in how the
# references are normalised; at d = 8 a reordered sum changes most of them.
SIM_SHA256 = {
    8: (
        "23b5db6eb16da8f661d8ecc8862329694b1a38a274b58927950586dc884b7e3b",
        "efda51d6a2cb7308d88483cbdd30d47fc2d522b943017c725eb4c0cdaa1f58fe",
        "26c9ef26c4c2096344bfda6dd337e5413cdcebce78635de06e8ef09d9b543705",
    ),
    10: (
        "3fe5d213822740a6ce769351eb373d986c1ea07f58f7ecd772f3ca17ddbba11b",
        "efda51d6a2cb7308d88483cbdd30d47fc2d522b943017c725eb4c0cdaa1f58fe",
        "d4fd7316140b5a8a3689fdb76594dc08087a2e2a7ac560d186e4a0909f8db70d",
    ),
}


@pytest.mark.parametrize("d", sorted(SIM_SHA256))
def test_simulation_bytes_are_pinned_past_d5(d):
    columns = _trial_arrays(d, 2100, 7)
    assert [col.dtype.str for col in columns] == ["<i8", "<i8", "<f8"]
    digests = tuple(hashlib.sha256(col.tobytes()).hexdigest() for col in columns)
    assert digests == SIM_SHA256[d]


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
