"""Monte Carlo simulation of the identification experiment.

Each trial draws d Haar-random reference states, loads the probe with a
uniformly chosen one of them, and samples a measurement outcome.  With
the probe equal to reference t, every conclusive outcome other than t
has probability zero (its detection states are antisymmetric over two
equal factors), and outcome t has probability (d/(d+1))/d! |det R|², R
the d x d matrix of the references: one determinant per trial, never a
dense operator.  The inconclusive probability is the complement.

Reproducibility: trial i's random words are a pure function of
(seed, i).  They come from the counter-based generator Philox-4x32-10
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
keyed by the seed and counted by the trial index and block, and are
computed for a whole batch of trials at once: trial i takes d*d + 1
blocks, one per reference amplitude and a last one for its true index
and outcome uniform.  Seeds, trial indices and counts of trials or
samples are integers in [0, 2**64), counts at least 1; anything else is
a ValueError, by the rule check_dim follows.
trial_batches(d, trials, seed) yields the trials in batches of _BLOCKS
Philox blocks (about 1.4 MiB of temporaries), computed on two threads
from d = 4 given two batches and CPUs; a trial at d <= 3 is too little
work for threads.  Its values are the same however batched or threaded.
_simulate_range(d, seed, i, 1) reproduces trial i on its own.

haar_average_check checks state_ops.build_rho against the same draws.
"""

import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .state_ops import build_rho
from .tensor_core import _check_index, check_dim

# perfbench/child.py binds montecarlo.haar_state and .trial_stream by name,
# so both stay module attributes though no library path calls them.
from .tensor_core import haar_state  # noqa: F401

# Outcome code for "no identification made"; conclusive outcomes are 1..d.
INCONCLUSIVE = 0

# Two-sided 99% normal quantile, for the confidence half-width.
Z_99 = 2.5758293035489004

# Philox blocks per batch, d*d + 1 a trial: 2048 trials at d = 3, 787 at d = 5.
_BLOCKS = 20480

# Seeds and trial indices fill the 64-bit Philox key and counter halves.
SEED_LIMIT = 2**64

_MASK32 = 0xFFFFFFFF
_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)


def trial_stream(seed, index):
    """Handle of trial `index` under `seed`: the validated (seed, index)."""
    top = SEED_LIMIT - 1
    return _check_index("seed", seed, 0, top), _check_index("trial index", index, 0, top)


def _philox4x32(c, key):
    """Philox-4x32-10 of the (4, n) uint64 counters `c` under key (k0, k1).

    The ten rounds overwrite `c` with the output words, and `c` is
    returned.  Every word stays below 2**32: each product is taken in
    uint64, whose high and low halves are Philox's mulhi and mullo.
    """
    c0, c1, c2, c3 = c
    p0 = np.empty_like(c0)
    p1 = np.empty_like(c0)
    k0, k1 = key
    for _ in range(10):
        np.multiply(c0, _PHILOX_M[0], out=p0)
        np.multiply(c2, _PHILOX_M[1], out=p1)
        np.right_shift(p1, 32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.bitwise_and(p1, _MASK32, out=c1)
        np.right_shift(p0, 32, out=c2)
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(p0, _MASK32, out=c3)
        k0 = (k0 + _PHILOX_W[0]) & _MASK32
        k1 = (k1 + _PHILOX_W[1]) & _MASK32
    return c


def _uniforms(a, b):
    """Uniforms in (0, 1) from uint64 words below 2**32: 26 bits of each
    word a, b give ((a >> 6) * 2**26 + (b >> 6) + 0.5) / 2**52, exact in
    float64, so the extremes are 2**-53 and 1 - 2**-53."""
    m = ((a >> 6) << 26) | (b >> 6)
    return (m.astype(np.float64) + 0.5) * 2.0**-52


def _draw_trials(d, seed, start, count):
    """Reference states, true indices and outcome uniforms of the trials
    start .. start + count - 1 under `seed`.

    Block k of trial i is Philox-4x32-10 of counter (i & 0xffffffff,
    i >> 32, k, 0) under key (seed & 0xffffffff, seed >> 32), for
    k = 0..d*d, and each word pair gives one uniform (see _uniforms).
    Block k < d² is amplitude k % d of reference k // d: with u from its
    words 0, 1 and v from its words 2, 3, the amplitude is
    sqrt(-ln u) * exp(2 pi i v), and each reference is then normalised;
    since every u < 1, every radius is > 0.  Block d² gives the true
    index 1 + floor(d u) from its words 0, 1 and the outcome uniform from
    its words 2, 3.  Returns refs (count, d, d), truths (count,) and
    uniforms (count,).
    """
    n = d * d
    trial = np.uint64(start) + np.arange(count, dtype=np.uint64)
    c = np.zeros((4, n + 1, count), dtype=np.uint64)
    c[0] = trial & _MASK32
    c[1] = trial >> 32
    c[2] = np.arange(n + 1, dtype=np.uint64)[:, None]
    _philox4x32(c.reshape(4, -1), (seed & _MASK32, seed >> 32))
    energy = -np.log(_uniforms(c[0, :n], c[1, :n]).T.reshape(count, d, d))
    energy /= energy.sum(axis=-1, keepdims=True)
    refs = np.exp((2j * np.pi) * _uniforms(c[2, :n], c[3, :n]).T.reshape(count, d, d))
    refs *= np.sqrt(energy)
    truths = 1 + (d * _uniforms(c[0, n], c[1, n])).astype(np.int64)  # floor, as u > 0
    return refs, truths, _uniforms(c[2, n], c[3, n])


def _probs_batch(d, refs):
    """Success probability of each trial in a batch whose probe equals
    its true reference: c |det R|² for refs (B, d, d), R[b] the matrix of
    trial b's references and c = (d/(d+1))/d!, which by Hadamard's
    inequality bounds it for unit-norm references.  Returns shape (B,).
    """
    dets = np.linalg.det(refs)
    return (d / (d + 1) / math.factorial(d)) * (dets.real**2 + dets.imag**2)


def _simulate_range(d, seed, start, count):
    """Truths, outcomes and success probabilities of the trials
    [start, start + count).  The outcome is the truth when the outcome
    uniform lies below the success probability, else inconclusive."""
    refs, truths, us = _draw_trials(d, seed, start, count)
    p = _probs_batch(d, refs)
    return truths, np.where(us < p, truths, INCONCLUSIVE), p


def _in_order(fn, items):
    """fn(item) for each item of the sequence `items`, in order, from two
    daemon threads that take turns, each at most two items ahead.  A call's
    exception is raised here; closing stops and joins the threads."""
    done = ([], [])  # (value, exception) pairs per thread, in order
    ready = (threading.Semaphore(0), threading.Semaphore(0))
    room = (threading.Semaphore(2), threading.Semaphore(2))
    stop = False
    def work(k):
        for item in items[k::2]:
            room[k].acquire()
            if stop:
                return
            try:
                done[k].append((fn(item), None))
            except BaseException as exc:
                done[k].append((None, exc))
            ready[k].release()
    threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in (0, 1)]
    for thread in threads:
        thread.start()
    try:
        for i in range(len(items)):
            ready[i % 2].acquire()
            value, exc = done[i % 2].pop(0)
            room[i % 2].release()
            if exc is not None:
                raise exc
            yield value
    finally:
        stop = True
        for k, thread in enumerate(threads):
            room[k].release()
            thread.join()


def trial_batches(d, trials, seed):
    """Trials 0 .. trials - 1 under `seed`, one batch at a time.

    The arguments are validated at the call.  Each item is
    (start, truths, outcomes, p_correct) for the batch (see _BLOCKS) that
    begins at trial `start`: the true indices, the sampled outcomes (the
    truth or INCONCLUSIVE), and the success probabilities, whose
    complements are the inconclusive probabilities.
    """
    d = check_dim(d)
    trials = _check_index("trials", trials, 1, SEED_LIMIT - 1)
    seed = _check_index("seed", seed, 0, SEED_LIMIT - 1)
    size = max(1, _BLOCKS // (d * d + 1))
    cpus = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))(0)
    def batch(start):
        return (start, *_simulate_range(d, seed, start, min(size, trials - start)))
    threaded = d >= 4 and trials > size and len(cpus) > 1
    return (_in_order if threaded else map)(batch, range(0, trials, size))


def haar_average_check(d, n, samples, seed):
    """Max entrywise deviation of build_rho(d, n) from the average of the
    matching-probe projector over the references simulate draws for
    trials 0 .. samples - 1 under `seed` (an integer in [0, 2**64)).
    Decays as O(1/sqrt(samples)).  rho.to_dense() refuses d above 4
    before the D x D accumulator is allocated.
    """
    rho = build_rho(d, n)
    seed = _check_index("seed", seed, 0, SEED_LIMIT - 1)
    samples = _check_index("samples", samples, 1, SEED_LIMIT - 1)
    dense_rho = rho.to_dense()
    acc = np.zeros_like(dense_rho)
    size = max(1, _BLOCKS // (rho.d * rho.d + 1))
    for start in range(0, samples, size):
        refs = _draw_trials(rho.d, seed, start, min(size, samples - start))[0]
        vecs = refs[:, rho.n - 1]
        for j in range(rho.d):
            vecs = np.einsum("bi,bj->bij", vecs, refs[:, j]).reshape(len(refs), -1)
        acc += np.einsum("bi,bj->ij", vecs, vecs.conjugate())
    return float(np.max(np.abs(acc / samples - dense_rho)))


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Outcome counts and rates of a run, with its wall time.

    inconclusive_rate is defined as the complement of the other two
    rates so the three sum to exactly 1.0 in floating point; it agrees
    with inconclusive_count/trials to within one ulp.

    error_count and error_rate are 0 by the outcome rule: a trial's
    outcome is its truth or inconclusive, since every other conclusive
    outcome has probability zero.  They stay in the report as constants
    of its JSON form.
    """

    d: int
    trials: int
    seed: int
    success_count: int
    error_count: int
    inconclusive_count: int
    success_rate: float
    error_rate: float
    inconclusive_rate: float
    ci99_half_width: float
    wall_time_s: float


def run_experiment(d, trials, seed):
    """Run `trials` independent trials and aggregate the outcome counts.

    One loop over trial_batches adds up the counts, so memory does not
    grow with `trials`, and the results are bit-identical for a given
    (d, trials, seed).  One d x d determinant per trial makes this usable
    up to d = 5 without ever touching the full tensor space.
    """
    t0 = time.perf_counter()
    success = inconclusive = 0
    for _, truths, outcomes, _ in trial_batches(d, trials, seed):
        success += int(np.count_nonzero(outcomes == truths))
        inconclusive += int(np.count_nonzero(outcomes == INCONCLUSIVE))

    trials = int(trials)
    error = trials - success - inconclusive
    success_rate = success / trials
    error_rate = error / trials
    inconclusive_rate = 1.0 - (success_rate + error_rate)
    ci = Z_99 * math.sqrt(success_rate * (1.0 - success_rate) / trials)
    wall = time.perf_counter() - t0

    return ExperimentReport(
        d=int(d),
        trials=trials,
        seed=int(seed),
        success_count=success,
        error_count=error,
        inconclusive_count=inconclusive,
        success_rate=success_rate,
        error_rate=error_rate,
        inconclusive_rate=inconclusive_rate,
        ci99_half_width=ci,
        wall_time_s=wall,
    )
