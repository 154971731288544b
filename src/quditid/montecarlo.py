"""Monte Carlo simulation of the identification experiment.

Each trial draws d Haar-random reference states, loads the probe with a
uniformly chosen one of them, and samples a measurement outcome.  With
the probe equal to reference t, every conclusive outcome other than t
has probability zero (its detection states are antisymmetric over two
equal factors), and outcome t has probability scale/d! |det R|², R the
d x d matrix of the references: one determinant per trial, never a
dense operator.  The inconclusive probability is the complement.

Reproducibility: trial i's random words are a pure function of
(seed, i).  They come from the counter-based generator Philox-4x32-10
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
keyed by the seed and counted by the trial index, and are computed for
a whole batch of trials at once.  Seeds and trial indices are integers
in [0, 2**64).  trial_batches(d, trials, seed) yields the trials one
batch at a time, so nothing holds every trial at once; its values, and
the counts run_experiment adds up from them, are bit-identical for a
given (d, trials, seed) however trials are batched.
_simulate_range(d, d/(d+1), seed, i, 1) reproduces trial i on its own.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

# perfbench/child.py binds montecarlo.haar_state and .trial_stream by name,
# so both stay module attributes though no library path calls them.
from .tensor_core import check_dim, haar_state  # noqa: F401

# Outcome code for "no identification made"; conclusive outcomes are 1..d.
INCONCLUSIVE = 0

# Two-sided 99% normal quantile, for the confidence half-width.
Z_99 = 2.5758293035489004

# Trials per batch; it also bounds the Philox uint64 temporaries.
_CHUNK = 2048

# Seeds and trial indices fill the 64-bit Philox key and counter halves.
SEED_LIMIT = 2**64

_MASK32 = 0xFFFFFFFF
_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)


def _check_u64(name, value):
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer")
    value = int(value)
    if not 0 <= value < SEED_LIMIT:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


def trial_stream(seed, index):
    """Handle of trial `index` under `seed`: the validated (seed, index)."""
    return _check_u64("seed", seed), _check_u64("trial index", index)


def _philox4x32(ctr, key):
    """Philox-4x32-10 of the (4, n) uint32 counters `ctr` under key (k0, k1).

    Returns the (4, n) uint32 output words.  Each product is taken in
    uint64, whose high and low halves are Philox's mulhi and mullo; the
    rounds update the four uint64 rows in place.
    """
    c = np.array(ctr, dtype=np.uint64)
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
    return c.astype(np.uint32)


def _uniforms(a, b):
    """Uniforms in (0, 1) from word pairs: 26 bits of each word a, b give
    ((a >> 6) * 2**26 + (b >> 6) + 0.5) / 2**52, exact in float64, so the
    extremes are 2**-53 and 1 - 2**-53."""
    m = ((a >> 6).astype(np.uint64) << 26) | (b >> 6)
    return (m.astype(np.float64) + 0.5) * 2.0**-52


def _draw_trials(d, seed, start, count):
    """Reference states, true indices and outcome uniforms of the trials
    start .. start + count - 1 under `seed`.

    Block j of trial i is Philox-4x32-10 of counter (i & 0xffffffff,
    i >> 32, j, 0) under key (seed & 0xffffffff, seed >> 32), for
    j = 0..d*d.  Its words 0, 1 give uniform u[2j] and its words 2, 3 give
    u[2j+1].  With k = j*d + l, amplitude l of reference j is
    sqrt(-ln u[2k]) * exp(2 pi i u[2k+1]), and each reference is then
    normalised; since every u < 1, every radius is > 0.  The true index
    is 1 + floor(d u[2d²]) and the outcome uniform is u[2d²+1].
    Returns refs (count, d, d), truths (count,) and uniforms (count,).
    """
    blocks = d * d + 1
    trial = np.uint64(start) + np.arange(count, dtype=np.uint64)
    ctr = np.empty((4, blocks, count), dtype=np.uint32)
    ctr[0] = trial & _MASK32
    ctr[1] = trial >> 32
    ctr[2] = np.arange(blocks, dtype=np.uint32)[:, None]
    ctr[3] = 0
    words = _philox4x32(ctr.reshape(4, -1), (seed & _MASK32, seed >> 32))
    words = words.reshape(4, blocks, count)
    u = np.stack([_uniforms(words[0], words[1]), _uniforms(words[2], words[3])], axis=1)
    u = u.reshape(2 * blocks, count)
    n = d * d
    energy = -np.log(u[0:2 * n:2].T.reshape(count, d, d))
    energy /= energy.sum(axis=-1, keepdims=True)
    refs = np.exp((2j * np.pi) * u[1:2 * n:2].T.reshape(count, d, d))
    refs *= np.sqrt(energy)
    truths = 1 + (d * u[2 * n]).astype(np.int64)  # floor, as u > 0
    return refs, truths, u[2 * n + 1]


def _probs_batch(d, scale, refs):
    """Success probability of each trial in a batch whose probe equals
    its true reference: scale/d! |det R|² for refs (B, d, d), R[b] the
    matrix of trial b's references.  By Hadamard's inequality it is at
    most scale/d! for unit-norm references.  Returns shape (B,).
    """
    dets = np.linalg.det(refs)
    return (scale / math.factorial(d)) * (dets.real**2 + dets.imag**2)


def _simulate_range(d, scale, seed, start, count):
    """Truths, outcomes and success probabilities of the trials
    [start, start + count).  The outcome is the truth when the outcome
    uniform lies below the success probability, else inconclusive."""
    refs, truths, us = _draw_trials(d, seed, start, count)
    p = _probs_batch(d, scale, refs)
    return truths, np.where(us < p, truths, INCONCLUSIVE), p


def trial_batches(d, trials, seed):
    """Trials 0 .. trials - 1 under `seed`, one batch at a time.

    The arguments are validated at the call.  Each item is
    (start, truths, outcomes, p_correct) for the batch of up to _CHUNK
    trials that begins at trial `start`: the true indices, the sampled
    outcomes (the truth or INCONCLUSIVE), and the success probabilities,
    whose complements are the inconclusive probabilities.
    """
    d = check_dim(d)
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool):
        raise TypeError("trials must be an integer")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return _batches(d, int(trials), _check_u64("seed", seed))


# A generator's body runs only at its first next(), so trial_batches checks
# its arguments and then hands the checked values to this one.
def _batches(d, trials, seed):
    scale = d / (d + 1)
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        yield (start, *_simulate_range(d, scale, seed, start, count))


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
