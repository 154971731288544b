"""Monte Carlo simulation of the identification experiment.

Each trial draws d Haar-random reference states, loads the probe with a
uniformly chosen one of them, and samples a measurement outcome.  With
the probe equal to reference t, every conclusive outcome other than t
has probability zero (its detection states are antisymmetric over two
equal factors), and outcome t has probability (d/(d+1))/d! |det R|², R
the d x d matrix of the references, never a dense operator.  |det R|² is
the product of the squared norms that Gram-Schmidt on the references
leaves, computed for a whole batch at once with no LAPACK call (see
_probs_batch).  The inconclusive probability is the complement.

Reproducibility: trial i's random words are a pure function of
(seed, i).  They come from the counter-based generator Philox-4x32-10
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
keyed by the seed and counted by the trial index and block, and are
computed for a whole batch of trials at once.  Each radius and each
phase takes one 32-bit word w, as the uniform (w + 0.5) 2**-32, so a
radius sqrt(-ln u) is finite (u >= 2**-33 caps the energy -ln u at
ln 2**33 ~ 22.9, which an Exp(1) energy exceeds with probability about
1.1e-10) and > 0.  A reference's global phase is unobservable: it leaves
its projector and |det R| unchanged, so each reference's first amplitude
is real and only the d - 1 others get a phase.  Those phases are i.i.d.
uniform and independent of the energies, as the differences
theta_jl - theta_j0 of a draw with d phases are.  A trial takes
_blocks_per_trial(d) = ceil((2d² - d)/4) + 1 blocks (3, 5, 13, 31 and
49 at d = 2, 3, 5, 8 and 10), the last one for its true index and its
outcome uniform, which keep 52 bits each: the mean success probability
at d = 10, about 9e-11, is below 2**-32.  Seeds, trial indices and
counts of trials or samples are integers in [0, 2**64), counts at least
1; anything else is a ValueError, by the rule check_dim follows.
A phase factor exp(2 pi i (w + 0.5) 2**-32) is the product of three
entries of small tables indexed by w's bits (see _phase_tables), so
np.exp runs only on the tables' 5,120 entries.  trial_batches(d,
trials, seed) yields the trials in batches of _BLOCKS Philox blocks,
computed one after another on the calling thread, each when the
consumer asks for it.  Its values are the same in any batches of two
or more trials; _simulate_range(d, seed, i, 1) reproduces trial i on its
own, its p_correct to the last bits (bit for bit at d <= 3).

haar_average_check checks state_ops.build_rho against the same draws.
"""

import functools
import math
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

# Philox blocks per batch, _blocks_per_trial(d) a trial: 2048 trials at d = 3
# and 787 at d = 5, as before the layout halved the blocks.  A batch's
# temporaries peak near 0.7 MiB (0.89 at d = 8).  Twice the budget kept them
# at 1.3 MiB, but a d = 5 CSV run's peak RSS rose 2%: its rows grow with the
# trials per batch.
_BLOCKS = 10240

# Seeds and trial indices fill the 64-bit Philox key and counter halves.
SEED_LIMIT = 2**64

# Largest d simulated.  The outcome uniform's smallest value is 2**-53, so
# P(u < p) is off by up to about 1.1e-16: 1e-6 of the mean p at d = 10, but
# 4% at d = 13 and 130% at d = 14, where the counts would be silently wrong.
SIM_MAX_DIM = 10

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


def _uniforms32(words):
    """Uniforms in (0, 1) from integer words below 2**32: (w + 0.5) / 2**32,
    exact in float64, so the extremes are 2**-33 and 1 - 2**-33."""
    u = words + 0.5
    u *= 2.0**-32
    return u


@functools.cache
def _phase_tables():
    """(hi, mid, lo): exp(2 pi i t) at t = a 2**-11 and b 2**-22 for
    a, b < 2048, and at t = (c + 0.5) 2**-32 for c < 1024, read-only.  A
    word w < 2**32 is a 2**21 + b 2**10 + c, so the phase factor
    exp(2 pi i (w + 0.5) 2**-32) is hi[a] mid[b] lo[c].  Built on the
    first draw, not at import: 5,120 entries, 80 KiB."""
    tables = []
    for size, offset, scale in ((2048, 0, 2.0**-11), (2048, 0, 2.0**-22), (1024, 0.5, 2.0**-32)):
        table = np.exp(2j * np.pi * ((np.arange(size) + offset) * scale))
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _draw_trials(d, seed, start, count):
    """Reference states, true indices and outcome uniforms of the trials
    start .. start + count - 1 under `seed`.

    Block k of trial i is Philox-4x32-10 of counter (i & 0xffffffff,
    i >> 32, k, 0) under key (seed & 0xffffffff, seed >> 32), for
    k = 0..m, m = _blocks_per_trial(d) - 1.  Word w of block k < m is
    stream word w m + k, and each stream word gives one uniform (see
    _uniforms32).  Stream word j d + l is the radius word of amplitude l
    of reference j, and stream word d² + j (d - 1) + l - 1 the phase word
    of amplitude l >= 1; the last 4m - d(2d - 1) words are unused.  With
    u the radius uniform and v the phase uniform, amplitude l >= 1 is
    sqrt(-ln u) exp(2 pi i v) and amplitude 0 the real sqrt(-ln u): a
    reference's global phase is unobservable, so none is drawn.  Each
    reference is then normalised; since every u < 1, every radius is > 0.
    Bits 21..31 of a phase word index _phase_tables' hi, bits 10..20 mid
    and bits 0..9 lo, and the three entries multiply the radius in that
    order.  Block m gives the true index 1 + floor(d u) from its words 0,
    1 and the outcome uniform from its words 2, 3 (see _uniforms).
    Returns refs (count, d, d), truths (count,) and uniforms (count,).
    """
    m = _blocks_per_trial(d) - 1
    n = d * d
    trial = np.uint64(start) + np.arange(count, dtype=np.uint64)
    c = np.zeros((4, m + 1, count), dtype=np.uint64)
    c[0] = trial & _MASK32
    c[1] = trial >> 32
    c[2] = np.arange(m + 1, dtype=np.uint64)[:, None]
    _philox4x32(c.reshape(4, -1), (seed & _MASK32, seed >> 32))
    truths = 1 + (d * _uniforms(c[0, m], c[1, m])).astype(np.int64)  # floor, as u > 0
    outcome = _uniforms(c[2, m], c[3, m])
    # Stream words, trials innermost, as the intp that np.take indexes with.
    words = c[:, :m].reshape(4 * m, count).view(np.int64)
    del c  # so the counters are not held beside refs
    # ln u < 0, so ln u / sum(ln u) is the normalised energy.  The sum adds
    # each reference's d rows in sequence; the bits depend on that order.
    u = _uniforms32(words[:n])
    energy = np.log(u, out=u).reshape(d, d, count)
    energy /= energy.sum(axis=1, keepdims=True)
    radii = np.sqrt(energy, out=energy)
    # The radii go in through the float views; u is freed before the phases.
    refs = np.empty((d, d, count), dtype=np.complex128)
    refs.real = radii
    refs.imag = 0.0
    del u, energy, radii
    # One reference at a time, so the buffers stay small; the indices go in
    # the spent radius words, and mode="clip" writes `out` unbuffered.  No
    # product overwrites an operand: numpy's in-place product of one complex
    # element skips the fused multiply-add of its vector loop.
    hi, mid, lo = _phase_tables()
    phases = words[n : n + d * (d - 1)].reshape(d, d - 1, count)
    index = words[: d - 1]
    factor, product = np.empty((2, d - 1, count), dtype=np.complex128)
    for j in range(d):
        amps = refs[j, 1:]
        np.right_shift(phases[j], 21, out=index)
        np.multiply(amps, np.take(hi, index, out=factor, mode="clip"), out=product)
        np.right_shift(phases[j], 10, out=index)
        index &= 2047
        np.multiply(product, np.take(mid, index, out=factor, mode="clip"), out=amps)
        np.bitwise_and(phases[j], 1023, out=index)
        np.multiply(amps, np.take(lo, index, out=factor, mode="clip"), out=product)
        amps[...] = product
    return refs.transpose(2, 0, 1), truths, outcome


def _probs_batch(d, refs):
    """Success probability of each trial in a batch whose probe equals
    its true reference: c |det R|² for refs (B, d, d), R[b] the matrix of
    trial b's references and c = (d/(d+1))/d!.  Returns shape (B,).

    Modified Gram-Schmidt on the references gives |det R|² as the product
    of the squared norms |r_j⊥|², r_j⊥ being reference j less its
    projections on the references before it.  Each step is one array
    operation over the whole batch, on the (d, d, B) buffer under refs,
    which it overwrites: the caller's refs are spent.  As |r_j⊥| <= |r_j|
    = 1, the product is at most 1, so c bounds p (Hadamard's inequality).
    A zero norm, as a reference equal to an earlier one can leave, gives
    p = 0, not NaN.
    """
    v = refs.transpose(1, 2, 0)  # v[j, l, b]: amplitude l of reference j in trial b
    det2 = np.ones(v.shape[2])
    for j in range(d):
        q = v[j]
        n2 = (q.real**2 + q.imag**2).sum(axis=0)
        det2 *= n2
        if j + 1 < d:
            q *= np.divide(1.0, np.sqrt(n2), out=np.zeros_like(n2), where=n2 > 0)
            v[j + 1 :] -= (q.conj() * v[j + 1 :]).sum(axis=1)[:, None] * q
    return (d / (d + 1) / math.factorial(d)) * det2


def _simulate_range(d, seed, start, count):
    """Truths, outcomes and success probabilities of the trials
    [start, start + count).  The outcome is the truth when the outcome
    uniform lies below the success probability, else inconclusive."""
    refs, truths, us = _draw_trials(d, seed, start, count)
    p = _probs_batch(d, refs)
    return truths, np.where(us < p, truths, INCONCLUSIVE), p


def _blocks_per_trial(d):
    """Philox blocks of one trial: its d² radius and d(d - 1) phase words,
    four to a block, and one block for its truth and outcome uniform."""
    return (d * (2 * d - 1) + 3) // 4 + 1


def _batch_size(d):
    """Trials per batch at dimension d: _BLOCKS Philox blocks, _blocks_per_trial(d) a trial."""
    return max(1, _BLOCKS // _blocks_per_trial(d))


def trial_batches(d, trials, seed):
    """Trials 0 .. trials - 1 under `seed`, one batch at a time.

    The arguments are validated at the call.  Each item is
    (start, truths, outcomes, p_correct) for the batch (see _BLOCKS) that
    begins at trial `start`: the true indices, the sampled outcomes (the
    truth or INCONCLUSIVE), and the success probabilities, whose
    complements are the inconclusive probabilities.
    """
    d = _check_index("dimension", d, 2, SIM_MAX_DIM)
    trials = _check_index("trials", trials, 1, SEED_LIMIT - 1)
    seed = _check_index("seed", seed, 0, SEED_LIMIT - 1)
    size = _batch_size(d)
    def batch(start):
        return (start, *_simulate_range(d, seed, start, min(size, trials - start)))
    return map(batch, range(0, trials, size))


def haar_average_check(d, n, samples, seed):
    """Max entrywise deviation of build_rho(d, n) from the average of the
    matching-probe projector over the references simulate draws for
    trials 0 .. samples - 1 under `seed` (an integer in [0, 2**64)).
    Decays as O(1/sqrt(samples)).  The probe copies reference n of the
    arguments, not the n of the operator build_rho returns, so an operator
    for the wrong reference deviates.  to_dense() refuses d above 4
    before the D x D accumulator is allocated.
    """
    d = check_dim(d)
    n = _check_index("reference index", n, 1, d)
    seed = _check_index("seed", seed, 0, SEED_LIMIT - 1)
    samples = _check_index("samples", samples, 1, SEED_LIMIT - 1)
    dense_rho = build_rho(d, n).to_dense()
    acc = np.zeros_like(dense_rho)
    size = _batch_size(d)
    for start in range(0, samples, size):
        refs = _draw_trials(d, seed, start, min(size, samples - start))[0]
        vecs = refs[:, n - 1]
        for j in range(d):
            vecs = np.einsum("bi,bj->bij", vecs, refs[:, j]).reshape(len(refs), -1)
        acc += vecs.T @ vecs.conj()
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
    (d, trials, seed).  A trial's d x d Gram-Schmidt makes this usable
    up to SIM_MAX_DIM (the CLI allows d = 2..5) without ever touching the
    full tensor space.
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
