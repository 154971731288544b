"""Monte Carlo simulation of the identification experiment.

Each trial draws d Haar-random reference states, loads the probe with a
uniformly chosen one of them, and samples a measurement outcome.  The
conclusive outcome probabilities come from the determinant fast path
(never from dense operators), and the inconclusive probability is the
complement — its nonnegativity is itself one of the invariants checked
on every trial.

Reproducibility: every trial owns an RNG stream keyed by
(seed, trial index), so reports are bit-identical for a given
(d, trials, seed) no matter how trials are batched.  Trials run
serially: the per-trial Python loop holds the GIL, so worker threads
would only contend for it.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .tensor_core import check_dim, haar_state

# Outcome code for "no identification made"; conclusive outcomes are 1..d.
INCONCLUSIVE = 0

COMPLEMENT_TOL = 1e-10
MISFIRE_TOL = 1e-10
PROB_FLOOR = -1e-12

# Two-sided 99% normal quantile, for the confidence half-width.
Z_99 = 2.5758293035489004

_CHUNK = 8192


def trial_stream(seed, index):
    """Independent RNG stream for one trial, keyed by (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _draw_trials(d, count, stream_at):
    """Reference states, true indices and outcome uniforms of `count` trials.

    stream_at(b) returns the stream of row b as it stands at the start of
    that trial.  Each trial draws, in order: all 2*d*d normals in one call
    (per reference, d real parts then d imaginary parts, the words that d
    calls of haar_state take), the true index in 1..d, and the outcome
    uniform.  The references of all rows are then normalised at once.  A
    reference of norm exactly 0, which haar_state would redraw, sends its
    row back through per-state haar_state draws from stream_at(b) again.
    Returns refs (count, d, d), truths (count,) and uniforms (count,).
    """
    words = np.empty((count, d, 2, d))
    truths = np.empty(count, dtype=np.int64)
    us = np.empty(count)
    for b in range(count):
        stream = stream_at(b)
        stream.standard_normal(out=words[b])
        truths[b] = stream.integers(1, d + 1)
        us[b] = stream.random()
    norms = np.linalg.norm(words.reshape(count, d, 2 * d), axis=-1)
    zero = norms == 0.0
    norms[zero] = 1.0  # those rows are redrawn below
    refs = words[:, :, 1] * 1j
    refs += words[:, :, 0]
    refs /= norms[..., None]
    for b in np.flatnonzero(zero.any(axis=1)):
        stream = stream_at(b)
        refs[b] = [haar_state(d, stream) for _ in range(d)]
        truths[b] = stream.integers(1, d + 1)
        us[b] = stream.random()
    return refs, truths, us


def _probs_batch(d, scale, probes, refs):
    """Conclusive outcome probabilities for a batch of product inputs.

    probes: (B, d) probe amplitudes; refs: (B, d, d) with refs[b, j-1]
    the state of reference qudit j.  For outcome m the probability is
    scale/d! times the squared determinant of the factor matrix with
    the m-th reference column removed (and the probe column in front).
    Returns (p, p_inc) with p of shape (B, d).
    """
    batch = probes.shape[0]
    fact = np.concatenate([probes[:, None, :], refs], axis=1)
    inv_dfact = 1.0 / math.factorial(d)
    p = np.empty((batch, d))
    for m in range(1, d + 1):
        slots = [j for j in range(d + 1) if j != m]
        mats = fact[:, slots, :].transpose(0, 2, 1)
        dets = np.linalg.det(np.ascontiguousarray(mats))
        p[:, m - 1] = (scale * inv_dfact) * (dets.real**2 + dets.imag**2)
    total = p.sum(axis=1)
    worst = float(total.max(initial=0.0))
    if worst > 1.0 + COMPLEMENT_TOL:
        raise RuntimeError(
            f"conclusive probabilities sum to {worst!r} > 1: "
            "measurement construction is inconsistent"
        )
    p_inc = np.clip(1.0 - total, 0.0, None)
    return p, p_inc


def _sample_outcomes(p, p_inc, us):
    """Inverse-CDF sampling in fixed order [p_1..p_d, p_?].

    A draw exactly on an interval boundary lands in the later interval.
    """
    d = p.shape[1]
    cum = np.cumsum(np.concatenate([p, p_inc[:, None]], axis=1), axis=1)
    idx = np.sum(cum <= us[:, None], axis=1)
    np.minimum(idx, d, out=idx)
    return np.where(idx < d, idx + 1, INCONCLUSIVE)


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """One simulated trial: the true index, the sampled outcome, and the
    full outcome distribution [p_1, ..., p_d, p_inconclusive]."""

    truth: int
    outcome: int
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probabilities, dtype=np.float64)
        d = probs.shape[0] - 1
        if d < 2 or probs.ndim != 1:
            raise ValueError("need d+1 outcome probabilities with d >= 2")
        if not 1 <= self.truth <= d:
            raise ValueError(f"truth {self.truth} out of range 1..{d}")
        if not (self.outcome == INCONCLUSIVE or 1 <= self.outcome <= d):
            raise ValueError(f"outcome {self.outcome} invalid for d={d}")
        if probs.min() < PROB_FLOOR:
            raise ValueError("negative outcome probability")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError("outcome probabilities do not sum to 1")
        misfire = np.delete(probs[:d], self.truth - 1)
        if misfire.size and misfire.max() > MISFIRE_TOL:
            raise ValueError("nonzero probability of misidentification")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    @property
    def d(self):
        return self.probabilities.shape[0] - 1


def run_trial(d, povm, stream):
    """Simulate a single trial of the identification experiment."""
    d = check_dim(d)
    if povm.d != d:
        raise ValueError(f"measurement built for d={povm.d}, asked for d={d}")
    state = stream.bit_generator.state

    def stream_at(_):
        stream.bit_generator.state = state
        return stream

    refs, truths, us = _draw_trials(d, 1, stream_at)
    truth = int(truths[0])
    p, p_inc = _probs_batch(d, povm.scale, refs[:, truth - 1], refs)
    outcome = int(_sample_outcomes(p, p_inc, us)[0])
    return TrialRecord(truth, outcome, np.append(p[0], p_inc[0]))


def outcome_probabilities(povm, probe, refs):
    """Outcome distribution for an explicit product input.

    probe: length-d amplitudes; refs: sequence of d length-d amplitude
    vectors.  Returns (conclusive probabilities, inconclusive).
    """
    probe = np.asarray(probe, dtype=np.complex128)
    refs = np.stack([np.asarray(r, dtype=np.complex128) for r in refs])
    d = povm.d
    if probe.shape != (d,) or refs.shape != (d, d):
        raise ValueError("factor shapes do not match the measurement dimension")
    p, p_inc = _probs_batch(d, povm.scale, probe[None, :], refs[None])
    return p[0], float(p_inc[0])


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Aggregated results plus the per-trial arrays needed for CSV export.

    inconclusive_rate is defined as the complement of the other two
    rates so the three sum to exactly 1.0 in floating point; it agrees
    with inconclusive_count/trials to within one ulp.
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
    truths: np.ndarray
    outcomes: np.ndarray
    p_correct: np.ndarray
    p_inconclusive: np.ndarray

    def summary_dict(self):
        """Scalar fields only, ready for JSON."""
        return {
            "d": self.d,
            "trials": self.trials,
            "seed": self.seed,
            "success_count": self.success_count,
            "error_count": self.error_count,
            "inconclusive_count": self.inconclusive_count,
            "success_rate": self.success_rate,
            "error_rate": self.error_rate,
            "inconclusive_rate": self.inconclusive_rate,
            "ci99_half_width": self.ci99_half_width,
            "wall_time_s": self.wall_time_s,
        }


def _simulate_range(d, scale, seed, start, count, truths, outcomes, p_corr, p_inc):
    """Fill result slices for trials [start, start+count)."""
    refs, tr, us = _draw_trials(d, count, lambda b: trial_stream(seed, start + b))
    probes = refs[np.arange(count), tr - 1]
    p, pq = _probs_batch(d, scale, probes, refs)
    misfire = p.copy()
    misfire[np.arange(count), tr - 1] = 0.0
    worst = float(misfire.max(initial=0.0))
    if worst > MISFIRE_TOL:
        raise RuntimeError(
            f"misidentification probability {worst!r} in batch at trial {start}"
        )
    sl = slice(start, start + count)
    truths[sl] = tr
    outcomes[sl] = _sample_outcomes(p, pq, us)
    p_corr[sl] = p[np.arange(count), tr - 1]
    p_inc[sl] = pq


def run_experiment(d, trials, seed, threads=None):
    """Run `trials` independent trials and aggregate the outcome counts.

    threads is an accepted parallelism hint that the run ignores: trials
    run serially, because the per-trial Python loop holds the GIL and
    threads only contend for it.  Results are bit-identical for a given
    (d, trials, seed) whatever it is.  The determinant fast
    path makes this usable up to d = 5 without ever touching the full
    tensor space.
    """
    d = check_dim(d)
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool):
        raise TypeError("trials must be an integer")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError("seed must be an integer")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    trials = int(trials)
    seed = int(seed)
    scale = d / (d + 1)

    t0 = time.perf_counter()
    truths = np.empty(trials, dtype=np.int64)
    outcomes = np.empty(trials, dtype=np.int64)
    p_corr = np.empty(trials)
    p_inc = np.empty(trials)

    for start in range(0, trials, _CHUNK):
        _simulate_range(
            d, scale, seed, start, min(_CHUNK, trials - start),
            truths, outcomes, p_corr, p_inc,
        )

    success = int(np.count_nonzero(outcomes == truths))
    inconclusive = int(np.count_nonzero(outcomes == INCONCLUSIVE))
    error = trials - success - inconclusive
    success_rate = success / trials
    error_rate = error / trials
    inconclusive_rate = 1.0 - (success_rate + error_rate)
    ci = Z_99 * math.sqrt(success_rate * (1.0 - success_rate) / trials)
    wall = time.perf_counter() - t0

    for arr in (truths, outcomes, p_corr, p_inc):
        arr.setflags(write=False)
    return ExperimentReport(
        d=d,
        trials=trials,
        seed=seed,
        success_count=success,
        error_count=error,
        inconclusive_count=inconclusive,
        success_rate=success_rate,
        error_rate=error_rate,
        inconclusive_rate=inconclusive_rate,
        ci99_half_width=ci,
        wall_time_s=wall,
        truths=truths,
        outcomes=outcomes,
        p_correct=p_corr,
        p_inconclusive=p_inc,
    )
