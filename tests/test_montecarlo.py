import math

import numpy as np
import pytest
import scipy.stats

from quditid import montecarlo
from quditid.analytics import _pair_sym_projector, closed_form_success
from quditid.montecarlo import (
    INCONCLUSIVE,
    Z_99,
    TrialRecord,
    outcome_probabilities,
    run_experiment,
    run_trial,
    trial_stream,
)
from quditid.tensor_core import basis_ket, haar_state, product_state


def test_inconclusive_code():
    assert INCONCLUSIVE == 0


def test_sample_haar_norm_and_first_moment():
    stream = trial_stream(0, 0)
    acc = np.zeros(3)
    for _ in range(20000):
        v = haar_state(3, stream)
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
    target = 2.0 * _pair_sym_projector(d) / (d * (d + 1))
    assert np.max(np.abs(acc / n_samples - target)) < 0.02


def test_outcome_probabilities_basis_references(povm2):
    p, p_inc = outcome_probabilities(
        povm2, basis_ket(2, 0), [basis_ket(2, 0), basis_ket(2, 1)]
    )
    assert abs(p[0] - 1.0 / 3.0) <= 1e-12
    assert p[1] <= 1e-30
    assert abs(p_inc - 2.0 / 3.0) <= 1e-12


def test_outcome_probabilities_identical_references(povm2):
    psi = haar_state(2, trial_stream(3, 0))
    p, p_inc = outcome_probabilities(povm2, psi, [psi, psi])
    assert p.max() <= 1e-25
    assert p_inc >= 1.0 - 1e-10


def test_outcome_probabilities_validation(povm2):
    with pytest.raises(ValueError):
        outcome_probabilities(povm2, basis_ket(3, 0), [basis_ket(3, 0)] * 3)


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
            want = elem.expectation(full.amps)
            assert abs(p[elem.label - 1] - want) <= 1e-12
        assert abs(p_inc - (1.0 - p.sum())) <= 1e-12


def test_run_trial_record_shape(povm3):
    rec = run_trial(3, povm3, trial_stream(5, 0))
    assert rec.d == 3
    assert 1 <= rec.truth <= 3
    assert rec.outcome == INCONCLUSIVE or 1 <= rec.outcome <= 3
    assert rec.probabilities.shape == (4,)
    assert abs(rec.probabilities.sum() - 1.0) <= 1e-10
    assert not rec.probabilities.flags.writeable


def test_run_trial_deterministic(povm2):
    a = run_trial(2, povm2, trial_stream(9, 4))
    b = run_trial(2, povm2, trial_stream(9, 4))
    assert a.truth == b.truth and a.outcome == b.outcome
    np.testing.assert_array_equal(a.probabilities, b.probabilities)


def test_run_trial_dimension_mismatch(povm2):
    with pytest.raises(ValueError):
        run_trial(3, povm2, trial_stream(0, 0))


def test_trial_record_validation():
    good = np.array([0.15, 0.0, 0.85])
    TrialRecord(1, INCONCLUSIVE, good)
    with pytest.raises(ValueError):
        TrialRecord(0, 1, good)
    with pytest.raises(ValueError):
        TrialRecord(1, 3, good)
    with pytest.raises(ValueError):
        TrialRecord(1, 1, np.array([0.5, 0.0, 0.6]))  # sum != 1
    with pytest.raises(ValueError):
        TrialRecord(1, 1, np.array([1.2, 0.0, -0.2]))  # negative entry
    with pytest.raises(ValueError):
        # nonzero probability on the wrong conclusive outcome
        TrialRecord(1, 1, np.array([0.1, 0.05, 0.85]))


def test_run_experiment_counts_and_rates(povm2):
    report = run_experiment(2, 5000, 1)
    assert report.success_count + report.error_count + report.inconclusive_count == 5000
    assert report.error_count == 0
    assert report.success_rate + report.error_rate + report.inconclusive_rate == 1.0
    assert report.ci99_half_width == pytest.approx(
        Z_99 * math.sqrt(report.success_rate * (1 - report.success_rate) / 5000)
    )
    assert report.truths.shape == (5000,)
    assert not report.outcomes.flags.writeable


def _rebuild_trial(povm, stream):
    """One trial redrawn state by state: d calls of haar_state, then the
    true index, then the outcome uniform, sampled by inverse CDF over
    [p_1..p_d, p_?] with a boundary draw landing in the later interval."""
    d = povm.d
    refs = [haar_state(d, stream) for _ in range(d)]
    truth = int(stream.integers(1, d + 1))
    u = float(stream.random())
    p, p_inc = outcome_probabilities(povm, refs[truth - 1], refs)
    k = int(np.sum(np.cumsum(np.append(p, p_inc)) <= u))
    outcome = k + 1 if k < d else INCONCLUSIVE
    return truth, outcome, p[truth - 1], p_inc


def test_run_experiment_matches_single_trials(povm2):
    report = run_experiment(2, 64, 7)
    for i in (0, 5, 17, 63):
        rec = run_trial(2, povm2, trial_stream(7, i))
        assert rec.truth == report.truths[i]
        assert rec.outcome == report.outcomes[i]
        assert rec.probabilities[rec.truth - 1] == report.p_correct[i]
        assert rec.probabilities[-1] == report.p_inconclusive[i]
        truth, outcome, p_correct, _ = _rebuild_trial(povm2, trial_stream(7, i))
        assert truth == report.truths[i]
        assert outcome == report.outcomes[i]
        assert abs(p_correct - report.p_correct[i]) <= 1e-12


class _ZeroedStart:
    """Stream whose first `zeros` normals come out as 0.0, whether they are
    drawn in one call or in many; its state covers that count too."""

    def __init__(self, stream, zeros):
        self.stream = stream
        self.zeros = zeros
        self.bit_generator = self

    @property
    def state(self):
        return self.stream.bit_generator.state, self.zeros

    @state.setter
    def state(self, value):
        self.stream.bit_generator.state, self.zeros = value

    def standard_normal(self, size=None, out=None):
        x = self.stream.standard_normal(size=size, out=out)
        flat = x.reshape(-1)
        k = min(self.zeros, flat.size)
        flat[:k] = 0.0
        self.zeros -= k
        return x

    def integers(self, low, high):
        return self.stream.integers(low, high)

    def random(self):
        return self.stream.random()


def test_zero_norm_reference_is_redrawn(monkeypatch, povm2):
    """A reference drawn with norm exactly 0 is redrawn, as haar_state
    redraws it, in both run_trial and run_experiment."""
    base = montecarlo.trial_stream

    def zeroed(seed, index):
        return _ZeroedStart(base(seed, index), 4 if index == 5 else 0)

    truth, outcome, p_correct, p_inc = _rebuild_trial(povm2, zeroed(7, 5))
    assert (truth, outcome, p_correct) != _rebuild_trial(povm2, base(7, 5))[:3]
    rec = run_trial(2, povm2, zeroed(7, 5))
    assert (rec.truth, rec.outcome) == (truth, outcome)
    np.testing.assert_allclose(
        rec.probabilities[[truth - 1, 2]], [p_correct, p_inc], atol=1e-12
    )
    clean = run_experiment(2, 16, 7)
    monkeypatch.setattr(montecarlo, "trial_stream", zeroed)
    report = run_experiment(2, 16, 7)
    assert (report.truths[5], report.outcomes[5]) == (truth, outcome)
    assert abs(report.p_correct[5] - p_correct) <= 1e-12
    assert abs(report.p_inconclusive[5] - p_inc) <= 1e-12
    others = np.arange(16) != 5
    np.testing.assert_array_equal(report.outcomes[others], clean.outcomes[others])
    np.testing.assert_array_equal(report.p_correct[others], clean.p_correct[others])


def test_run_experiment_thread_invariance():
    """Identical numbers no matter how the trial range is split."""
    serial = run_experiment(2, 20000, 3, threads=1)
    threaded = run_experiment(2, 20000, 3, threads=4)
    np.testing.assert_array_equal(serial.truths, threaded.truths)
    np.testing.assert_array_equal(serial.outcomes, threaded.outcomes)
    np.testing.assert_array_equal(serial.p_correct, threaded.p_correct)
    np.testing.assert_array_equal(serial.p_inconclusive, threaded.p_inconclusive)
    a = serial.summary_dict()
    b = threaded.summary_dict()
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_run_experiment_convergence():
    report = run_experiment(2, 20000, 7)
    p = closed_form_success(2)
    assert abs(report.success_rate - p) <= 3.0 * math.sqrt(p * (1 - p) / 20000)
    assert report.error_count == 0


def test_success_rate_symmetric_across_truths():
    """No prepared index is easier to identify than another (1% chi-square)."""
    report = run_experiment(2, 30000, 99, threads=2)
    table = []
    for n in (1, 2):
        mask = report.truths == n
        succ = int(np.count_nonzero(report.outcomes[mask] == n))
        table.append([succ, int(mask.sum()) - succ])
    result = scipy.stats.chi2_contingency(np.array(table))
    assert result.pvalue >= 0.01


def test_run_experiment_validation():
    with pytest.raises(ValueError):
        run_experiment(2, 0, 0)
    with pytest.raises(TypeError):
        run_experiment(2, 10.5, 0)
    with pytest.raises(TypeError):
        run_experiment(2, True, 0)
    with pytest.raises(ValueError):
        run_experiment(2, 10, -1)
    with pytest.raises(TypeError):
        run_experiment(2, 10, "seed")


def test_summary_dict_is_scalar_only():
    report = run_experiment(2, 100, 0)
    summary = report.summary_dict()
    assert set(summary) == {
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
    }
    assert all(np.isscalar(v) for v in summary.values())
