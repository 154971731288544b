import numpy as np
import pytest
from conftest import dense_conclusive_sum

from quditid.analytics import (
    EXACT_TOL,
    ConfusionMatrix,
    _conclusive_spectrum,
    _gram,
    closed_form_success,
    conclusive_sum_spectrum,
    confusion,
    success_probability,
    verify_report,
)
from quditid.detection import LowRankPovmElement, Povm, build_povm
from quditid.state_ops import HermitianOperator
from quditid.tensor_core import encode_index, total_dim


def test_closed_form_values():
    assert closed_form_success(2) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert closed_form_success(3) == pytest.approx(1.0 / 36.0, abs=1e-16)
    assert closed_form_success(4) == pytest.approx(1.0 / 320.0, abs=1e-16)
    assert closed_form_success(5) == pytest.approx(1.0 / 3750.0, abs=1e-16)


def _rescaled(povm, scale):
    return Povm(
        povm.d,
        [LowRankPovmElement(e.label, scale, e.vectors) for e in povm.elements],
    )


def _assert_success_matches(povm, d):
    p = closed_form_success(d)
    assert abs(success_probability(povm, d) - p) <= EXACT_TOL * p


def _assert_confusion_structure(povm, d):
    conf = confusion(povm, d)
    p = closed_form_success(d)
    np.testing.assert_allclose(conf.diagonal(), p, rtol=0, atol=EXACT_TOL * p)
    assert conf.max_offdiagonal() <= EXACT_TOL * p
    np.testing.assert_allclose(conf.entries[:, d], 1.0 - p, atol=1e-10)
    np.testing.assert_allclose(conf.entries.sum(axis=1), 1.0, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_success_probability_matches_closed_form(d, povm2, povm3, povm4):
    _assert_success_matches({2: povm2, 3: povm3, 4: povm4}[d], d)


@pytest.mark.parametrize("d", [2, 3])
def test_confusion_matrix_structure(d, povm2, povm3):
    _assert_confusion_structure({2: povm2, 3: povm3}[d], d)


@pytest.mark.parametrize(
    "check",
    [_assert_success_matches, _assert_confusion_structure],
    ids=["success", "confusion"],
)
def test_closed_form_comparisons_are_relative(check, povm4):
    """At d=4 a scale off by 5e-11 (relative) moves the success probability
    by 1.6e-13, inside an absolute 1e-12 but far outside EXACT_TOL of the
    closed form 1/320; both comparisons above must reject it."""
    with pytest.raises(AssertionError):
        check(_rescaled(povm4, povm4.scale * (1 - 5e-11)), 4)


def test_confusion_dimension_mismatch(povm2):
    with pytest.raises(ValueError):
        confusion(povm2, 3)
    with pytest.raises(ValueError):
        success_probability(povm2, 3)


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(2, np.zeros((2, 2)))
    cm = ConfusionMatrix(2, np.array([[0.1, 0.0, 0.9], [0.0, 0.2, 0.8]]))
    assert cm.max_offdiagonal() == 0.0
    assert not cm.entries.flags.writeable


@pytest.mark.parametrize("d", [2, 3])
def test_sym_block_trace_matches_full_space(d):
    """Tracing the probe out of the symmetric projector on (probe, n), with
    the spectators held at |0>, leaves (d+1)/2 times the identity on qudit
    n: the identity that collapses the success-probability trace to its
    closed form, for every reference n."""
    for n in range(1, d + 1):
        proj = HermitianOperator(d, n, 0.5, 0.5).to_dense()
        for k in range(d):
            for kp in range(d):
                acc = 0.0
                for i in range(d):
                    digits = [0] * (d + 1)
                    digits[0] = i
                    digits[n] = k
                    row = encode_index(digits, d)
                    digits[n] = kp
                    col = encode_index(digits, d)
                    acc += proj[row, col].real
                want = (d + 1) / 2 if k == kp else 0.0
                assert abs(acc - want) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_conclusive_sum_spectrum_shape(d):
    spec = conclusive_sum_spectrum(d)
    assert spec.shape == (total_dim(d),)
    assert np.all(np.diff(spec) >= 0.0)
    # multiplicities: D - d^2 zeros, d copies of 1/(d+1), d(d-1) ones
    assert int(np.sum(spec == 0.0)) == total_dim(d) - d * d
    assert int(np.sum(spec == 1.0)) == d * (d - 1)
    assert np.sum((spec > 0) & (spec < 1)) == d
    # trace identity: sum of eigenvalues = d * scale * rank(element)
    assert spec.sum() == pytest.approx(d * d * d / (d + 1.0), abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_verify_report_passes(d):
    report = verify_report(d)
    assert report["ok"] is True
    assert report["failed_checks"] == []
    assert report["d"] == d
    for key in (
        "p_succ",
        "p_succ_closed_form",
        "max_offdiag",
        "min_eig_pi_unknown",
    ):
        assert key in report
    prob_tol = EXACT_TOL * report["p_succ_closed_form"]
    assert abs(report["p_succ"] - report["p_succ_closed_form"]) <= prob_tol
    assert report["max_offdiag"] <= prob_tol
    assert report["min_eig_pi_unknown"] >= -1e-10
    assert set(report["checks"]) >= {
        "success_matches_closed_form",
        "inconclusive_psd",
        "conclusive_spectrum",
        "gram_structure",
    }


def test_verify_report_accepts_prebuilt(povm2):
    report = verify_report(2, povm=povm2)
    assert report["ok"] is True


def test_verify_report_rejects_large_d():
    with pytest.raises(ValueError):
        verify_report(6)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("excess", ["tiny", "unit"])
def test_verify_report_flags_oversized_scale(d, excess, povm2, povm3):
    """Any scale above d/(d+1) makes the remainder indefinite."""
    povm = {2: povm2, 3: povm3}[d]
    scale = {"tiny": d / (d + 1) + 1e-6, "unit": 1.0}[excess]
    report = verify_report(d, povm=_rescaled(povm, scale))
    assert report["ok"] is False
    assert {
        "inconclusive_psd",
        "conclusive_spectrum",
        "success_matches_closed_form",
    } <= set(report["failed_checks"])


@pytest.mark.parametrize("d", [4, 5])
def test_verify_report_success_tolerance_is_relative(d, povm4):
    """A scale off by 5e-11 (relative) moves the success probability by
    5e-11 of itself: below 1e-12 in absolute terms at d >= 4, where the
    optimum is at most 1/320, but far outside 1e-12 relative to it."""
    povm = povm4 if d == 4 else build_povm(5)
    report = verify_report(d, povm=_rescaled(povm, povm.scale * (1 - 5e-11)))
    assert report["failed_checks"] == ["success_matches_closed_form"]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("optimal", [True, False])
def test_gram_spectrum_matches_dense_oracle(d, optimal, povm2, povm3):
    """The Gram-matrix spectrum equals the eigenvalues of the dense
    conclusive sum, for the optimal scale and for an oversized one."""
    povm = {2: povm2, 3: povm3}[d]
    if not optimal:
        povm = _rescaled(povm, 1.0)
    D = total_dim(d)
    dense = dense_conclusive_sum(povm.elements)
    want = np.linalg.eigvalsh(dense)
    gram, scales = _gram(povm)
    assert np.max(np.abs(_conclusive_spectrum(gram, scales, D) - want)) <= 1e-12
    report = verify_report(d, povm=povm)
    want_min = np.linalg.eigvalsh(np.eye(D) - dense)[0]
    assert abs(report["min_eig_pi_unknown"] - want_min) <= 1e-12
    want_dev = np.max(np.abs(want - conclusive_sum_spectrum(d)))
    assert abs(report["conclusive_spectrum_dev"] - want_dev) <= 1e-12
