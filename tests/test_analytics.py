from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from conftest import dense_conclusive_sum, verify_built

from quditid import analytics
from quditid.analytics import (
    _is_psd,
    closed_form_success,
    conclusive_sum_spectrum,
    confusion,
    success_probability,
    verify_report,
)
from quditid.detection import Povm, build_povm
from quditid.state_ops import build_rho, rho_prefactor
from quditid.tensor_core import MAX_DIM, encode_index, total_dim


@pytest.mark.parametrize("d", range(2, MAX_DIM + 1))
def test_closed_forms_are_the_nearest_doubles(d):
    """At every d they accept, both closed forms return the double nearest
    their rational: verify reads rho_prefactor(d) as 2/((d+1) d**d) only
    when it is that double."""
    assert closed_form_success(d) == float(Fraction(1, (d + 1) * d ** (d - 1)))
    assert rho_prefactor(d) == float(Fraction(2, (d + 1) * d**d))


def _rescaled(povm, scale):
    return Povm(povm.d, tuple(replace(e, scale=scale) for e in povm.elements))


def _assert_success_matches(povm, d):
    assert success_probability(povm, d) == closed_form_success(d)


def _assert_confusion_structure(povm, d):
    conf = confusion(povm, d)
    p = closed_form_success(d)
    np.testing.assert_array_equal(np.diagonal(conf.entries[:, :d]), p)
    assert conf.max_offdiagonal() == 0.0
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
    by 1.6e-13, inside an absolute 1e-12 of the closed form 1/320; both
    comparisons above must reject it."""
    with pytest.raises(AssertionError):
        check(_rescaled(povm4, povm4.scale * (1 - 5e-11)), 4)


def test_confusion_dimension_mismatch(povm2):
    with pytest.raises(ValueError):
        confusion(povm2, 3)
    with pytest.raises(ValueError):
        success_probability(povm2, 3)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_confusion_entries_are_the_rounded_exact_traces(d):
    """Each entry is its exact trace rounded once: 1/((d+1) d**(d-1)) on
    the diagonal, 0 off it, and one minus that in the inconclusive
    column, in a read-only float64 (d, d+1) array."""
    p = Fraction(1, (d + 1) * d ** (d - 1))
    expected = np.zeros((d, d + 1))
    np.fill_diagonal(expected, float(p))
    expected[:, d] = float(1 - p)
    entries = confusion(build_povm(d), d).entries
    assert entries.dtype == np.float64 and not entries.flags.writeable
    np.testing.assert_array_equal(entries, expected)


@pytest.mark.parametrize("d", [2, 3])
def test_probe_trace_of_pair_projector_is_scaled_identity(d):
    """Tracing the probe out of the symmetric projector on (probe, n), with
    the spectators held at |0>, leaves (d+1)/2 times the identity on qudit
    n: the identity that collapses the success-probability trace to its
    closed form, for every reference n."""
    for n in range(1, d + 1):
        proj = build_rho(d, n).to_dense() / rho_prefactor(d)
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


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_verify_report_passes(d):
    report = verify_report(d)
    assert report["ok"] is True
    assert report["failed_checks"] == []
    assert report["d"] == d
    assert report["p_succ"] == report["p_succ_closed_form"] == closed_form_success(d)
    assert report["max_offdiag"] == 0.0
    assert set(report["checks"]) == {
        "success_matches_closed_form",
        "no_misidentification",
        "primal_feasible",
    }


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_verify_report_checks_what_build_povm_makes(monkeypatch, d):
    """verify_report(d) takes no measurement: it checks the one
    build_povm(d) returns, built once."""
    calls = []

    def spy(dim):
        calls.append(dim)
        return build_povm(dim)

    monkeypatch.setattr(analytics, "build_povm", spy)
    assert verify_report(d)["ok"] is True
    assert calls == [d]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("excess", ["tiny", "unit"])
def test_verify_report_flags_oversized_scale(monkeypatch, d, excess):
    """Any scale above d/(d+1) makes the remainder indefinite."""
    scale = {"tiny": d / (d + 1) + 1e-6, "unit": 1.0}[excess]
    report = verify_built(monkeypatch, d, _rescaled(build_povm(d), scale))
    assert report["ok"] is False
    assert report["failed_checks"] == ["primal_feasible", "success_matches_closed_form"]


@pytest.mark.parametrize("d", [4, 5])
def test_verify_report_success_tolerance_is_relative(monkeypatch, d):
    """A scale off by 5e-11 (relative) moves the success probability by
    5e-11 of itself: below 1e-12 in absolute terms at d >= 4, where the
    optimum is at most 1/320.  The exact success check flags it all the
    same; a scale below the optimum keeps the remainder positive."""
    povm = build_povm(d)
    report = verify_built(monkeypatch, d, _rescaled(povm, povm.scale * (1 - 5e-11)))
    assert report["failed_checks"] == ["success_matches_closed_form"]
    p = closed_form_success(d)
    assert report["p_succ"] == pytest.approx(p * (1 - 5e-11), rel=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("optimal", [True, False])
def test_gram_spectrum_matches_dense_oracle(monkeypatch, d, optimal, povm2, povm3, povm4):
    """The dense conclusive sum has the eigenvalues scale times the Gram
    eigenvalues {1/d, (d+1)/d}, padded with zeros: conclusive_sum_spectrum(d)
    at the optimal scale, (d+1)/d times it at scale 1, whose remainder is
    indefinite.  primal_feasible agrees with the dense remainder one
    implication at a time: passing it means no eigenvalue below -1e-12,
    and an eigenvalue below -1e-10 means failing it.  verify_report reads
    the measurement from build_povm, patched here."""
    povm = {2: povm2, 3: povm3, 4: povm4}[d]
    if not optimal:
        povm = _rescaled(povm, 1.0)
    report = verify_built(monkeypatch, d, povm)
    assert report["checks"]["primal_feasible"] is optimal
    D = total_dim(d)
    dense = dense_conclusive_sum(povm.elements)
    want = conclusive_sum_spectrum(d) * povm.scale * (d + 1) / d
    assert np.max(np.abs(np.linalg.eigvalsh(dense) - want)) <= 1e-12
    remainder = np.linalg.eigvalsh(np.eye(D) - dense)
    if report["checks"]["primal_feasible"]:
        assert remainder[0] >= -1e-12
    if remainder[0] < -1e-10:
        assert not report["checks"]["primal_feasible"]
    if report["ok"]:
        assert np.max(np.abs(remainder - np.sort(1.0 - want))) <= 1e-12


@pytest.mark.parametrize(
    "rows, psd",
    [
        ([[0, 0], [0, 0]], True),
        ([[1, 1], [1, 1]], True),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], True),
        ([[1, 0], [0, -1]], False),
        ([[1, 2], [2, 1]], False),
        ([[0, 1], [1, 0]], False),
        ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], False),
    ],
    ids=["zero", "rank-one", "tridiagonal", "negative-pivot", "indefinite",
         "zero-pivot", "zero-schur-pivot"],
)
def test_is_psd_small_cases(rows, psd):
    assert _is_psd([[Fraction(x) for x in row] for row in rows]) is psd


def test_is_psd_is_exact_on_integer_grams():
    """Integer Gram matrices B^T B of rank 3 in size 6 are PSD, with zero
    pivots; shifting the diagonal by -1/1000, small beside their entries,
    makes them indefinite.  _is_psd mutates its argument, hence the copy."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        b = rng.integers(-2, 3, size=(3, 6))
        gram = [[Fraction(g) for g in row] for row in (b.T @ b).tolist()]
        assert _is_psd([list(row) for row in gram]) is True
        shifted = [[g - Fraction(i == j, 1000) for j, g in enumerate(row)]
                   for i, row in enumerate(gram)]
        assert _is_psd(shifted) is False
