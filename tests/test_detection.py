import json
import math

import numpy as np
import pytest
from conftest import basis_ket, decode_index, dense_conclusive_sum

from quditid import jsonio
from quditid.analytics import conclusive_sum_spectrum
from quditid.detection import (
    DENSE_MAX_D,
    LowRankPovmElement,
    Povm,
    build_detection_core,
    build_povm,
    build_povm_vector,
    overlap_with_product,
    povm_from_dict,
    povm_to_dict,
)
from quditid.state_ops import build_rho
from quditid.tensor_core import (
    encode_index,
    haar_state,
    inner_product,
    product_state,
    total_dim,
)

INV_SQRT6 = 1.0 / math.sqrt(6.0)

# Hand-computed amplitude tables for d = 3: every nonzero amplitude of the
# detection state for each outcome, keyed by the register digit string
# (probe, ref 1, ref 2, ref 3).  Signs follow the permutation parity of the
# digit values over the ascending active slots, times (-1)**n.
GOLDEN_D3 = {
    1: {
        (0, 0, 1, 2): -INV_SQRT6,
        (0, 0, 2, 1): +INV_SQRT6,
        (1, 0, 0, 2): +INV_SQRT6,
        (1, 0, 2, 0): -INV_SQRT6,
        (2, 0, 0, 1): -INV_SQRT6,
        (2, 0, 1, 0): +INV_SQRT6,
    },
    2: {
        (0, 1, 0, 2): +INV_SQRT6,
        (0, 2, 0, 1): -INV_SQRT6,
        (1, 0, 0, 2): -INV_SQRT6,
        (1, 2, 0, 0): +INV_SQRT6,
        (2, 0, 0, 1): +INV_SQRT6,
        (2, 1, 0, 0): -INV_SQRT6,
    },
    3: {
        (0, 1, 2, 0): -INV_SQRT6,
        (0, 2, 1, 0): +INV_SQRT6,
        (1, 0, 2, 0): +INV_SQRT6,
        (1, 2, 0, 0): -INV_SQRT6,
        (2, 0, 1, 0): -INV_SQRT6,
        (2, 1, 0, 0): +INV_SQRT6,
    },
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_golden_amplitudes_d3(n):
    expected = np.zeros(total_dim(3), dtype=np.complex128)
    for digits, amp in GOLDEN_D3[n].items():
        expected[encode_index(digits, 3)] = amp
    core = build_detection_core(3, n)
    assert np.max(np.abs(core.amps - expected)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4])
def test_core_support_and_norm(d):
    for n in range(1, d + 1):
        core = build_detection_core(d, n)
        nz = np.nonzero(core.amps)[0]
        assert nz.size == math.factorial(d)
        mags = np.abs(core.amps[nz])
        assert np.max(np.abs(mags - 1.0 / math.sqrt(math.factorial(d)))) < 1e-15
        assert abs(np.linalg.norm(core.amps) - 1.0) < 1e-12
        # qudit n is parked at digit 0 in the core representation
        for flat in nz:
            assert decode_index(int(flat), d)[n] == 0


def test_detection_index_validation():
    with pytest.raises(ValueError):
        build_detection_core(3, 0)
    with pytest.raises(ValueError):
        build_detection_core(3, 4)
    with pytest.raises(ValueError):
        build_povm_vector(3, 1, 3)
    with pytest.raises(ValueError):
        build_povm_vector(3, 1, -1)
    with pytest.raises(ValueError):
        build_povm_vector(3, 1, 1.0)
    with pytest.raises(ValueError):
        build_povm_vector(3, 2.0, 0)


def test_builders_refuse_d_above_dense_limit():
    """The size limit is checked before any amplitude is allocated."""
    d = DENSE_MAX_D + 1
    with pytest.raises(ValueError, match="densely"):
        build_povm_vector(d, 1, 0)
    with pytest.raises(ValueError, match="densely"):
        build_detection_core(d, 1)
    with pytest.raises(ValueError, match="densely"):
        build_povm(d)


@pytest.mark.parametrize("d", [2, 3])
def test_branch_vectors_live_in_one_excitation_sector(d):
    base = d * (d - 1) // 2
    for n in range(1, d + 1):
        for k in range(d):
            v = build_povm_vector(d, n, k)
            assert abs(np.linalg.norm(v.amps) - 1.0) < 1e-12
            for flat in np.nonzero(v.amps)[0]:
                assert sum(decode_index(int(flat), d)) == base + k


def test_branch_zero_is_the_core():
    core = build_detection_core(3, 2)
    np.testing.assert_array_equal(build_povm_vector(3, 2, 0).amps, core.amps)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gram_structure_exhaustive(d, povm2, povm3, povm4):
    """<pi_m(k)|pi_n(k')> = delta_kk' * (delta_mn - (1-delta_mn)/d)."""
    povm = {2: povm2, 3: povm3, 4: povm4}[d]
    vs = [(e.label, k, v) for e in povm.elements for k, v in enumerate(e.vectors)]
    for m, k, a in vs:
        for n, kp, b in vs:
            got = inner_product(a, b)
            if k != kp:
                want = 0.0
            elif m == n:
                want = 1.0
            else:
                want = -1.0 / d
            assert abs(got - want) <= 1e-12, (m, k, n, kp)


def test_build_povm_scale(povm2, povm3):
    assert povm2.scale == pytest.approx(2.0 / 3.0, abs=1e-16)
    assert povm3.scale == pytest.approx(3.0 / 4.0, abs=1e-16)
    assert [e.label for e in povm3.elements] == [1, 2, 3]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_completeness_and_positivity(d, povm2, povm3, povm4):
    povm = {2: povm2, 3: povm3, 4: povm4}[d]
    D = total_dim(d)
    conclusive = dense_conclusive_sum(povm.elements)
    unknown = np.eye(D) - conclusive
    assert np.max(np.abs(conclusive + unknown - np.eye(D))) <= 1e-10
    assert np.linalg.eigvalsh(unknown)[0] >= -1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_conclusive_sum_spectrum(d, povm2, povm3):
    povm = {2: povm2, 3: povm3}[d]
    eigs = np.linalg.eigvalsh(dense_conclusive_sum(povm.elements))
    assert np.max(np.abs(eigs - conclusive_sum_spectrum(d))) <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_foreign_states_are_annihilated(d):
    """rho_m kills every branch vector of any other outcome — the
    structural source of unambiguity."""
    rhos = {m: build_rho(d, m) for m in range(1, d + 1)}
    for n in range(1, d + 1):
        for k in range(d):
            v = build_povm_vector(d, n, k)
            for m in range(1, d + 1):
                if m == n:
                    continue
                assert np.linalg.norm(rhos[m].apply(v.amps)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_foreign_rho_sum_null_space_dim(d):
    """The joint null space of sum_{m != n} rho_m has dimension exactly d:
    no conclusive element can be given a rank above d."""
    D = total_dim(d)
    for n in range(1, d + 1):
        acc = np.zeros((D, D), dtype=np.complex128)
        for m in range(1, d + 1):
            if m != n:
                acc += build_rho(d, m).to_dense()
        eigs = np.linalg.eigvalsh(acc)
        assert int(np.sum(np.abs(eigs) < 1e-8)) == d


def test_overlap_identity_permutation_example():
    factors = [basis_ket(3, i) for i in (0, 1, 2)]
    # register order (probe, r1, r2, r3); position 1 is skipped for n = 1
    ov = overlap_with_product(3, 1, [factors[0], basis_ket(3, 0), factors[1], factors[2]])
    assert abs(ov - (-INV_SQRT6)) < 1e-15


def test_overlap_repeated_factor_vanishes():
    # probe equal to reference 1 duplicates a determinant column for the
    # n = 2 outcome; cancellation leaves only roundoff
    rng = np.random.default_rng(2)
    chi = haar_state(3, rng)
    factors = [chi, chi, haar_state(3, rng), haar_state(3, rng)]
    assert abs(overlap_with_product(3, 2, factors)) <= 1e-13
    assert abs(overlap_with_product(3, 3, factors)) <= 1e-13
    # while the matching outcome keeps a generic nonzero value
    assert abs(overlap_with_product(3, 1, factors)) > 1e-6


@pytest.mark.parametrize("d", [2, 3, 4])
def test_overlap_matches_brute_force(d):
    """Determinant fast path against the full-space contraction, and the
    per-branch decomposition <pi_n(k)|Psi> = chi_n[k] * overlap."""
    rng = np.random.default_rng(100 + d)
    for _ in range(100 // d):
        factors = [haar_state(d, rng) for _ in range(d + 1)]
        full = product_state(factors)
        for n in range(1, d + 1):
            ov = overlap_with_product(d, n, factors)
            total_sq = 0.0
            for k in range(d):
                bf = inner_product(build_povm_vector(d, n, k), full)
                assert abs(bf - factors[n][k] * ov) <= 1e-12
                total_sq += abs(bf) ** 2
            assert abs(total_sq - abs(ov) ** 2) <= 1e-12


def test_overlap_validation():
    rng = np.random.default_rng(0)
    factors = [haar_state(3, rng) for _ in range(4)]
    with pytest.raises(ValueError):
        overlap_with_product(3, 4, factors)
    with pytest.raises(ValueError):
        overlap_with_product(3, 1, factors[:3])
    with pytest.raises(ValueError):
        overlap_with_product(3, 2.0, factors)
    with pytest.raises(ValueError):
        overlap_with_product(3, 1.5, factors)
    bad = factors[:2] + [np.ones(2) / math.sqrt(2.0)] + factors[3:]
    with pytest.raises(ValueError):
        overlap_with_product(3, 1, bad)


def test_low_rank_element_validation():
    v0 = build_povm_vector(2, 1, 0)
    v1 = build_povm_vector(2, 1, 1)
    with pytest.raises(ValueError):
        LowRankPovmElement(1, 2.0 / 3.0, (v0, v0))  # not orthonormal
    with pytest.raises(ValueError):
        LowRankPovmElement(0, 2.0 / 3.0, (v0, v1))  # bad label
    with pytest.raises(ValueError):
        LowRankPovmElement(1, 0.0, (v0, v1))  # scale outside (0, 1]
    with pytest.raises(ValueError):
        LowRankPovmElement(1, 2.0 / 3.0, ())


def test_povm_wrapper_validation(povm2):
    with pytest.raises(ValueError):
        Povm(2, povm2.elements[:1])
    with pytest.raises(ValueError):
        Povm(2, (povm2.elements[1], povm2.elements[0]))


def test_large_dimension_stays_low_rank():
    povm = build_povm(5)
    assert povm.scale == pytest.approx(5.0 / 6.0)
    assert len(povm.elements) == 5


@pytest.mark.parametrize("d", [2, 3])
def test_povm_serialization_round_trip(d, povm2, povm3):
    povm = {2: povm2, 3: povm3}[d]
    wire = json.loads(jsonio.dumps(povm_to_dict(povm)))
    back = povm_from_dict(wire)
    assert back.d == d
    assert back.scale == povm.scale
    for a, b in zip(back.elements, povm.elements):
        assert a.label == b.label
        for va, vb in zip(a.vectors, b.vectors):
            np.testing.assert_array_equal(va.amps, vb.amps)
