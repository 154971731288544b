import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import basis_ket, decode_index, stacked_vectors

from quditid import cli, jsonio
from quditid.analytics import conclusive_sum_spectrum
from quditid.detection import (
    LowRankPovmElement,
    _sign_gram,
    build_detection_core,
    build_povm,
    build_povm_vector,
    overlap_with_product,
    povm_to_dict,
)
from quditid.state_ops import build_rho
from quditid.tensor_core import (
    DENSE_MAX_D,
    MAX_DIM,
    NORM_TOL,
    StateVector,
    haar_state,
    inner_product,
    product_state,
    total_dim,
)

INV_SQRT6 = 1.0 / math.sqrt(6.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
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


def test_builders_refuse_d_above_dense_limit():
    """The size limit is checked before any amplitude is allocated, and d
    below the range gets the same message as d above it."""
    for d in (DENSE_MAX_D + 1, 1):
        message = rf"^dimension of a dense d\*\*\(d\+1\)-entry vector must lie in 2\.\.{DENSE_MAX_D}, got {d}$"
        with pytest.raises(ValueError, match=message):
            build_povm_vector(d, 1, 0)
        with pytest.raises(ValueError, match=message):
            build_detection_core(d, 1)
        with pytest.raises(ValueError, match=message):
            build_povm(d)
        with pytest.raises(ValueError, match=message):
            product_state([np.eye(d)[0]] * (d + 1))
        with pytest.raises(ValueError, match=message):
            conclusive_sum_spectrum(d)


# product_state counts d + 1 factors, so each count whose d lies outside
# 2..DENSE_MAX_D: d = -1, 0, 1, the first d past the dense limit, MAX_DIM
# and the first d past it.
@pytest.mark.parametrize("count", [0, 1, 2, DENSE_MAX_D + 2, MAX_DIM + 1, MAX_DIM + 2])
def test_product_state_refuses_a_factor_count_outside_the_dense_range(count):
    with pytest.raises(ValueError, match="^dimension of a dense"):
        product_state([np.eye(2)[0]] * count)


def _made_states(maker, d):
    """Every state `maker` returns at d: product_state of seeded Haar
    factors, or each outcome and branch of a measurement maker."""
    if maker == "product_state":
        rng = np.random.default_rng(d)
        return [product_state([haar_state(d, rng) for _ in range(d + 1)])]
    if maker == "build_povm_vector":
        return [build_povm_vector(d, n, k) for n in range(1, d + 1) for k in range(d)]
    if maker == "build_detection_core":
        return [build_detection_core(d, n) for n in range(1, d + 1)]
    return [v for elem in build_povm(d).elements for v in elem.vectors]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "maker", ["product_state", "build_povm_vector", "build_detection_core", "element vectors"]
)
def test_each_maker_returns_read_only_unit_states(maker, d):
    """StateVector checks nothing, so what it once checked is each maker's
    own guarantee: d**(d+1) read-only complex128 amplitudes of unit norm,
    and for a measurement vector exactly d! of them, each of modulus
    1/sqrt(d!)."""
    for state in _made_states(maker, d):
        assert type(state) is StateVector and state.d == d
        amps = state.amps
        assert amps.dtype == np.complex128 and amps.shape == (total_dim(d),)
        assert not amps.flags.writeable
        assert abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL
        if maker != "product_state":
            nz = amps[np.nonzero(amps)[0]]
            assert nz.size == math.factorial(d)
            assert np.max(np.abs(np.abs(nz) - 1.0 / math.sqrt(math.factorial(d)))) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
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


def test_build_povm_scale(povm2, povm3):
    assert povm2.scale == pytest.approx(2.0 / 3.0, abs=1e-16)
    assert povm3.scale == pytest.approx(3.0 / 4.0, abs=1e-16)
    assert [e.label for e in povm3.elements] == [1, 2, 3]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_foreign_rho_sum_null_space_dim(d):
    """The joint null space of sum_{m != n} rho_m has dimension exactly d:
    no conclusive element can be given a rank above d.  Each rho_m is real,
    c*(I + SWAP_{0m})/2, so the real eigensolve sees the same spectrum."""
    dense = {m: build_rho(d, m).to_dense() for m in range(1, d + 1)}
    assert all(not np.any(op.imag) for op in dense.values())
    for n in range(1, d + 1):
        acc = sum(op.real for m, op in dense.items() if m != n)
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
    # Factor n is held to the rule, though outcome n's determinant leaves it out.
    ket0, ket1 = basis_ket(2, 0), basis_ket(2, 1)
    for x in ["garbage", None, [np.nan, 1.0], [True, False], np.ones(3) / math.sqrt(3.0)]:
        with pytest.raises(ValueError, match="factor 1 "):
            overlap_with_product(2, 1, [ket0, x, ket1])
    # scale * |overlap|**2 is a probability only for unit factors.
    with pytest.raises(ValueError, match="factor 0 is not normalized"):
        overlap_with_product(2, 1, [5 * ket0, ket0, 3 * ket1])


@pytest.mark.parametrize("error", [9e-13, -9e-13])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_factors_within_tolerance_give_a_product_state(d, error):
    """Each factor is divided by its computed norm, so factors the rule accepts
    give a product it accepts, and the overlaps of exact unit factors."""
    rng = np.random.default_rng(d)
    for exact in ([basis_ket(d, 0)] * (d + 1), [haar_state(d, rng) for _ in range(d + 1)]):
        near = [(1.0 + error) * f for f in exact]
        assert product_state(near).d == d
        for n in range(1, d + 1):
            assert abs(overlap_with_product(d, n, near) - overlap_with_product(d, n, exact)) <= 1e-12


@pytest.mark.parametrize(
    "d, n",
    [pytest.param(d, n, id=f"d{d}-n{n}") for d in range(2, 6) for n in range(1, d + 1)],
)
def test_low_rank_element_keeps_integer_signs(d, n):
    """What build_povm guarantees of every element, one element n a case,
    since neither record checks it: a tuple of elements labelled 1..d at
    scale d/(d+1), each with a read-only int8 (d, d**(d+1)) sign matrix S
    of entries in {-1, 0, 1} and S S^T = d! I exactly, which
    analytics._traces relies on when it counts rank * d!."""
    povm = build_povm(d)
    assert povm.d == d
    assert type(povm.elements) is tuple
    assert [elem.label for elem in povm.elements] == list(range(1, d + 1))
    elem = povm.elements[n - 1]
    assert elem.d == d
    assert elem.scale == d / (d + 1)
    assert elem.signs.dtype == np.int8
    assert elem.signs.shape == (d, total_dim(d))
    assert not elem.signs.flags.writeable
    assert set(np.unique(elem.signs).tolist()) == {-1, 0, 1}
    np.testing.assert_array_equal(_sign_gram(elem.signs), math.factorial(d) * np.eye(d))
    m = stacked_vectors(elem)
    np.testing.assert_array_equal(elem.signs / math.sqrt(math.factorial(d)), m.real)
    np.testing.assert_array_equal(m.imag, 0.0)


def test_build_povm_keeps_only_sign_form():
    """The stored measurement is its int8 sign matrices: d*d rows of
    d**(d+1) bytes, 0.39 MB at d=5, where the dense complex vectors
    it once kept beside them took 12.3 MiB."""
    tracemalloc.start()
    try:
        povm = build_povm(5)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert povm.scale == 5.0 / 6.0
    assert retained < 2**20


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_povm_vector_is_a_row_of_the_element(d):
    """build_povm_vector and build_povm read the same sign matrix, so each
    vector is bit for bit the element's row over sqrt(d!)."""
    povm = build_povm(d)
    for n in range(1, d + 1):
        for k in range(d):
            want = povm.elements[n - 1].vectors[k].amps
            assert build_povm_vector(d, n, k).amps.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_povm_serialization_round_trip(d):
    """The JSON text carries each element's vectors bit for bit, signed
    zeros included, as (re, im) pairs, and the one scale d/(d+1) that
    build_povm gives every element."""
    povm = build_povm(d)
    wire = json.loads(jsonio.dumps(povm_to_dict(povm)))
    assert wire["d"] == d
    assert wire["scale"] == d / (d + 1)
    assert [e["n"] for e in wire["elements"]] == [e.label for e in povm.elements]
    for entry, elem in zip(wire["elements"], povm.elements, strict=True):
        for got, want in zip(entry["vectors"], elem.vectors, strict=True):
            assert got["d"] == d
            pairs = np.array(got["amps"], dtype=np.float64)
            np.testing.assert_array_equal(
                pairs.view(np.complex128).ravel().view(np.uint64), want.amps.view(np.uint64)
            )


def test_povm_to_dict_d5_makes_no_norm_call(monkeypatch):
    """Building and serialising the d = 5 measurement takes no norm of its
    15,625-amplitude vectors: each maker fixes the norm, and
    np.linalg.norm's BLAS ddot splits across threads above 10,000
    amplitudes, which once made one d = 5 vector take 16 ms instead of
    25 us."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    wire = povm_to_dict(build_povm(5))
    assert sum(len(e["vectors"]) for e in wire["elements"]) == 25


def test_build_path_forms_no_dense_vector(monkeypatch, tmp_path):
    """povm_to_dict hands jsonio each vector's signs, so neither it nor the
    `build` command asks an element for its dense vectors: at d = 5 those
    are 25 vectors of 15,625 complex amplitudes."""

    def refuse(self):
        raise AssertionError("LowRankPovmElement.vectors called")

    monkeypatch.setattr(LowRankPovmElement, "vectors", property(refuse))
    text = jsonio.dumps(povm_to_dict(build_povm(5)))
    assert text.count('"amps"') == 25
    path = tmp_path / "povm.json"
    assert cli.main(["build", "--d", "5", "--out", str(path)]) == 0
    assert path.stat().st_size == len(text) + 1
