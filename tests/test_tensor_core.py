import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditid.tensor_core import (
    StateVector,
    basis_ket,
    check_dim,
    decode_index,
    encode_index,
    haar_state,
    inner_product,
    product_state,
    state_from_dict,
    state_to_dict,
    total_dim,
    total_excitation,
)


def test_total_dim_values():
    assert total_dim(2) == 8
    assert total_dim(3) == 81
    assert total_dim(4) == 1024
    assert total_dim(5) == 15625


@pytest.mark.parametrize("bad", [1, 0, -3, 2.5, "3", True, 16])
def test_check_dim_rejects(bad):
    with pytest.raises(ValueError):
        check_dim(bad)


def test_encode_examples():
    assert encode_index([0, 0, 0], 2) == 0
    assert encode_index([1, 0, 0], 2) == 4
    assert encode_index([1, 1, 1], 2) == 7
    assert encode_index([0, 1, 2, 0], 3) == 15


def test_encode_rejects_bad_input():
    with pytest.raises(ValueError):
        encode_index([0, 2, 0], 2)  # digit out of range
    with pytest.raises(ValueError):
        encode_index([0, 0], 2)  # wrong length
    with pytest.raises(ValueError):
        decode_index(8, 2)
    with pytest.raises(ValueError):
        decode_index(-1, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_round_trip_exhaustive(d):
    for flat in range(total_dim(d)):
        digits = decode_index(flat, d)
        assert len(digits) == d + 1
        assert encode_index(digits, d) == flat


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5))
@settings(max_examples=200)
def test_round_trip_d4(digits):
    assert decode_index(encode_index(digits, 4), 4) == tuple(digits)


def test_total_excitation():
    assert total_excitation([0, 0, 0]) == 0
    assert total_excitation((2, 0, 1, 2)) == 5
    assert total_excitation(decode_index(15, 3)) == 3


def test_basis_ket():
    v = basis_ket(3, 1)
    assert v.dtype == np.complex128
    np.testing.assert_array_equal(v, [0, 1, 0])
    with pytest.raises(ValueError):
        basis_ket(3, 3)


def test_haar_state_normalized():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        for _ in range(20):
            v = haar_state(d, rng)
            assert v.shape == (d,)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_state_vector_validation():
    amps = np.zeros(8, dtype=np.complex128)
    amps[3] = 1.0
    sv = StateVector(2, amps)
    assert sv.dim == 8
    assert not sv.amps.flags.writeable
    # the buffer is copied at construction
    amps[3] = 0.0
    assert sv.amps[3] == 1.0

    with pytest.raises(ValueError):
        StateVector(2, np.zeros(8))  # not normalized
    with pytest.raises(ValueError):
        StateVector(2, np.ones(7))  # wrong length


def test_product_state_basis_factors():
    factors = [basis_ket(2, 1), basis_ket(2, 0), basis_ket(2, 0)]
    sv = product_state(factors)
    assert sv.amps[4] == 1.0
    assert np.count_nonzero(sv.amps) == 1


def test_product_state_random_normalized():
    rng = np.random.default_rng(42)
    for d in (2, 3, 4):
        sv = product_state([haar_state(d, rng) for _ in range(d + 1)])
        assert sv.dim == total_dim(d)
        assert abs(np.linalg.norm(sv.amps) - 1.0) < 1e-12


def test_product_state_rejects_bad_factors():
    with pytest.raises(ValueError):
        product_state([basis_ket(2, 0), basis_ket(2, 0), np.array([1.0, 1.0])])
    with pytest.raises(ValueError):
        product_state([np.array([1.0, 0.0, 0.0])] * 3)  # shape (3,) but d = 2


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(7)
    a = product_state([haar_state(2, rng) for _ in range(3)])
    b = product_state([haar_state(2, rng) for _ in range(3)])
    ab = inner_product(a, b)
    ba = inner_product(b, a)
    assert abs(ab - np.conj(ba)) < 1e-14
    assert abs(inner_product(a, a) - 1.0) < 1e-12


def test_inner_product_dimension_mismatch():
    rng = np.random.default_rng(1)
    a = product_state([haar_state(2, rng) for _ in range(3)])
    b = product_state([haar_state(3, rng) for _ in range(4)])
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_state_serialization_round_trip():
    rng = np.random.default_rng(3)
    sv = product_state([haar_state(2, rng) for _ in range(3)])
    back = state_from_dict(state_to_dict(sv))
    assert back.d == 2
    np.testing.assert_array_equal(back.amps, sv.amps)


def test_state_dict_amps_are_pairs_with_signed_zeros():
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = complex(-0.0, 0.6)
    amps[5] = complex(0.8, -0.0)
    sv = StateVector(2, amps)
    obj = state_to_dict(sv)
    assert obj["amps"].shape == (8, 2)
    assert obj["amps"].dtype == np.float64
    for pairs in (obj["amps"], obj["amps"].tolist()):
        back = state_from_dict({"d": 2, "amps": pairs})
        np.testing.assert_array_equal(back.amps.view(np.uint64), sv.amps.view(np.uint64))


def test_state_from_dict_rejects_non_pairs():
    with pytest.raises(ValueError):
        state_from_dict({"d": 2, "amps": [[1.0, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 7})


def test_state_from_dict_checks_norm():
    obj = {"d": 2, "amps": [[0.5, 0.0]] * 8}
    with pytest.raises(ValueError):
        state_from_dict(obj)
