import json
import time

import numpy as np
import pytest

from conftest import basis_ket, decode_index
from quditid import jsonio
from quditid.tensor_core import (
    MAX_DIM,
    StateVector,
    check_dim,
    encode_index,
    haar_state,
    inner_product,
    product_state,
    state_to_dict,
    total_dim,
)


def test_total_dim_values():
    assert total_dim(2) == 8
    assert total_dim(3) == 81
    assert total_dim(4) == 1024
    assert total_dim(5) == 15625


def test_check_dim_bounds_d_before_the_power():
    """The largest accepted d is 14 (14**15 < 2**62 <= 15**16), and a huge
    d is refused at once rather than after computing d**(d+1)."""
    assert check_dim(14) == 14
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"dimension must lie in 2\.\.14, got 1000000000"):
        check_dim(10**9)
    assert time.perf_counter() - t0 < 0.1


def test_max_dim_is_the_index_range_bound():
    """MAX_DIM is the largest d whose register size d**(d+1) stays below 2**62."""
    assert MAX_DIM == 14
    assert 14**15 < 2**62 <= 15**16
    with pytest.raises(ValueError, match=r"^dimension must lie in 2\.\.14, got 15$"):
        check_dim(15)


def test_encode_examples():
    assert encode_index([0, 0, 0], 2) == 0
    assert encode_index([1, 0, 0], 2) == 4
    assert encode_index([1, 1, 1], 2) == 7
    assert encode_index([0, 1, 2, 0], 3) == 15


def test_encode_rejects_bad_input():
    with pytest.raises(ValueError):
        encode_index([0, 2, 0], 2)  # digit out of range
    with pytest.raises(ValueError):
        encode_index([0, -1, 0], 2)
    with pytest.raises(ValueError):
        encode_index([0, 0], 2)  # wrong length
    # a float or a bool digit is refused, not truncated to 2, 4 or 5
    for digits in ([0.5, 1, 0], [1.9, 0, 0], [True, 0, 1], [1, 0, np.float64(1.0)]):
        with pytest.raises(ValueError, match="must be an integer"):
            encode_index(digits, 2)
    assert encode_index([np.int64(1), np.int8(0), 1], 2) == 5
    with pytest.raises(ValueError):
        decode_index(8, 2)
    with pytest.raises(ValueError):
        decode_index(-1, 2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_round_trip_exhaustive(d):
    for flat in range(total_dim(d)):
        digits = decode_index(flat, d)
        assert len(digits) == d + 1
        assert encode_index(digits, d) == flat


@pytest.mark.parametrize("d", range(2, MAX_DIM + 1))
def test_index_range_ends_at_every_dimension(d):
    """The all-(d-1) digits give the last index d**(d+1) - 1, past 2**53 at
    d = 13 and 14, so the arithmetic must stay in exact integers."""
    last = total_dim(d) - 1
    assert last == d ** (d + 1) - 1
    assert encode_index([d - 1] * (d + 1), d) == last
    assert decode_index(last, d) == (d - 1,) * (d + 1)
    assert decode_index(0, d) == (0,) * (d + 1)
    assert encode_index([1] + [0] * d, d) == d**d


def test_basis_ket():
    v = basis_ket(3, 1)
    assert v.dtype == np.complex128
    np.testing.assert_array_equal(v, [0, 1, 0])
    with pytest.raises(ValueError):
        basis_ket(3, 3)


@pytest.mark.parametrize("bad", [True, 1.0, np.float64(2.0)])
def test_basis_ket_rejects_non_integer_label(bad):
    # numpy would read v[True] = 1.0 as "every entry": [1, 1, 1].
    with pytest.raises(ValueError, match="must be an integer"):
        basis_ket(3, bad)


@pytest.mark.parametrize("bad", [5.5, 5.0, True])
def test_decode_index_rejects_non_integer(bad):
    with pytest.raises(ValueError, match="must be an integer"):
        decode_index(bad, 2)


def test_decode_index_accepts_numpy_integers():
    assert decode_index(np.int64(5), 2) == (1, 0, 1)


def test_haar_state_normalized():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        for _ in range(20):
            v = haar_state(d, rng)
            assert v.shape == (d,)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class _ZerosThenOnes:
    """An rng whose first two standard_normal draws are zeros, ones after."""

    def __init__(self):
        self.calls = 0

    def standard_normal(self, size):
        self.calls += 1
        return np.zeros(size) if self.calls <= 2 else np.ones(size)


def test_haar_state_refuses_a_zero_draw_instead_of_redrawing():
    rng = _ZerosThenOnes()
    with pytest.raises(ValueError, match="zero vector"):
        haar_state(2, rng)
    assert rng.calls == 2


def test_state_vector_copies_and_freezes_its_amplitudes():
    amps = np.zeros(8, dtype=np.complex128)
    amps[3] = 1.0
    sv = StateVector(2, amps)
    assert sv.amps.shape == (8,)
    assert not sv.amps.flags.writeable
    # the buffer is copied at construction
    amps[3] = 0.0
    assert sv.amps[3] == 1.0


def test_product_state_basis_factors():
    factors = [basis_ket(2, 1), basis_ket(2, 0), basis_ket(2, 0)]
    sv = product_state(factors)
    assert sv.amps[4] == 1.0
    assert np.count_nonzero(sv.amps) == 1


def test_product_state_random_normalized():
    rng = np.random.default_rng(42)
    for d in (2, 3, 4):
        sv = product_state([haar_state(d, rng) for _ in range(d + 1)])
        assert sv.amps.shape == (total_dim(d),)
        assert abs(np.linalg.norm(sv.amps) - 1.0) < 1e-12


def test_product_state_rejects_bad_factors():
    with pytest.raises(ValueError, match="factor 2 is not normalized"):
        product_state([basis_ket(2, 0), basis_ket(2, 0), np.array([1.0, 1.0])])
    with pytest.raises(ValueError, match=r"factor 0 has shape \(3,\), expected \(2,\)"):
        product_state([np.array([1.0, 0.0, 0.0])] * 3)  # shape (3,) but d = 2
    with pytest.raises(ValueError, match="factor 0 is not normalized"):
        product_state([np.array([np.nan, 0.0])] * 3)


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
    """state_to_dict through the JSON text gives back every amplitude."""
    rng = np.random.default_rng(3)
    sv = product_state([haar_state(2, rng) for _ in range(3)])
    wire = json.loads(jsonio.dumps(state_to_dict(sv)))
    assert wire["d"] == 2
    back = np.array(wire["amps"], dtype=np.float64).view(np.complex128).ravel()
    np.testing.assert_array_equal(back, sv.amps)


def test_state_dict_amps_are_a_read_only_view():
    rng = np.random.default_rng(5)
    sv = product_state([haar_state(3, rng) for _ in range(4)])
    amps = state_to_dict(sv)["amps"]
    assert np.shares_memory(amps, sv.amps)
    assert not amps.flags.writeable
    np.testing.assert_array_equal(
        amps.view(np.uint64), np.stack([sv.amps.real, sv.amps.imag], axis=1).view(np.uint64)
    )


def test_state_dict_amps_are_pairs_with_signed_zeros():
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = complex(-0.0, 0.6)
    amps[5] = complex(0.8, -0.0)
    sv = StateVector(2, amps)
    obj = state_to_dict(sv)
    assert obj["amps"].shape == (8, 2)
    assert obj["amps"].dtype == np.float64
    np.testing.assert_array_equal(
        obj["amps"].view(np.uint64), np.stack([amps.real, amps.imag], axis=1).view(np.uint64)
    )
    wire = json.loads(jsonio.dumps(obj))["amps"]
    assert wire[0] == [-0.0, 0.6] and str(wire[0][0]) == "-0.0"
    assert wire[5] == [0.8, -0.0] and str(wire[5][1]) == "-0.0"
