import hashlib

import numpy as np
import pytest

from conftest import dense_pair_projector, haar_unitary
from quditid.state_ops import (
    DENSE_DIM_LIMIT,
    HermitianOperator,
    build_rho,
    rho_prefactor,
)
from quditid.tensor_core import total_dim


def sym_projector(d, n):
    """P_sym = (I + SWAP_{0n})/2 = rho_n / c, dense, rank d(d+1)/2 * d**(d-1)."""
    return build_rho(d, n).to_dense() / rho_prefactor(d)


@pytest.mark.parametrize("d", [2, 3])
def test_projectors_match_dense_oracle(d):
    """rho_n / c from the digit swap and its complement I - P_sym equal,
    entry for entry, the sum of pair-state outer products tensored with
    the spectator identity."""
    for n in range(1, d + 1):
        sym = sym_projector(d, n)
        assert np.array_equal(sym, dense_pair_projector(d, n, +1))
        assert np.array_equal(np.eye(total_dim(d)) - sym, dense_pair_projector(d, n, -1))


@pytest.mark.parametrize(
    "d,n", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4)]
)
def test_apply_matches_dense(d, n):
    rng = np.random.default_rng(d * 10 + n)
    vec = rng.standard_normal(total_dim(d)) + 1j * rng.standard_normal(total_dim(d))
    rho = build_rho(d, n)
    np.testing.assert_allclose(rho.apply(vec), rho.to_dense() @ vec, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "d,n,sym_rank,asym_rank",
    [(2, 1, 6, 2), (2, 2, 6, 2), (3, 1, 54, 27), (3, 2, 54, 27), (3, 3, 54, 27)]
    + [(4, n, 640, 384) for n in range(1, 5)],
)
def test_projector_ranks(d, n, sym_rank, asym_rank):
    """Rank = trace for a projector: d(d+1)/2 resp. d(d-1)/2 pair states,
    times d**(d-1) spectator configurations."""
    sym = sym_projector(d, n)
    assert np.trace(sym).real == pytest.approx(sym_rank, abs=1e-12)
    assert np.trace(np.eye(total_dim(d)) - sym).real == pytest.approx(asym_rank, abs=1e-12)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 2)])
def test_projectors_are_projectors(d, n):
    sym = sym_projector(d, n)
    for p in (sym, np.eye(total_dim(d)) - sym):
        assert np.max(np.abs(p - p.conj().T)) < 1e-14
        assert np.max(np.abs(p @ p - p)) < 1e-12


def test_projector_eigenvalues_are_binary():
    eigs = np.linalg.eigvalsh(sym_projector(2, 1))
    assert np.all((np.abs(eigs) < 1e-12) | (np.abs(eigs - 1.0) < 1e-12))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rho_unit_trace(d):
    for n in range(1, d + 1):
        assert np.trace(build_rho(d, n).to_dense()).real == pytest.approx(1.0, abs=1e-12)


def test_rho_entry_example():
    # digits (0,0,0): probe and reference 1 coincide -> diagonal sym entry
    assert build_rho(2, 1).to_dense()[0, 0] == pytest.approx(1.0 / 6.0, abs=1e-16)


def test_rho_spectrum_two_valued():
    rho = build_rho(2, 1)
    eigs = np.linalg.eigvalsh(rho.to_dense())
    assert eigs[0] > -1e-12
    top = rho_prefactor(2)
    assert np.all((np.abs(eigs) < 1e-12) | (np.abs(eigs - top) < 1e-12))
    # multiplicity of the nonzero eigenvalue = sym rank
    assert np.count_nonzero(eigs > top / 2) == 6


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 2)])
def test_rho_collective_unitary_invariance(d, n):
    """rho_n is built from an average over unknown states, so applying the
    same unitary to probe and reference n (anything to the spectators)
    must leave it fixed."""
    rng = np.random.default_rng(11)
    u = haar_unitary(d, rng)
    ops = []
    for pos in range(d + 1):
        if pos == 0 or pos == n:
            ops.append(u)
        else:
            ops.append(haar_unitary(d, rng))
    full = ops[0]
    for g in ops[1:]:
        full = np.kron(full, g)
    dense = build_rho(d, n).to_dense()
    assert np.max(np.abs(full @ dense @ full.conj().T - dense)) < 1e-12


def test_hermitian_operator_accepts_a_numpy_integer():
    assert HermitianOperator(2, np.int64(2)) == HermitianOperator(2, 2)


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# rho_n's bytes, as c/2 * vec + c/2 * SWAP_{0n} vec forms them: dense at
# d <= 4, and applied to a seeded real vector and a seeded complex (D, 3)
# array at d <= 5.  A change to the scale or the swap moves a digest.
RHO_DENSE_SHA256 = {
    (2, 1): "52dca43d8fa228b2bb91f9c152270dbf476fa094bd9b9871f19589bf0c12fcc2",
    (2, 2): "e0ad74ae585478a10d786fd392a756abaed7b46e889ee7aab1e0f6d9ada1471e",
    (3, 1): "6d23a1206273ac3ce10a502858c22eb564f11dca7c08a9720aecd8d75cb4d771",
    (3, 2): "afe9943befa41be5e2046619b7ad9c918e50bd8739b7a6a6a0be1f5817df760e",
    (3, 3): "f559822426d9d73a994f0a6040dcbbc29f023c2a6102ded9d0bfd281010b08c1",
    (4, 1): "6ae0ec6cf08dfc0afc35187edb6db775bc8dd34338012850d5aaa88f8c9b9b72",
    (4, 2): "db6b92cff9f5c72339bc430d3264b478caef2885e095e89a2c527155882e955d",
    (4, 3): "aad27bdc4b2fdc04fd6b05acc7f79615b97efad084b24136f766ad1afd4bf988",
    (4, 4): "2b920d8bd6532a2533b918ce45e5baf9d27ea6238b1f90d4ffd43e89a6f389a8",
}

RHO_APPLY_SHA256 = {
    (2, 1): (
        "f964012e2e0dcdf9b9662308f3a925a666f92dabe1345e0416bf9c5092059fb9",
        "61b965d28cd7070cd469b80c3c574d5dd06fa7f6acba316df8f8c413dce1fdcf",
    ),
    (2, 2): (
        "3660b6ac054949843c785e6c364a25e819af447c6d37a1565801a3018348c25d",
        "5150b26222ad0824c63554b14695408d67a0bf2df1a7044c4afac472216960a5",
    ),
    (3, 1): (
        "397a2ab3b229ac2e93c910d2d1af0748d940485b6882b9c10c5fa98510882f73",
        "fb41d597a2119d8eba3266c4323e98a0165e3bd896dc250f49355f5124bc5e0a",
    ),
    (3, 2): (
        "4eb21163b9aaec03771b064ba31e6bcdfa971a52d75b7d8bdeae7771b8a46266",
        "2e342975aa8ef99e2b94ae878b48883c3e5872ba05effb7c759b10cdf90edcbc",
    ),
    (3, 3): (
        "1b94f04f21262f7345c056a1d2fa436cde79af830db101184def3acff4fe63a0",
        "59442cd64fb8236f346a8ab9da5e670982c308869b667ea50418bca7d578653d",
    ),
    (4, 1): (
        "9e2b7e399e9618e637c216f45571638dddfd9629fbde0835ee0f25ac47997db9",
        "78fff86db0896c3ed3e0770768900cf178f88c052a9641e2866c21b51aea9e4c",
    ),
    (4, 2): (
        "5fe44e8147902e4b3b4fa1da19b337f2929a84283e8edb909a730b4ca16a8a4c",
        "cd66024b27a2578e1b445b9d6ca4b41b1eec22577194def6294efea8715edeb5",
    ),
    (4, 3): (
        "e398eb06b9ac3217b0f85fcb8cb0aa337d8286f4a74c1220d49b0d2bfe175773",
        "1557fe015a9a0fb4378563d5b3c43702192e4f398003fbe4a171b90c92652f8e",
    ),
    (4, 4): (
        "63a183b35788928b2367e18d4de694b352b039d6ce3a69bff0aab0bc641d6fdc",
        "4eb766fd92baef3fb45b9174d5523a9d11742dbc4c1def1b26f291df419d6c83",
    ),
    (5, 1): (
        "20b99e47d2e88b54b33fd2ff2309a814baa8c654416da19dbdc0cbd2b17d913f",
        "26c828747b1e07eb106ccf4c210412a4f6efde334a1b30462bb889400f211d2b",
    ),
    (5, 2): (
        "5de2f4c59ed3bd91effdab15e55aea047451f2ba9ba623e2cb61f614f1be82bd",
        "7e50df66dad456942959114ea20ed129c7967c310ec403ed043f369e4af79c0e",
    ),
    (5, 3): (
        "f6bf1e4b730f4869f14ae6ceebae014d1b3e5124d278c78e4fdb0154069f671c",
        "47c75967913f1be6989e7cae9eddc974d9ee207a2f0ae81de76f5b62c599b91a",
    ),
    (5, 4): (
        "ab755753daec84f82955a063baf938f1dc94ba1544224b4706a88a1a94d0ab47",
        "9738385a770f985d10de8c322f0837d41a40155db6b40ef9ec0c3c9d17761ac0",
    ),
    (5, 5): (
        "a609199ee994feb8ab324719cdfe10ae9ca4a5ae86bfa32bd2fe042c74d8fb25",
        "ce703178e73439d23befc8496efd2f7bbbecfadb3bc58192f6c55817e88d350f",
    ),
}


@pytest.mark.parametrize("d,n", sorted(RHO_DENSE_SHA256))
def test_rho_dense_bytes_are_pinned(d, n):
    dense = build_rho(d, n).to_dense()
    assert dense.dtype == np.complex128
    assert _sha256(dense) == RHO_DENSE_SHA256[d, n]


@pytest.mark.parametrize("d,n", sorted(RHO_APPLY_SHA256))
def test_rho_apply_bytes_are_pinned(d, n):
    rng = np.random.default_rng(100 * d + n)
    D = total_dim(d)
    real = rng.standard_normal(D)
    cplx = rng.standard_normal((D, 3)) + 1j * rng.standard_normal((D, 3))
    rho = build_rho(d, n)
    out_real, out_cplx = rho.apply(real), rho.apply(cplx)
    assert (out_real.dtype, out_cplx.dtype) == (np.float64, np.complex128)
    assert (_sha256(out_real), _sha256(out_cplx)) == RHO_APPLY_SHA256[d, n]


def test_dense_guard_blocks_large_spaces():
    assert total_dim(5) > DENSE_DIM_LIMIT
    rho = build_rho(5, 1)  # construction stores two numbers
    with pytest.raises(ValueError):
        rho.to_dense()

