import numpy as np
import pytest

from conftest import dense_pair_projector, haar_unitary
from quditid.montecarlo import haar_average_check
from quditid.state_ops import (
    DENSE_DIM_LIMIT,
    HermitianOperator,
    build_rho,
    rho_prefactor,
)
from quditid.tensor_core import total_dim


def sym_projector(d, n):
    """(I + SWAP_{0n})/2, rank d(d+1)/2 * d**(d-1)."""
    return HermitianOperator(d, n, 0.5, 0.5)


def asym_projector(d, n):
    """(I - SWAP_{0n})/2, rank d(d-1)/2 * d**(d-1)."""
    return HermitianOperator(d, n, 0.5, -0.5)


@pytest.mark.parametrize("d", [2, 3])
def test_projectors_match_dense_oracle(d):
    """The digit-swap form a*I + b*SWAP equals, entry for entry, the sum of
    pair-state outer products tensored with the spectator identity."""
    for n in range(1, d + 1):
        sym = sym_projector(d, n).to_dense()
        asym = asym_projector(d, n).to_dense()
        assert np.array_equal(sym, dense_pair_projector(d, n, +1))
        assert np.array_equal(asym, dense_pair_projector(d, n, -1))


@pytest.mark.parametrize("d,n", [(2, 1), (3, 2), (4, 3)])
def test_apply_matches_dense(d, n):
    rng = np.random.default_rng(d * 10 + n)
    vec = rng.standard_normal(total_dim(d)) + 1j * rng.standard_normal(total_dim(d))
    for op in (sym_projector(d, n), asym_projector(d, n), build_rho(d, n)):
        np.testing.assert_allclose(op.apply(vec), op.to_dense() @ vec, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "d,n,sym_rank,asym_rank",
    [(2, 1, 6, 2), (2, 2, 6, 2), (3, 1, 54, 27), (3, 2, 54, 27), (3, 3, 54, 27)],
)
def test_projector_ranks(d, n, sym_rank, asym_rank):
    """Rank = trace for a projector: d(d+1)/2 resp. d(d-1)/2 pair states,
    times d**(d-1) spectator configurations."""
    assert np.trace(sym_projector(d, n).to_dense()).real == pytest.approx(
        sym_rank, abs=1e-12
    )
    assert np.trace(asym_projector(d, n).to_dense()).real == pytest.approx(
        asym_rank, abs=1e-12
    )


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 2)])
def test_projectors_are_projectors(d, n):
    for build in (sym_projector, asym_projector):
        p = build(d, n).to_dense()
        assert np.max(np.abs(p - p.conj().T)) < 1e-14
        assert np.max(np.abs(p @ p - p)) < 1e-12


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 3)])
def test_sym_plus_asym_is_identity(d, n):
    total = sym_projector(d, n).to_dense() + asym_projector(d, n).to_dense()
    assert np.max(np.abs(total - np.eye(total_dim(d)))) < 1e-14


def test_projector_eigenvalues_are_binary():
    eigs = np.linalg.eigvalsh(sym_projector(2, 1).to_dense())
    assert np.all((np.abs(eigs) < 1e-12) | (np.abs(eigs - 1.0) < 1e-12))


def test_projector_rejects_bad_reference():
    with pytest.raises(ValueError):
        sym_projector(2, 0)
    with pytest.raises(ValueError):
        asym_projector(2, 3)


def test_rho_prefactor_values():
    assert rho_prefactor(2) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert rho_prefactor(3) == pytest.approx(2.0 / 108.0, abs=1e-16)


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


def test_haar_average_converges():
    dev = haar_average_check(2, 1, 20000, seed=5)
    assert dev < 0.02


def test_haar_average_single_sample_is_far():
    # one pure-state projector cannot reproduce a rank-6 mixture
    assert haar_average_check(2, 1, 1, seed=5) > 0.05


def test_haar_average_validation():
    with pytest.raises(ValueError):
        haar_average_check(2, 1, 0, seed=0)
    with pytest.raises(ValueError):
        haar_average_check(2, 3, 10, seed=0)
    with pytest.raises(ValueError):
        haar_average_check(5, 1, 10, seed=0)
    with pytest.raises(ValueError):
        haar_average_check(2, 1, 10, seed=-1)
    with pytest.raises(ValueError, match="must be an integer"):
        haar_average_check(2, 1, 10, seed=None)
    for samples in (True, 2.5):
        with pytest.raises(ValueError, match="must be an integer"):
            haar_average_check(2, 1, samples, seed=0)


def test_hermitian_operator_validation():
    assert HermitianOperator(2, np.int64(2), 1, 0) == HermitianOperator(2, 2, 1.0, 0.0)
    bad = [(1, 1), (2.0, 1), (True, 1), (2, 0), (2, 3), (2, 1.0), (2, True), (3, None)]
    for d, n in bad:
        with pytest.raises(ValueError):
            HermitianOperator(d, n, 0.5, 0.5)


def test_dense_guard_blocks_large_spaces():
    assert total_dim(5) > DENSE_DIM_LIMIT
    rho = build_rho(5, 1)  # construction stores four numbers
    with pytest.raises(ValueError):
        rho.to_dense()

