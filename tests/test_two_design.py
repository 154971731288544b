"""The paper's averaging step, checked exactly with a complex projective
2-design.

Averaging |psi><psi| (x) |psi><psi| over Haar-random psi gives
(I + SWAP)/(d(d+1)).  The d+1 mutually unbiased bases of a prime d form
a 2-design (Klappenecker and Roetteler, ISIT 2005), so the uniform
average over their d(d+1) states gives the same operator as a finite
sum.  The 5 MUBs of C^4 (Bandyopadhyay, Boykin, Roychowdhury and Vatan,
Algorithmica 34, 512 (2002)) are one too, so the check runs at every d
that build and verify accept, 2..5.  Every other reference needs only a
1-design: any orthonormal basis averages to I/d.  So the averaged
matching-probe state of build_rho(d, n) is the two-copy MUB average on
qudits (0, n) tensored with I/d on the other references, with no
sampling error.
"""

import numpy as np
import pytest

from conftest import pair_sym_projector
from quditid import state_ops
from quditid.state_ops import build_rho
from quditid.tensor_core import total_dim

TOL = 1e-13


def mub_states(d):
    """The d(d+1) states of d+1 mutually unbiased bases of C^d, as rows:
    the Pauli eigenbases at d = 2; at d = 4 the common eigenbases of the 5
    classes of commuting two-qubit Paulis, each as the eigenbasis of P1 + 2 P2
    for two members of a class, whose eigenvalues +-1 +-2 are distinct; at
    odd prime d the computational basis and (1/sqrt d) sum_j w**(b j**2 + k j) |j>
    for b, k in 0..d-1 (Wootters and Fields 1989)."""
    if d == 2:
        r = 1 / np.sqrt(2)
        return np.array([[1, 0], [0, 1], [r, r], [r, -r], [r, 1j * r], [r, -1j * r]])
    if d == 4:
        pauli = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
                 "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}

        def op(name):
            return np.kron(pauli[name[0]], pauli[name[1]])

        classes = [("ZI", "IZ"), ("XI", "IX"), ("YI", "IY"), ("XY", "YZ"), ("XZ", "YX")]
        return np.vstack([np.linalg.eigh(op(a) + 2 * op(b))[1].T for a, b in classes])
    j = np.arange(d)
    bases = [np.eye(d)]
    for b in range(d):
        k = np.arange(d)[:, None]
        bases.append(np.exp(2j * np.pi * ((b * j * j + k * j) % d) / d) / np.sqrt(d))
    return np.vstack(bases)


def two_copy_average(d):
    """Uniform average of |psi><psi| (x) |psi><psi| over the MUB states."""
    states = mub_states(d)
    pairs = np.einsum("si,sj->sij", states, states).reshape(len(states), d * d)
    return pairs.T @ pairs.conj() / len(states)


def averaged_state_apply(d, n, moment, vec):
    """The 2-design average on qudits (0, n), tensored with I/d on the
    d - 1 other references, applied to a flat register vector."""
    grid = np.moveaxis(vec.reshape((d,) * (d + 1)), n, 1)
    out = (moment @ grid.reshape(d * d, -1)).reshape(grid.shape) / d ** (d - 1)
    return np.moveaxis(out, 1, n).reshape(vec.shape)


def rho_deviation(d):
    """Largest relative deviation of build_rho(d, n).apply from the exact
    averaged state, over every n and a few random complex vectors."""
    moment = two_copy_average(d)
    rng = np.random.default_rng(d)
    worst = 0.0
    for n in range(1, d + 1):
        rho = build_rho(d, n)
        for _ in range(3):
            vec = rng.standard_normal(total_dim(d)) + 1j * rng.standard_normal(total_dim(d))
            want = averaged_state_apply(d, n, moment, vec)
            got = rho.apply(vec)
            worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    return worst


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 11, 13])
def test_mub_states_are_a_two_design(d):
    moment = two_copy_average(d)
    target = 2 * pair_sym_projector(d) / (d * (d + 1))  # (I + SWAP)/(d(d+1))
    assert np.max(np.abs(moment - target)) <= TOL * np.max(np.abs(target))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rho_is_the_exact_average_of_matching_products(d):
    assert rho_deviation(d) <= TOL


def _scaled_prefactor(monkeypatch):
    exact = state_ops.rho_prefactor
    monkeypatch.setattr(state_ops, "rho_prefactor", lambda d: exact(d) * (1 + 1e-9))


def _wrong_reference(monkeypatch):
    op = state_ops.HermitianOperator
    monkeypatch.setattr(state_ops, "HermitianOperator", lambda d, n: op(d, n % d + 1))


def _antisymmetric(monkeypatch):
    """c*(I - SWAP)/2, through a negated digit swap."""
    swap = state_ops.HermitianOperator._swap
    monkeypatch.setattr(state_ops.HermitianOperator, "_swap", lambda self, vec: -swap(self, vec))


@pytest.mark.parametrize("mutate", [_scaled_prefactor, _wrong_reference, _antisymmetric])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_broken_rho_fails_the_exact_average(monkeypatch, mutate, d):
    mutate(monkeypatch)
    assert rho_deviation(d) > TOL
