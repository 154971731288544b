"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them live).  Tolerances and runtime budgets are part of the criteria
and are asserted, not just reported.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from conftest import dense_conclusive_sum

from quditid import (
    build_detection_core,
    build_povm,
    build_povm_vector,
    build_rho,
    build_symmetric_family,
    closed_form_success,
    confusion,
    haar_average_check,
    haar_state,
    inner_product,
    optimal_weight_eigen,
    optimal_weight_grid,
    overlap_with_product,
    product_state,
    run_experiment,
    success_probability,
    total_dim,
)
from quditid.analytics import conclusive_sum_spectrum
from quditid.tensor_core import encode_index


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {desc}")
        raise
    print(f"PASS criterion {num:2d}: {desc}")


def test_criterion_01_closed_form_success():
    with criterion(1, "success probability matches 1/((d+1) d^(d-1)), d = 2..4"):
        t0 = time.perf_counter()
        for d in (2, 3, 4):
            povm = build_povm(d)
            assert abs(success_probability(povm, d) - closed_form_success(d)) <= 1e-12
        assert closed_form_success(2) == 1.0 / 6.0
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_no_misidentification():
    with criterion(2, "zero cross-talk: Tr(rho_n Pi_m) = 0 and rho_m kills foreign vectors"):
        for d in (2, 3, 4):
            povm = build_povm(d)
            conf = confusion(povm, d)
            assert conf.max_offdiagonal() <= 1e-12
            rhos = {m: build_rho(d, m) for m in range(1, d + 1)}
            for elem in povm.elements:
                for v in elem.vectors:
                    for m, rho in rhos.items():
                        if m == elem.label:
                            continue
                        assert np.linalg.norm(rho.apply(v.amps)) <= 1e-12


def test_criterion_03_povm_validity():
    with criterion(3, "completeness, positivity, and the two element-sum spectra"):
        for d in (2, 3, 4):
            povm = build_povm(d)
            D = total_dim(d)
            conclusive = dense_conclusive_sum(povm.elements)
            unknown = np.eye(D) - conclusive
            assert np.max(np.abs(conclusive + unknown - np.eye(D))) <= 1e-10
            eig_unknown = np.linalg.eigvalsh(unknown)
            assert eig_unknown[0] >= -1e-10
            # Conclusive sum: {0 (D - d^2 times), 1/(d+1) (d times), 1 (d(d-1) times)}.
            # The complement then carries {0, d/(d+1), 1}, which is where the
            # three-valued set quoted for this criterion actually lives; see
            # the conclusive_sum_spectrum docstring for the derivation.
            spec = conclusive_sum_spectrum(d)
            assert np.max(np.abs(np.linalg.eigvalsh(conclusive) - spec)) <= 1e-10
            assert np.max(np.abs(np.sort(eig_unknown) - np.sort(1.0 - spec))) <= 1e-10
            allowed = np.array([0.0, d / (d + 1.0), 1.0])
            assert np.max(np.min(np.abs(eig_unknown[:, None] - allowed), axis=1)) <= 1e-10


def test_criterion_04_gram_structure():
    with criterion(4, "Gram matrix: -1/d same-branch overlaps, orthogonal branches"):
        for d in (2, 3, 4):
            vs = [
                (n, k, build_povm_vector(d, n, k))
                for n in range(1, d + 1)
                for k in range(d)
            ]
            for m, k, a in vs:
                for n, kp, b in vs:
                    got = inner_product(a, b)
                    if k != kp:
                        want = 0.0
                    elif m == n:
                        want = 1.0
                    else:
                        want = -1.0 / d
                    assert abs(got - want) <= 1e-12
        # the qutrit overlap value, explicitly
        a = build_povm_vector(3, 1, 0)
        b = build_povm_vector(3, 2, 0)
        assert abs(inner_product(a, b) - (-1.0 / 3.0)) <= 1e-12


def test_criterion_05_golden_amplitudes():
    with criterion(5, "d = 3 detection amplitudes match the hand-computed table"):
        s = 1.0 / math.sqrt(6.0)
        tables = {
            1: {
                (0, 0, 1, 2): -s, (0, 0, 2, 1): +s, (1, 0, 0, 2): +s,
                (1, 0, 2, 0): -s, (2, 0, 0, 1): -s, (2, 0, 1, 0): +s,
            },
            2: {
                (0, 1, 0, 2): +s, (0, 2, 0, 1): -s, (1, 0, 0, 2): -s,
                (1, 2, 0, 0): +s, (2, 0, 0, 1): +s, (2, 1, 0, 0): -s,
            },
            3: {
                (0, 1, 2, 0): -s, (0, 2, 1, 0): +s, (1, 0, 2, 0): +s,
                (1, 2, 0, 0): -s, (2, 0, 1, 0): -s, (2, 1, 0, 0): +s,
            },
        }
        for n, table in tables.items():
            expected = np.zeros(total_dim(3), dtype=np.complex128)
            for digits, amp in table.items():
                expected[encode_index(digits, 3)] = amp
            core = build_detection_core(3, n)
            assert np.max(np.abs(core.amps - expected)) <= 1e-15


def test_criterion_06_independent_optimizer():
    with criterion(6, "abstract optimizer: d/(d+1) by eigenvalue, grid oracle agrees"):
        t0 = time.perf_counter()
        for d in (2, 3, 4, 5, 6):
            fam = build_symmetric_family(d)
            assert abs(optimal_weight_eigen(fam) - d / (d + 1.0)) <= 1e-12
        _, total = optimal_weight_grid(build_symmetric_family(2), 0.01)
        assert abs(total - 4.0 / 3.0) <= 0.02
        assert time.perf_counter() - t0 < 60.0


def test_criterion_07_monte_carlo_convergence():
    with criterion(7, "simulated success rates converge to the closed form"):
        t0 = time.perf_counter()
        r2 = run_experiment(2, 100000, 12345)
        assert r2.error_count == 0
        assert abs(r2.success_rate - 1.0 / 6.0) <= 0.0036
        r3 = run_experiment(3, 1000000, 12345)
        assert r3.error_count == 0
        assert abs(r3.success_rate - 1.0 / 36.0) <= 0.0005
        assert time.perf_counter() - t0 < 120.0


def test_criterion_08_fast_path_equivalence():
    with criterion(8, "determinant overlap equals the full tensor contraction"):
        for d in (2, 3, 4):
            rng = np.random.default_rng(800 + d)
            for _ in range(100):
                factors = [haar_state(d, rng) for _ in range(d + 1)]
                full = product_state(factors)
                for n in range(1, d + 1):
                    ov = overlap_with_product(d, n, factors)
                    brute = sum(
                        abs(inner_product(build_povm_vector(d, n, k), full)) ** 2
                        for k in range(d)
                    )
                    assert abs(brute - abs(ov) ** 2) <= 1e-12
                    bf0 = inner_product(build_povm_vector(d, n, 0), full)
                    assert abs(bf0 - factors[n][0] * ov) <= 1e-12


def test_criterion_09_kernel_dimension():
    with criterion(9, "joint kernel of the rival averaged states has dimension d"):
        for d in (2, 3):
            D = total_dim(d)
            for n in range(1, d + 1):
                acc = np.zeros((D, D), dtype=np.complex128)
                for m in range(1, d + 1):
                    if m != n:
                        acc += build_rho(d, m).to_dense()
                eigs = np.linalg.eigvalsh(acc)
                assert int(np.sum(np.abs(eigs) < 1e-8)) == d


def test_criterion_10_haar_average_consistency():
    with criterion(10, "sampled average of matching product states reproduces rho"):
        dev = haar_average_check(2, 1, 100000, seed=2024)
        assert dev < 0.02
