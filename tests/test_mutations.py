"""Mutation suite for `verify_report`: every check it keeps must flag at
least one deliberately broken measurement, and no check may flag a
mutant that leaves every element operator as it is.

Each mutant rebuilds the elements' sign rows from digits with one named
break, and reaches `verify_report` through `build_povm`, which each test
patches in `analytics` to return it; the table below pins
exactly which checks flag it, at d=2 and d=3 and, for the scale
mutants closest to the optimum, at d=4 and d=5.  The unbroken builder
reproduces `build_povm`'s sign matrices entry for entry, so each mutant
differs from the real measurement only by its break.

Some rows need a word.  Three mutants are equivalent: they change no
element operator s_m sum_k |v_k><v_k|, so every check must pass on them.
Dropping the (-1)**n phase multiplies every vector of element n by the
same sign, reversing the slot order multiplies every vector by
(-1)**(d(d-1)/2), and negating one vector leaves its projector as it is.
A scale below the optimum leaves I - sum Pi_m positive, so only the
success check catches it; one above also fails `primal_feasible`.
Tilting the scales of elements 1 and 2 by +-eps keeps their mean, so
at d=3, where d/(d+1) is a double, the success probability stays
exactly optimal and only `primal_feasible` catches it; at eps = 2**-40
the dense remainder's smallest eigenvalue is only about -7e-13, which a
float positivity check with an absolute 1e-10 tolerance passes.  At
d=4 the two tilted doubles no longer average to exactly 4/5, so the
success check flags that row too.

One mutant breaks the averaged states instead: rho_n's prefactor scaled
by 1 + 1e-9 or 1 - 1e-9 fails only the success check, at d = 2..5.
"""

import itertools

import numpy as np
import pytest
from conftest import dense_conclusive_sum, verify_built

from quditid import state_ops
from quditid.analytics import conclusive_sum_spectrum, verify_report
from quditid.detection import LowRankPovmElement, Povm, build_povm
from quditid.tensor_core import encode_index, total_dim


def _parity(perm):
    inversions = sum(
        perm[a] > perm[b] for a in range(len(perm)) for b in range(a + 1, len(perm))
    )
    return -1 if inversions % 2 else 1


def _other(d, n):
    """A reference qudit other than n."""
    return n % d + 1


def _vector(d, n, k, *, signed=True, phase=True, reverse=False, anti=None, shift=None):
    """Sign row of v_{n,k} (v = S / sqrt(d!)): the d qudits other than
    `anti` (default n) antisymmetrised over the digit values 0..d-1, then
    the digit of qudit `shift` (default n) raised by k mod d, with the
    overall phase (-1)**n."""
    anti = n if anti is None else anti
    shift = n if shift is None else shift
    slots = [j for j in range(d + 1) if j != anti]
    if reverse:
        slots.reverse()
    weight = -1 if n % 2 and phase else 1
    row = np.zeros(total_dim(d), dtype=np.int8)
    for perm in itertools.permutations(range(d)):
        digits = [0] * (d + 1)
        for slot, value in zip(slots, perm):
            digits[slot] = value
        digits[shift] = (digits[shift] + k) % d
        row[encode_index(digits, d)] = weight * (_parity(perm) if signed else 1)
    return row


def _povm(d, scale=1.0, vectors=None, scales=None, **breaks):
    """Measurement whose element n has the sign matrix S with rows
    `_vector(d, n, k, **breaks)`, k = 0..d-1, at `scale` times the
    optimum; `vectors(d, n, k)` overrides the row choice, and
    `scales[n]` overrides the scale of element n."""
    vectors = vectors or (lambda d, n, k: _vector(d, n, k, **breaks))
    scales = scales or {}
    return Povm(
        d,
        tuple(
            LowRankPovmElement(
                d,
                n,
                scales.get(n, scale * d / (d + 1)),
                np.array([vectors(d, n, k) for k in range(d)], dtype=np.int8),
            )
            for n in range(1, d + 1)
        ),
    )


def _tilted(d, eps):
    """Elements 1 and 2 at d/(d+1) + eps and d/(d+1) - eps: the mean
    scale, and with it the success probability, is exactly optimal."""
    return _povm(d, scales={1: d / (d + 1) + eps, 2: d / (d + 1) - eps})


def _negated(d, n, k):
    """Element 1's branch-0 vector with its sign flipped."""
    return -_vector(d, n, k) if (n, k) == (1, 0) else _vector(d, n, k)


def _borrowed(d, n, k):
    """Element 1's branch-0 vector taken from element 2."""
    return _vector(d, 2 if (n, k) == (1, 0) else n, k)


MUTANTS = {
    "scale x1.01": lambda d: _povm(d, scale=1.01),
    "scale x0.99": lambda d: _povm(d, scale=0.99),
    "scale x(1 + 1e-15)": lambda d: _povm(d, scale=1 + 1e-15),
    "scale x(1 - 1e-15)": lambda d: _povm(d, scale=1 - 1e-15),
    "scale x(1 - 5e-11)": lambda d: _povm(d, scale=1 - 5e-11),
    "tilted scales 2**-10": lambda d: _tilted(d, 2.0**-10),
    "tilted scales 2**-40": lambda d: _tilted(d, 2.0**-40),
    "unsigned permutations": lambda d: _povm(d, signed=False),
    "antisymmetrised over the wrong qudit": lambda d: _povm(
        d, vectors=lambda d, n, k: _vector(d, n, k, anti=_other(d, n))
    ),
    "branch shift on the wrong qudit": lambda d: _povm(
        d, vectors=lambda d, n, k: _vector(d, n, k, shift=_other(d, n))
    ),
    "dropped (-1)**n phase": lambda d: _povm(d, phase=False),
    "one vector from another element": lambda d: _povm(d, vectors=_borrowed),
    "reversed slot order (equivalent)": lambda d: _povm(d, reverse=True),
    "one vector negated (equivalent)": lambda d: _povm(d, vectors=_negated),
}

# Mutants that change no element operator: every check passes on them.
EQUIVALENT = (
    "dropped (-1)**n phase",
    "reversed slot order (equivalent)",
    "one vector negated (equivalent)",
)

SUCCESS = "success_matches_closed_form"
MISID = "no_misidentification"
PRIMAL = "primal_feasible"

# (mutant, d) -> the checks that flag it.
FLAGGED = {
    ("scale x1.01", 2): {SUCCESS, PRIMAL},
    ("scale x1.01", 3): {SUCCESS, PRIMAL},
    ("scale x0.99", 2): {SUCCESS},
    ("scale x0.99", 3): {SUCCESS},
    ("scale x(1 + 1e-15)", 4): {SUCCESS, PRIMAL},
    ("scale x(1 + 1e-15)", 5): {SUCCESS, PRIMAL},
    ("scale x(1 - 1e-15)", 4): {SUCCESS},
    ("scale x(1 - 1e-15)", 5): {SUCCESS},
    ("scale x(1 - 5e-11)", 4): {SUCCESS},
    ("scale x(1 - 5e-11)", 5): {SUCCESS},
    ("tilted scales 2**-10", 3): {PRIMAL},
    ("tilted scales 2**-40", 3): {PRIMAL},
    ("tilted scales 2**-40", 4): {SUCCESS, PRIMAL},
    ("unsigned permutations", 2): {MISID},
    ("unsigned permutations", 3): {MISID, PRIMAL},
    ("antisymmetrised over the wrong qudit", 2): {SUCCESS, MISID},
    ("antisymmetrised over the wrong qudit", 3): {SUCCESS, MISID},
    ("branch shift on the wrong qudit", 2): {MISID},
    ("branch shift on the wrong qudit", 3): {MISID},
    ("dropped (-1)**n phase", 2): set(),
    ("dropped (-1)**n phase", 3): set(),
    ("one vector from another element", 2): {SUCCESS, MISID, PRIMAL},
    ("one vector from another element", 3): {SUCCESS, MISID, PRIMAL},
    ("reversed slot order (equivalent)", 2): set(),
    ("reversed slot order (equivalent)", 3): set(),
    ("one vector negated (equivalent)", 2): set(),
    ("one vector negated (equivalent)", 3): set(),
}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_unbroken_builder_reproduces_build_povm(d):
    built = build_povm(d)
    rebuilt = _povm(d)
    assert rebuilt.scale == built.scale
    for mine, theirs in zip(rebuilt.elements, built.elements):
        assert mine.label == theirs.label
        np.testing.assert_array_equal(mine.signs, theirs.signs)


@pytest.mark.parametrize("mutant, d", list(FLAGGED))
def test_mutant_flagged_by_exactly(monkeypatch, mutant, d):
    report = verify_built(monkeypatch, d, MUTANTS[mutant](d))
    assert set(report["failed_checks"]) == FLAGGED[mutant, d]
    assert report["ok"] == (not FLAGGED[mutant, d])


@pytest.mark.parametrize("factor", [1 + 1e-9, 1 - 1e-9], ids=["up", "down"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_scaled_rho_prefactor_fails_only_the_success_check(monkeypatch, d, factor):
    """verify reads rho_n's prefactor from state_ops by the element
    scale's nearest-double rule, so a prefactor off by one part in 1e9,
    either way, moves the success probability off the closed form; the
    cross terms stay 0 and the measurement stays valid."""
    exact = state_ops.rho_prefactor
    monkeypatch.setattr(state_ops, "rho_prefactor", lambda d: exact(d) * factor)
    assert verify_report(d)["failed_checks"] == [SUCCESS]


@pytest.mark.parametrize("mutant, d", [key for key in FLAGGED if key[1] <= 3])
def test_exact_checks_decide_the_dense_spectrum(monkeypatch, mutant, d):
    """Dense oracle for primal_feasible, one implication at a time: a
    measurement that passes it has no remainder eigenvalue below -1e-12,
    one with a remainder eigenvalue below -1e-10 fails it, and one that
    passes every check has the closed-form remainder spectrum
    1 - conclusive_sum_spectrum(d).  The first two are not an iff:
    "tilted scales 2**-40" fails primal_feasible, exactly, while its
    least dense eigenvalue is only about -7e-13."""
    povm = MUTANTS[mutant](d)
    report = verify_built(monkeypatch, d, povm)
    dense = dense_conclusive_sum(povm.elements)
    remainder = np.linalg.eigvalsh(np.eye(total_dim(d)) - dense)
    if report["checks"][PRIMAL]:
        assert remainder[0] >= -1e-12
    if remainder[0] < -1e-10:
        assert not report["checks"][PRIMAL]
    if report["ok"]:
        want = np.sort(1.0 - conclusive_sum_spectrum(d))
        assert np.max(np.abs(remainder - want)) <= 1e-10


def test_every_check_flags_a_mutant(monkeypatch):
    checks = set(verify_report(2)["checks"])
    assert checks == {SUCCESS, MISID, PRIMAL}
    for check in checks:
        assert any(check in flagged for flagged in FLAGGED.values()), check
    for (mutant, d), flagged in FLAGGED.items():
        assert bool(flagged) is (mutant not in EQUIVALENT), (mutant, d)
        if mutant in EQUIVALENT:
            assert verify_built(monkeypatch, d, MUTANTS[mutant](d))["ok"] is True
