"""One boundary table for every number the package accepts.

Each numeric parameter of a name in quditid.__all__, of
sym_optimizer.check_grid, of the state_ops.HermitianOperator constructor
behind build_rho and of each CLI option is fed what its rule
refuses: a bool, a float where an integer is due, NaN, +-inf, a string
and one past each bound.  The library must raise ValueError, and the CLI
must exit 1 without creating its --out file.  The bounds themselves are
accepted, each within a small budget: a simulation runs at most one
batch, and no huge --trials is started.  A public name that is neither
in the table nor in NO_NUMERIC_INPUT fails the coverage test, so a new
name cannot ship without a row.

Each behaviour is checked in one place: a paper claim in the acceptance
suite (test_acceptance.py), a refused input here, a deliberately broken
construction in test_mutations.py and test_two_design.py, and everything
else in its module's tests.  A module test adds a refusal only where its
row here cannot make it: a message, or when the refusal happens.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import quditid
from conftest import basis_ket
from quditid import cli
from quditid.state_ops import HermitianOperator
from quditid.sym_optimizer import check_grid

NAN, INF = math.nan, math.inf
TOP = 2**64 - 1  # the largest seed, trial index and count

# Names whose arguments hold no number for the package to check: a
# constant, and functions that read only objects their makers built.
NO_NUMERIC_INPUT = [
    "INCONCLUSIVE",
    "inner_product",
    "optimal_weight_eigen",
    "povm_to_dict",
]

POVM2 = quditid.build_povm(2)
FAM2 = quditid.build_symmetric_family(2)
KETS2 = [basis_ket(2, 0), basis_ket(2, 1), basis_ket(2, 0)]


@dataclass(frozen=True)
class Param:
    """One numeric parameter: `call(value)` calls `name` with every other
    argument valid.  `kind` picks the refused values; `accept` lists the
    values that must pass, by default the bounds themselves."""

    name: str
    param: str
    kind: str
    low: object
    high: object
    call: object
    accept: tuple = None

    @property
    def accepted(self):
        return (self.low, self.high) if self.accept is None else self.accept


def _dim(name, call, low=2, high=14, accept=None):
    return Param(name, "d", "integer", low, high, call, accept)


# "integer": _check_index's rule.  "real": _check_real's rule; low and high
# are the extreme accepted doubles.  "finite array" and "unit vector": the
# valid array is `low`, and a bool or string array of the right shape is
# refused too, even where its values would pass (a one-hot bool array, or
# numeric strings); past its dtype a unit vector is held to its norm only,
# which twice the valid vector fails.
TABLE = [
    _dim("total_dim", quditid.total_dim),
    _dim("closed_form_success", quditid.closed_form_success),
    _dim("build_symmetric_family", quditid.build_symmetric_family),
    _dim("haar_state", lambda d: quditid.haar_state(d, np.random.default_rng(0))),
    _dim("HermitianOperator", lambda d: HermitianOperator(d, 1)),
    Param("HermitianOperator", "n", "integer", 1, 2, lambda n: HermitianOperator(2, n)),
    _dim("build_rho", lambda d: quditid.build_rho(d, 1)),
    Param("build_rho", "n", "integer", 1, 2, lambda n: quditid.build_rho(2, n)),
    Param("build_rho", "apply(vec)", "finite array", np.eye(8)[3], None,
          lambda v: quditid.build_rho(2, 1).apply(v)),
    _dim("encode_index", lambda d: quditid.encode_index([0, 0, 0], d), accept=(2,)),
    Param("encode_index", "digit", "integer", 0, 1,
          lambda x: quditid.encode_index([x, 0, 0], 2)),
    _dim("build_povm", quditid.build_povm, high=5),
    _dim("build_povm_vector", lambda d: quditid.build_povm_vector(d, 1, 0), high=5),
    Param("build_povm_vector", "n", "integer", 1, 2,
          lambda n: quditid.build_povm_vector(2, n, 0)),
    Param("build_povm_vector", "k", "integer", 0, 1,
          lambda k: quditid.build_povm_vector(2, 1, k)),
    _dim("build_detection_core", lambda d: quditid.build_detection_core(d, 1), high=5),
    Param("build_detection_core", "n", "integer", 1, 2,
          lambda n: quditid.build_detection_core(2, n)),
    _dim("verify_report", quditid.verify_report, high=5, accept=(2,)),
    _dim("confusion", lambda d: quditid.confusion(POVM2, d), accept=(2,)),
    _dim("success_probability", lambda d: quditid.success_probability(POVM2, d), accept=(2,)),
    # product_state is the one maker of a state from caller input, so every
    # factor is fed what _check_factors refuses.
    *(Param("product_state", f"factors[{j}]", "unit vector", KETS2[j], None,
            lambda f, j=j: quditid.product_state([*KETS2[:j], f, *KETS2[j + 1:]]))
      for j in range(3)),
    Param("frame_operator", "weights", "finite array", np.ones(2), None,
          lambda w: quditid.frame_operator(FAM2, w)),
    Param("optimal_weight_grid", "resolution", "real", 0.001, 0.1,
          lambda r: quditid.optimal_weight_grid(FAM2, r)),
    _dim("overlap_with_product", lambda d: quditid.overlap_with_product(d, 1, KETS2),
         accept=(2,)),
    Param("overlap_with_product", "n", "integer", 1, 2,
          lambda n: quditid.overlap_with_product(2, n, KETS2)),
    # n = 1 leaves factor 1 out of the determinant; it is checked all the same.
    *(Param("overlap_with_product", f"factors[{j}]", "unit vector", KETS2[j], None,
            lambda f, j=j: quditid.overlap_with_product(2, 1, [*KETS2[:j], f, *KETS2[j + 1:]]))
      for j in range(3)),
    _dim("haar_average_check", lambda d: quditid.haar_average_check(d, 1, 1, 0), high=4),
    Param("haar_average_check", "n", "integer", 1, 2,
          lambda n: quditid.haar_average_check(2, n, 1, 0)),
    Param("haar_average_check", "samples", "integer", 1, TOP,
          lambda s: quditid.haar_average_check(2, 1, s, 0), accept=(1,)),
    Param("haar_average_check", "seed", "integer", 0, TOP,
          lambda s: quditid.haar_average_check(2, 1, 1, s)),
    _dim("run_experiment", lambda d: quditid.run_experiment(d, 1, 0), high=10),
    Param("run_experiment", "trials", "integer", 1, TOP,
          lambda t: quditid.run_experiment(2, t, 0), accept=(1,)),
    Param("run_experiment", "seed", "integer", 0, TOP,
          lambda s: quditid.run_experiment(2, 1, s)),
    _dim("trial_batches", lambda d: next(quditid.trial_batches(d, 1, 0)), high=10),
    # trial_batches refuses at the call; an accepted call runs one batch.
    Param("trial_batches", "trials", "integer", 1, TOP,
          lambda t: next(quditid.trial_batches(2, t, TOP))),
    Param("trial_batches", "seed", "integer", 0, TOP,
          lambda s: next(quditid.trial_batches(2, TOP, s))),
    _dim("check_grid", lambda d: check_grid(d, 0.01), high=3),
    Param("check_grid", "resolution", "real", 0.001, 0.1, lambda r: check_grid(2, r)),
]


def _with_entry(valid, value, dtype):
    bad = np.array(valid, dtype=dtype)
    bad.flat[0] = value
    return bad


def _refused(p):
    """The values p's rule refuses, each with a label."""
    if p.kind == "integer":
        return {"bool": True, "float": float(p.low), "nan": NAN, "inf": INF, "-inf": -INF,
                "string": str(p.low), "below": p.low - 1, "above": p.high + 1}
    if p.kind == "real":
        return {"bool": True, "nan": NAN, "inf": INF, "-inf": -INF, "string": str(p.low),
                "below": math.nextafter(p.low, -INF), "above": math.nextafter(p.high, INF)}
    valid = np.asarray(p.low)
    dtype = np.complex128 if valid.dtype.kind == "c" else np.float64
    values = {"bool": True, "string": "1", "nan": _with_entry(valid, NAN, dtype),
              "inf": _with_entry(valid, INF, dtype), "-inf": _with_entry(valid, -INF, dtype),
              "short": valid[..., :-1]}
    values["bool array"] = valid != 0
    values["string array"] = valid.astype(str)
    if p.kind == "unit vector":
        values["2 x valid"] = 2 * valid
    return values


def _cases():
    for p in TABLE:
        for label, value in _refused(p).items():
            yield pytest.param(p, value, id=f"{p.name}-{p.param}-{label}")


@pytest.mark.parametrize("p, value", _cases())
def test_library_refuses_with_value_error(p, value):
    with pytest.raises(ValueError):
        p.call(value)


@pytest.mark.parametrize(
    "p", [p for p in TABLE if p.kind in ("integer", "real")],
    ids=lambda p: f"{p.name}-{p.param}",
)
def test_library_accepts_each_bound(p):
    for value in p.accepted:
        p.call(value)


@pytest.mark.parametrize(
    "p", [p for p in TABLE if p.kind not in ("integer", "real")],
    ids=lambda p: f"{p.name}-{p.param}",
)
def test_library_accepts_the_valid_array(p):
    p.call(p.low)


def test_every_public_name_is_in_the_table():
    covered = {p.name for p in TABLE}
    assert covered.isdisjoint(NO_NUMERIC_INPUT)
    listed = set(quditid.__all__) | {"check_grid", "HermitianOperator"}
    assert sorted(covered | set(NO_NUMERIC_INPUT)) == sorted(listed)


# CLI options: (base arguments, option, kind, low, high).  Everything
# argparse or the library refuses exits 1 and writes nothing.
CLI_OPTIONS = [
    (["build"], "--d", "integer", 2, 5),
    (["verify"], "--d", "integer", 2, 5),
    (["simulate", "--trials", "1"], "--d", "integer", 2, 5),
    (["simulate", "--d", "2"], "--trials", "integer", 1, TOP),
    (["simulate", "--d", "2", "--format", "csv"], "--trials", "integer", 1, TOP),
    (["simulate", "--d", "2", "--trials", "1"], "--seed", "integer", 0, TOP),
    (["simulate", "--d", "2", "--trials", "1", "--format", "csv"], "--seed", "integer", 0, TOP),
    (["optimize"], "--d", "integer", 2, 14),
    (["optimize", "--mode", "grid"], "--d", "integer", 2, 3),
    (["optimize", "--d", "2", "--mode", "grid"], "--resolution", "real", 0.001, 0.1),
]


def _cli_cases():
    for base, option, kind, low, high in CLI_OPTIONS:
        # A string of digits is a valid command-line value, so the string is "x".
        refused = {**_refused(Param("cli", option, kind, low, high, None)), "string": "x"}
        for label, value in refused.items():
            argv = [*base, option, repr(value) if kind == "real" else str(value)]
            yield pytest.param(argv, id=f"{' '.join(base)} {option} {label}")


@pytest.mark.parametrize("argv", _cli_cases())
def test_cli_refuses_with_exit_1_and_no_file(capsys, tmp_path, argv):
    path = tmp_path / "out"
    assert cli.main([*argv, "--out", str(path)]) == 1
    assert ": error: " in capsys.readouterr().err
    assert not path.exists()


# The bounds each option accepts, run cheaply: --trials 2**64 - 1 is left
# to test_library_accepts_each_bound, which advances one batch.
CLI_ACCEPTED = [
    ["build", "--d", "2"],
    ["build", "--d", "5"],
    ["verify", "--d", "2"],
    ["verify", "--d", "5"],
    ["simulate", "--d", "2", "--trials", "1", "--seed", "0"],
    ["simulate", "--d", "5", "--trials", "1", "--seed", str(TOP), "--format", "csv"],
    ["optimize", "--d", "14"],
    ["optimize", "--d", "3", "--mode", "grid", "--resolution", "0.1"],
    ["optimize", "--d", "2", "--mode", "grid", "--resolution", "0.001"],
    ["optimize", "--d", "3", "--mode", "grid", "--resolution", "0.001"],
]


@pytest.mark.parametrize("argv", CLI_ACCEPTED, ids=" ".join)
def test_cli_accepts_each_bound(capsys, tmp_path, argv):
    path = tmp_path / "out"
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert path.stat().st_size > 0
