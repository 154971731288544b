import json
import math

import numpy as np
import pytest

from quditid import jsonio
from quditid.detection import build_povm, povm_to_dict


def test_format_float_17_digits():
    assert jsonio.format_float(1.0 / 3.0) == "0.33333333333333331"
    assert jsonio.format_float(2.0 / 3.0) == "0.66666666666666663"


def test_format_float_always_looks_like_a_float():
    assert jsonio.format_float(1.0) == "1.0"
    assert jsonio.format_float(-4.0) == "-4.0"
    assert "e" in jsonio.format_float(1e-30).lower()


def test_format_float_round_trips():
    rng = np.random.default_rng(12)
    for x in rng.standard_normal(200):
        assert float(jsonio.format_float(x)) == x


def test_format_float_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            jsonio.format_float(bad)


def test_dumps_is_valid_json():
    obj = {
        "d": 3,
        "flag": True,
        "nothing": None,
        "rates": [0.5, np.float64(0.25)],
        "counts": np.array([1, 2, 3]),
        "nested": {"x": 1e-12},
    }
    parsed = json.loads(jsonio.dumps(obj))
    assert parsed["d"] == 3
    assert parsed["flag"] is True
    assert parsed["nothing"] is None
    assert parsed["rates"] == [0.5, 0.25]
    assert parsed["counts"] == [1, 2, 3]
    assert parsed["nested"]["x"] == 1e-12


def test_dumps_rejects_unserializable():
    with pytest.raises(TypeError):
        jsonio.dumps({"x": object()})
    with pytest.raises(TypeError):
        jsonio.dumps({1: "non-string key"})


def test_dumps_empty_containers():
    assert jsonio.dumps({}) == "{}"
    assert jsonio.dumps([]) == "[]"


_SPECIALS = np.array([0.0, -0.0, 5e-324, 1.0 - 2.0**-53, 1e300, 3.0, -12.0])


def _float_arrays():
    rng = np.random.default_rng(5)
    return {
        "random-1d": rng.standard_normal(40),
        "random-2d": rng.standard_normal((9, 3)),
        "specials-1d": _SPECIALS,
        "specials-2d": np.stack([_SPECIALS, -_SPECIALS], axis=1),
        "repeated-rows": rng.choice(_SPECIALS, size=(64, 2)),
        "strided": rng.standard_normal((5, 4))[:, ::2],
        "float32": rng.standard_normal(6).astype(np.float32),
        "one-by-one": np.array([[0.1]]),
        "no-columns": np.zeros((3, 0)),
        "three-d": rng.choice(_SPECIALS, size=(2, 3, 2)),
    }


@pytest.mark.parametrize("name", sorted(_float_arrays()))
@pytest.mark.parametrize("depth", [0, 2, 3])
def test_float_array_renders_like_its_list(name, depth):
    """Same text as the nested lists, with the array `depth` levels down
    (alternately inside a dict and a list), and beside other values."""
    arr = _float_arrays()[name]
    as_list = arr.tolist()
    for level in range(depth):
        if level % 2:
            arr, as_list = [arr, 1], [as_list, 1]
        else:
            arr, as_list = {"k": arr}, {"k": as_list}
    assert jsonio.dumps(arr) == jsonio.dumps(as_list)
    nested = {"outer": [arr, {"inner": arr}], "x": 1.5}
    as_lists = {"outer": [as_list, {"inner": as_list}], "x": 1.5}
    assert jsonio.dumps(nested) == jsonio.dumps(as_lists)


def test_float_array_keeps_signed_zero():
    text = jsonio.dumps(np.array([0.0, -0.0, 0.0]))
    assert text == "[\n  0.0,\n  -0.0,\n  0.0\n]"
    assert [math.copysign(1.0, x) for x in json.loads(text)] == [1.0, -1.0, 1.0]


def test_float_array_formats_each_distinct_value_once(monkeypatch):
    calls = []
    real = jsonio.format_float

    def counting(x):
        calls.append(float(x))
        return real(x)

    monkeypatch.setattr(jsonio, "format_float", counting)
    arr = np.array([[0.5, -0.0], [0.0, 0.5], [0.5, -0.0]] * 100)
    text = jsonio.dumps(arr)
    assert sorted(calls) == [-0.0, 0.0, 0.5]
    assert text == jsonio.dumps(arr.tolist())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("shape", [(4,), (2, 2)])
def test_float_array_rejects_non_finite(bad, shape):
    arr = np.array([0.25, 1.0, bad, 1.0]).reshape(shape)
    with pytest.raises(ValueError):
        jsonio.dumps({"x": arr})


@pytest.mark.parametrize("seed", range(16))
def test_row_runs_render_like_their_list(seed):
    """Rendering by runs of equal rows, on 1-64 rows by 1-4 columns: rows
    drawn from a few rows of _SPECIALS (signed zeros, a subnormal), and
    all-distinct normals, each also as a one-row array."""
    rng = np.random.default_rng(seed)
    cols = int(rng.integers(1, 5))
    for rows in (1, int(rng.integers(2, 65))):
        pool_rows = rng.choice(_SPECIALS, size=(int(rng.integers(1, 6)), cols))
        repeated = pool_rows[rng.integers(0, len(pool_rows), rows)]
        distinct = rng.standard_normal((rows, cols))
        for arr in (repeated, distinct):
            assert jsonio.dumps(arr) == jsonio.dumps(arr.tolist())


def _runs(*runs):
    """A 2-D array of the given (row, count) runs, in order."""
    return np.concatenate([np.tile(np.array([row], dtype=np.float64), (count, 1)) for row, count in runs])


def test_runs_of_rows_render_like_their_list():
    """Runs of equal rows at the start, middle and end; runs told apart only
    by a signed zero or a subnormal; one row; one long run; a build vector."""
    zero, a, b = [0.0, 0.0], [0.5, -0.25], [1.0 / 3.0, 2.0]
    cases = [
        _runs((zero, 500), (a, 1), (zero, 300), (b, 400), (a, 2), (zero, 700)),
        _runs((a, 3), (zero, 2), (a, 1000)),
        _runs((zero, 3), ([-0.0, 0.0], 2), (zero, 4), ([0.0, -0.0], 1), (zero, 2), ([-0.0, -0.0], 3)),
        _runs((zero, 5), ([5e-324, 0.0], 1), (zero, 5), ([0.0, -5e-324], 3), (zero, 1)),
        _runs(([0.25, -0.0], 1)),
        _runs(([1.0 / 3.0, -0.0], 20_000)),
        povm_to_dict(build_povm(3))["elements"][1]["vectors"][2]["amps"],
    ]
    # Indices, not texts: a failed compare of 20,000 rows would be diffed.
    wrong = [
        i
        for i, arr in enumerate(cases)
        if jsonio.dumps(arr) != jsonio.dumps(arr.tolist())
        or jsonio.dumps({"x": [arr]}) != jsonio.dumps({"x": [arr.tolist()]})
    ]
    assert wrong == []


def test_run_pieces_are_shared_within_one_dumps():
    """One dumps call renders, as their lists would: two equal arrays whose
    last run is longer than one row (one shared piece ends both), an array
    whose last run is one row, and runs of -0.0 rows beside 0.0 rows.  The
    last row's fix-up makes a new string and leaves every shared piece whole."""
    zero, a = [0.0, 0.0], [0.5, -0.25]
    long_tail = _runs((a, 2), (zero, 50))
    one_row_tail = _runs((zero, 50), (a, 1))
    signed = _runs((zero, 4), ([-0.0, 0.0], 3), (zero, 4), ([-0.0, -0.0], 2), ([0.0, -0.0], 1))
    arrays = [long_tail, long_tail.copy(), one_row_tail, signed]
    obj = {"x": arrays, "y": {"z": signed}}
    as_lists = {"x": [arr.tolist() for arr in arrays], "y": {"z": signed.tolist()}}
    assert jsonio.dumps(obj) == jsonio.dumps(as_lists)

    out, runs = [], {}
    jsonio._render(obj, 0, out, runs)
    assert "".join(out) == jsonio.dumps(as_lists)
    assert all(piece == text * count for (text, count), piece in runs.items())
    # Each of the five arrays ends in a fresh string, not a shared piece.
    ends = [piece for piece in out if piece.lstrip().startswith("[") and piece.endswith("]")]
    assert len(ends) == 5
    assert not any(end is piece for end in ends for piece in runs.values())
    # The three 50-row runs of zeros share one piece: it ends both equal
    # arrays before their fix-ups, and stays whole at the head of the third.
    (zeros,) = [key for key in runs if key[1] == 50]
    assert sum(piece is runs[zeros] for piece in out) == 1
