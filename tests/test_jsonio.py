import json
import math

import numpy as np
import pytest

from quditid import jsonio
from quditid.detection import build_povm, povm_to_dict
from quditid.tensor_core import state_to_dict


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
        "rates": [0.5, np.float64(0.25)],
        "counts": np.array([1, 2, 3]),
        "nested": {"x": 1e-12},
    }
    parsed = json.loads(jsonio.dumps(obj))
    assert parsed["d"] == 3
    assert parsed["flag"] is True
    assert parsed["rates"] == [0.5, 0.25]
    assert parsed["counts"] == [1, 2, 3]
    assert parsed["nested"]["x"] == 1e-12


def test_dumps_rejects_unserializable():
    with pytest.raises(TypeError):
        jsonio.dumps({"x": object()})
    with pytest.raises(TypeError):
        jsonio.dumps(None)
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



@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("shape", [(4,), (2, 2)])
def test_float_array_rejects_non_finite(bad, shape):
    arr = np.array([0.25, 1.0, bad, 1.0]).reshape(shape)
    with pytest.raises(ValueError):
        jsonio.dumps({"x": arr})


@pytest.mark.parametrize("seed", range(16))
def test_row_runs_render_like_their_list(seed):
    """A 2-D float array renders through the list path, on 1-64 rows by
    1-4 columns: runs of rows drawn from a few rows of _SPECIALS (signed
    zeros, a subnormal), and all-distinct normals, each also as a one-row
    array."""
    rng = np.random.default_rng(seed)
    cols = int(rng.integers(1, 5))
    for rows in (1, int(rng.integers(2, 65))):
        pool_rows = rng.choice(_SPECIALS, size=(int(rng.integers(1, 6)), cols))
        repeated = pool_rows[rng.integers(0, len(pool_rows), rows)]
        distinct = rng.standard_normal((rows, cols))
        for arr in (repeated, distinct):
            assert jsonio.dumps(arr) == jsonio.dumps(arr.tolist())


def _dense(signs, unit):
    """The (D, 2) float array a SignRows stands for: rows [s * unit, 0.0]."""
    signs = np.asarray(signs, dtype=np.int8)
    return np.stack([signs * unit, np.zeros(len(signs))], axis=1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_build_sign_rows_render_like_their_dense_list(d):
    """Every vector of build_povm(d), rendered from its signs, is the text
    of its dense state_to_dict amplitudes as nested lists."""
    povm = build_povm(d)
    wrong = [
        (elem.label, k)
        for entry, elem in zip(povm_to_dict(povm)["elements"], povm.elements, strict=True)
        for k, (got, vector) in enumerate(zip(entry["vectors"], elem.vectors, strict=True))
        if jsonio.dumps(got) != jsonio.dumps({"d": d, "amps": state_to_dict(vector)["amps"].tolist()})
    ]
    assert wrong == []


def test_sign_rows_render_like_their_list():
    """Nonzero first and last rows, adjacent nonzeros of equal and of
    opposite sign, one row, all-zero rows and no rows, each also nested
    in a dict inside a list."""
    unit = 1.0 / math.sqrt(6.0)
    cases = [
        [1, 0, 0, -1, 0, 0, 0, 1],
        [0, 0, -1, -1, 1, 0, 1, 0, 0],
        [-1, 1, 1, -1],
        [0, 0, 0, 0, 0, -1],
        [-1],
        [1],
        [0],
        [0] * 7,
        [],
    ]
    wrong = []
    for signs in cases:
        rows = jsonio.SignRows(np.array(signs, dtype=np.int8), unit)
        as_list = _dense(signs, unit).tolist()
        nested, nested_list = {"x": [rows, {"y": rows}]}, {"x": [as_list, {"y": as_list}]}
        if jsonio.dumps(rows) != jsonio.dumps(as_list) or jsonio.dumps(nested) != jsonio.dumps(nested_list):
            wrong.append(signs)
    assert wrong == []


def test_sign_row_pieces_are_shared_within_one_render():
    """One render call, as the arrays' lists would: two equal arrays that
    end in a zero run, one that ends in a nonzero row, one all zero, and
    one at another level.  Equal zero runs at one level are one string,
    and each array ends in a fresh string that no shared piece is."""
    unit = 0.5
    tail = np.array([1] + [0] * 50, dtype=np.int8)
    arrays = [tail, tail.copy(), np.array([0] * 50 + [-1], dtype=np.int8), np.zeros(51, np.int8)]
    obj = {"x": [jsonio.SignRows(a, unit) for a in arrays], "y": {"z": [jsonio.SignRows(tail, unit)]}}
    as_lists = {"x": [_dense(a, unit).tolist() for a in arrays], "y": {"z": [_dense(tail, unit).tolist()]}}

    out, pieces = [], {}
    jsonio._render(obj, 0, out, pieces)
    assert "".join(out) == jsonio.dumps(as_lists)
    for (level, gap), piece in pieces.items():
        pad, inner_pad = "  " * (level + 1), "  " * (level + 2)
        assert piece == f"{pad}[\n{inner_pad}0.0,\n{inner_pad}0.0\n{pad}],\n" * gap
    # Each of the five arrays ends in a fresh string, not a shared piece.
    ends = [piece for piece in out if piece.endswith("]") and "0.0" in piece]
    assert len(ends) == 5
    assert not any(end is piece for end in ends for piece in pieces.values())
    # Under "x" (level 2) the third array's 50-row zero run is the piece
    # that ended the first two before their fix-ups, so it appears once
    # whole; the all-zero array's 51-row run is a piece of its own.
    assert sorted(pieces) == [(2, 50), (2, 51), (3, 50)]
    assert sum(piece is pieces[2, 50] for piece in out) == 1


def test_sign_rows_format_each_value_once(monkeypatch):
    """A SignRows formats its three amplitudes, -unit, 0.0 and unit, once
    each, however many rows it has."""
    calls = []
    real = jsonio.format_float

    def counting(x):
        calls.append(float(x))
        return real(x)

    monkeypatch.setattr(jsonio, "format_float", counting)
    signs = np.array([0, 1, -1, 0, 1] * 100, dtype=np.int8)
    text = jsonio.dumps(jsonio.SignRows(signs, 0.5))
    assert sorted(calls) == [-0.5, 0.0, 0.5]
    assert text == jsonio.dumps(_dense(signs, 0.5).tolist())
