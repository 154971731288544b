"""Deterministic JSON output with full double precision.

The standard json encoder formats floats with repr(), which is already
round-trip exact, but its output length varies and it cannot be told to
keep a fixed significant-digit form.  Reports here promise 17
significant digits for every numeric value, so this module renders
numbers itself and leaves everything else to the stdlib.

A non-empty 2-D float ndarray renders exactly as its tolist() would,
but each distinct value (by bit pattern, so -0.0 stays apart from 0.0)
is formatted once and each distinct row is built once.  A measurement
vector's (D, 2) array of d**(d+1) amplitudes holds only a handful of
distinct doubles, so this keeps `build` output cheap.
"""

import json
import math

import numpy as np


def format_float(x):
    """17-significant-digit decimal form, always visibly a float.

    The one rule for a written double: the JSON reports and the
    `simulate` CSV both use it.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in output")
    s = format(x, ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _render_floats(arr, indent, level):
    """Text of a non-empty 2-D float array, as _render(arr.tolist())."""
    pad = " " * (indent * (level + 1))
    inner_pad = " " * (indent * (level + 2))
    bits = np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)
    # One void item per row, so np.unique compares rows bit for bit.
    row_items = bits.view(np.dtype((np.void, 8 * bits.shape[1]))).reshape(-1)
    rows, row_codes = np.unique(row_items, return_inverse=True)
    uniq, codes = np.unique(rows.view(np.uint64), return_inverse=True)
    texts = [format_float(x) for x in uniq.view(np.float64)]
    sep = ",\n" + inner_pad
    row_texts = [
        f"{pad}[\n{inner_pad}{sep.join(texts[c] for c in row)}\n{pad}]"
        for row in codes.reshape(len(rows), -1).tolist()
    ]
    lines = np.array(row_texts, dtype=object)[row_codes.reshape(-1)]
    return "[\n" + ",\n".join(lines.tolist()) + "\n" + " " * (indent * level) + "]"


def _render(obj, indent, level):
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{pad}{json.dumps(key)}: {_render(value, indent, level + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + close_pad + "}"
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 2 and obj.size:
        return _render_floats(obj, indent, level)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        parts = [f"{pad}{_render(item, indent, level + 1)}" for item in items]
        return "[\n" + ",\n".join(parts) + "\n" + close_pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj, indent=2):
    """Serialize to pretty-printed JSON with deterministic numerics."""
    return _render(obj, indent, 0)
