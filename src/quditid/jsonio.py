"""Deterministic text output with full double precision: the JSON
reports and the `simulate` CSV.

The standard json encoder formats floats with repr(), which is already
round-trip exact, but its output length varies and it cannot be told to
keep a fixed significant-digit form.  Every written number promises 17
significant digits, so this module renders numbers itself and leaves
everything else to the stdlib.  It is the one home of that rule:
format_float, and the CSV row template of csv_blocks with its
format_float fallback; the cli only writes the text.  render gives a
report's text as its list of pieces, which the cli writes in blocks
without joining; dumps joins them into one string.

A measurement vector's (D, 2) amplitudes come as SignRows, its signs
and one unit, not as a float array.  Only d! of its D = d**(d+1) rows
are nonzero, so its text is written from np.flatnonzero of the signs
with no scan of the rows: a piece per nonzero row, and one per run of
[0.0, 0.0] rows between them.  A zero run's piece is made once per
render call for each (level, length), so equal runs share one string:
`build --d 5` renders 6,212 pieces, where one reference per row would
be 390,812, and its zero runs share 82 strings of 2.9 MB in all.  The
25.8 MB text itself is never one string on the cli's path.
"""

import json
import math
from dataclasses import dataclass

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


# One CSV row.  "%.17g" is format_float's form except where it prints an
# integer-valued double as a bare integer ("0", "1"), which format_float
# writes as "0.0", "1.0".
_CSV_ROW = "\n%d,%d,%d,%.17g,%.17g"


def csv_blocks(batches):
    """The `simulate` CSV header, then one block of rows per batch of trials.

    A batch's rows come from one template mapped over its columns.  The
    few whose p or 1 - p is integer-valued (p == 0, p == 1, or
    0 < p <= 2**-54, where 1 - p rounds to 1) or non-finite are rendered
    again with format_float, which adds the ".0" or raises ValueError.
    A batch's row strings stay referenced until the next batch's are
    built: freeing them first measured 8% slower per run (d=5, 20k
    trials), for 0.8 MiB less peak RSS.
    """
    yield "trial,truth,outcome,p_success,p_inconclusive"
    for start, truths, outcomes, p in batches:
        q = 1.0 - p
        cols = (truths.tolist(), outcomes.tolist(), p.tolist(), q.tolist())
        rows = list(map(_CSV_ROW.__mod__, zip(range(start, start + len(p)), *cols)))
        redo = ~np.isfinite(p) | (np.trunc(p) == p) | (np.trunc(q) == q)
        for k in np.flatnonzero(redo).tolist():
            t, o, pk, qk = (col[k] for col in cols)
            rows[k] = f"\n{start + k},{t},{o},{format_float(pk)},{format_float(qk)}"
        yield "".join(rows)


@dataclass(frozen=True)
class SignRows:
    """The (D, 2) float array of rows [signs[i] * unit, 0.0], held as its 1-D
    integer signs in {-1, 0, 1} and positive float unit; renders as its tolist()."""

    signs: np.ndarray
    unit: float


def _render_signs(rows, level, out, pieces):
    """Append the text of the SignRows `rows` to the list `out`: a piece per
    nonzero row and per run of zero rows.  `pieces` maps (level, length) to
    a zero run's piece, so equal runs in one render call share one string."""
    pad, inner_pad = "  " * (level + 1), "  " * (level + 2)
    row = f"{pad}[\n{inner_pad}%s,\n{inner_pad}0.0\n{pad}],\n"
    texts = {s: row % format_float(s * rows.unit) for s in (-1, 0, 1)}
    nonzero = np.flatnonzero(rows.signs)
    # The zero runs before each nonzero row and after the last (sign 0: none).
    gaps = (np.diff(nonzero, prepend=-1, append=len(rows.signs)) - 1).tolist()
    out.append("[\n")
    for sign, gap in zip([0, *rows.signs[nonzero].tolist()], gaps):
        if sign:
            out.append(texts[sign])
        if gap:
            if (piece := pieces.get((level, gap))) is None:
                piece = pieces[level, gap] = texts[0] * gap
            out.append(piece)
    # The last row ends the array, in a new string: shared pieces stay whole.
    out[-1] = out[-1][:-2] + "\n" + "  " * level + "]" if len(rows.signs) else "[]"


def _render(obj, level, out, pieces):
    """Append the text of `obj`, two spaces per level, to the list `out`;
    `pieces` holds the SignRows pieces made so far (_render_signs)."""
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        sep = "{"
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{sep}\n{pad}{json.dumps(key)}: ")
            _render(value, level + 1, out, pieces)
            sep = ","
        out.append(f"\n{close_pad}}}" if obj else "{}")
    elif isinstance(obj, SignRows):
        _render_signs(obj, level, out, pieces)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        sep = "["
        for item in obj:
            out.append(f"{sep}\n{pad}")
            _render(item, level + 1, out, pieces)
            sep = ","
        out.append(f"\n{close_pad}]" if len(obj) else "[]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def render(obj):
    """The pretty-printed JSON text of `obj`, with deterministic numerics,
    as the list of its pieces in order.  A list, not a generator, so every
    output fault (a non-finite value, an unserializable object) raises
    before the caller writes anything."""
    out = []
    _render(obj, 0, out, {})
    return out


def dumps(obj):
    """The JSON text of `obj` as one string: render's pieces joined."""
    return "".join(render(obj))
