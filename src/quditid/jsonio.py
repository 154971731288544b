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

A non-empty 2-D float ndarray renders exactly as its tolist() would,
but it is walked by runs of consecutive rows that are equal by bit
pattern (so -0.0 stays apart from 0.0).  Each distinct value is
formatted once, each distinct run-head row's text is built once, and a
run adds one piece, its row's text repeated, to the piece list.  A
piece is made once per render call for each (row text, count), so equal
runs share one string.  A measurement vector's (D, 2) array of d**(d+1)
amplitudes has only d! nonzero rows, so it is a few hundred runs, mostly
of [0.0, 0.0]: `build --d 5` renders 6,212 pieces, where one reference
per row would be 390,812, and its runs share 84 strings of 2.9 MB in
all.  The 25.8 MB text itself is never one string on the cli's path.
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


def _render_floats(arr, level, out, runs):
    """Append the text of a non-empty 2-D float array, as _render(arr.tolist()),
    to the list `out`, one piece per run of equal rows: the row's text, with
    the "," and newline that follow it, repeated once per row.  `runs` maps
    (row text, count) to that piece, so an equal run anywhere in the same
    render call appends the same string."""
    pad = "  " * (level + 1)
    inner_pad = "  " * (level + 2)
    sep = ",\n" + inner_pad
    values = np.ascontiguousarray(arr, dtype=np.float64)
    # Compare by bit pattern, so -0.0 stays apart from 0.0.
    bits = values.view(np.uint64)
    # A run of equal rows starts at row 0 and wherever any column changes.
    starts = np.zeros(len(bits), dtype=bool)
    starts[0] = True
    for column in bits.T:
        starts[1:] |= column[1:] != column[:-1]
    heads = np.flatnonzero(starts)
    counts = np.diff(heads, append=len(bits)).tolist()
    texts = {}  # value bits -> its text
    row_texts = {}  # row bits -> its text
    out.append("[\n")
    for key, row, count in zip(map(tuple, bits[heads].tolist()), values[heads].tolist(), counts):
        if (text := row_texts.get(key)) is None:
            for b, x in zip(key, row):
                if b not in texts:
                    texts[b] = format_float(x)
            cells = sep.join(texts[b] for b in key)
            text = row_texts[key] = f"{pad}[\n{inner_pad}{cells}\n{pad}],\n"
        if (piece := runs.get((text, count))) is None:
            piece = runs[text, count] = text * count
        out.append(piece)
    # The last row ends the array instead of a ",\n": a new string, so the
    # shared piece in `runs` keeps its text.
    out[-1] = out[-1][:-2] + "\n" + "  " * level + "]"


def _render(obj, level, out, runs):
    """Append the text of `obj`, two spaces per level, to the list `out`;
    `runs` holds the float-array run pieces made so far (_render_floats)."""
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
            _render(value, level + 1, out, runs)
            sep = ","
        out.append(f"\n{close_pad}}}" if obj else "{}")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 2 and obj.size:
        _render_floats(obj, level, out, runs)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        sep = "["
        for item in obj:
            out.append(f"{sep}\n{pad}")
            _render(item, level + 1, out, runs)
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
