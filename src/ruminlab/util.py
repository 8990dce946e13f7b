"""Small shared helpers: deterministic formatting, the one report writer, and clustering.

`write_rows` writes every report (spectrum tables, verification and torsion
reports) from its columns: each report gives its row order and its fields, a
name, a kind of cell and a column each, and every float column goes through
`float_cells`, which formats each distinct value once.
"""

from __future__ import annotations

import csv
import json
import math
from types import SimpleNamespace
from typing import Iterator, List, Optional, Sequence

import numpy as np

ROW_CHUNK = 8192  # rows of a table written at a time
_esc = json.encoder.encode_basestring_ascii  # the escaping of json.dumps, ensure_ascii=True


def fmt_float(x: float) -> str:
    """Fixed 17-significant-digit formatting for byte-stable reports."""
    return format(float(x), ".17g")


def float_cells(values, missing: str, quote: str = "") -> List[str]:
    """`fmt_float` of every value, between `quote`s, and `missing` for NaN.  Each distinct
    value is formatted once: the values are sorted by their bits, which keep 0.0 and -0.0 apart."""
    values = np.ascontiguousarray(values, dtype=float)
    order = np.argsort(values.view(np.int64))
    bits = values.view(np.int64)[order]
    first = np.ones(bits.size, dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    inverse = np.empty(bits.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    text = [missing if x != x else f"{quote}{format(x, '.17g')}{quote}" for x in values[order[first]].tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def _csv_fields(values: list) -> List[str]:
    """Each str of `values` as `csv.writer` writes it as one field of a row."""
    lines = []  # each row "field,\n"
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows((x, "") for x in values)
    return [line[:-2] for line in lines]


def _cells(kind: str, values: np.ndarray, as_json: bool) -> List[str]:
    """The text cells of one field's values.  Kinds: "float" (NaN prints nan), "optional" (floats,
    NaN missing: null in JSON, empty in CSV), "raw" (ints or JSON literals, as they are), "label"
    (str or None for missing, escaped as `json.dumps` or quoted as `csv.writer` would) and "text"
    (str, as "label").  "raw" and "label" columns have few distinct values, each written once."""
    quote = '"' if as_json else ""
    if kind == "float":
        return float_cells(values, f"{quote}nan{quote}", quote)
    if kind == "optional":
        return float_cells(values, "null" if as_json else "", quote)
    values = values.tolist()
    if kind == "raw":
        write = lambda xs: list(map(str, xs))
    elif as_json:
        write = lambda xs: list(map(_esc, xs))
    else:
        write = _csv_fields
    if kind == "text":
        return write(values)
    distinct = list(set(values) - {None})
    cells = {None: "null" if as_json else "", **dict(zip(distinct, write(distinct)))}
    return list(map(cells.__getitem__, values))


def write_rows(order, fields: Sequence[tuple], doc: Optional[dict] = None, key: str = "") -> Iterator[str]:
    """The text, in parts, of the rows at the positions `order` of the columns of `fields`, each
    (name, kind of `_cells`, column): CSV under a header of the field names, or with `doc`
    `json.dumps({**doc, key: rows}, sort_keys=True)`, one object per row with sorted keys.

    Each part holds `ROW_CHUNK` rows, laid out from one template of literal
    text and the fields' cells; a generator frees `order` and the columns it
    alone holds before the parts are joined.
    """
    if doc is None:
        head, tail = ",".join(name for name, _, _ in fields), "\n"
        first, literals = "\n", ["\n"] + [","] * (len(fields) - 1)  # a row opens with the newline ending the one before
    else:
        fields = sorted(fields, key=lambda f: f[0])
        head, tail = json.dumps({**doc, key: []}, sort_keys=True).split(f"{_esc(key)}: []", 1)
        head, tail = f"{head}{_esc(key)}: [", f"{'}' if len(order) else ''}]{tail}"
        literals = [f", {_esc(name)}: " for name, _, _ in fields]
        first, literals[0] = "{" + literals[0][2:], "}, {" + literals[0][2:]  # each row closes the one before
    yield head
    width = 2 * len(fields)
    for lo in range(0, len(order), ROW_CHUNK):
        at = order[lo : lo + ROW_CHUNK]
        pieces = [""] * (width * len(at))
        for j, (literal, (_, kind, column)) in enumerate(zip(literals, fields)):
            pieces[2 * j :: width] = [literal] * len(at)
            pieces[2 * j + 1 :: width] = _cells(kind, column[at], doc is not None)
        if not lo:
            pieces[0] = first
        yield "".join(pieces)
    yield tail


def round_sig(x: float, digits: int = 12) -> float:
    if x == 0:
        return 0.0
    mag = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - mag)


def cluster_values(values: Sequence[float], tol: float) -> List[tuple]:
    """Group sorted scalars into (representative, count) clusters with gap > tol."""
    out: List[tuple] = []
    for v in sorted(values):
        if out and abs(v - out[-1][0]) <= tol:
            rep, cnt, total = out[-1]
            out[-1] = (rep, cnt + 1, total + v)
        else:
            out.append((v, 1, v))
    return [(total / cnt, cnt) for rep, cnt, total in out]
