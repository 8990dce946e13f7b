"""Small shared helpers: deterministic formatting and clustering."""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

ROW_CHUNK = 8192  # rows of a table written at a time


def fmt_float(x: float) -> str:
    """Fixed 17-significant-digit formatting for byte-stable reports."""
    return format(float(x), ".17g")


def write_chunks(columns: Dict, order, write: Callable[[Dict], str]) -> List[str]:
    """The text of a table held as array columns, rows in `order`: `write` of the columns of
    ROW_CHUNK rows at a time, so the strings of only one chunk of rows are alive at once."""
    return [
        write({name: values[order[lo : lo + ROW_CHUNK]] for name, values in columns.items()})
        for lo in range(0, len(order), ROW_CHUNK)
    ]


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

