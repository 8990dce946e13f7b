"""Correctness checks of `rumin` outputs, including the spectrum-table oracle.

Spectrum tables are compared numerically, never byte for byte: changing the
BLAS thread count alone moves hundreds of rows in their last digits, and
Reeb eigenvalues that are zero in exact arithmetic print as anything near
1e-29.  Rows must agree in degree, block, multiplicity and bidegree, and every
value (eigenvalue, nu, lambda10, lambda01, cutoff) within
REL_TOL * max(1, |reference|).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import List, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
VALUE_KEYS = ("eigenvalue", "nu", "lambda10", "lambda01")
EXACT_KEYS = ("degree", "block", "multiplicity", "bidegree")


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / name) as fh:
        return json.load(fh)


def _close(a: Optional[str], b: Optional[str]) -> bool:
    if a is None or b is None:
        return a is b
    x, y = float(a), float(b)
    return abs(x - y) <= REL_TOL * max(1.0, abs(y))


def _rows_match(row: dict, ref: dict) -> bool:
    return all(_close(row[k], ref[k]) for k in VALUE_KEYS)


def compare_spectrum(doc: dict, ref: dict) -> List[str]:
    """Differences between a spectrum table and its reference; empty when they agree."""
    problems = []
    for key in ("kind", "operator", "max_weight", "model"):
        if doc.get(key) != ref.get(key):
            problems.append(f"{key}: {doc.get(key)!r} != {ref.get(key)!r}")
    if not _close(doc.get("cutoff"), ref.get("cutoff")):
        problems.append(f"cutoff: {doc.get('cutoff')} != {ref.get('cutoff')}")
    # rows are matched within groups that agree exactly, since rows whose
    # eigenvalues tie up to rounding may print in either order
    groups = defaultdict(list)
    for row in doc.get("entries", []):
        groups[tuple(row[k] for k in EXACT_KEYS)].append(row)
    for ref_row in ref["entries"]:
        group = groups[tuple(ref_row[k] for k in EXACT_KEYS)]
        hit = next((i for i, row in enumerate(group) if _rows_match(row, ref_row)), None)
        if hit is None:
            problems.append(f"no row matches reference {ref_row}")
        else:
            group.pop(hit)
    extra = sum(len(g) for g in groups.values())
    if extra:
        problems.append(f"{extra} rows not in the reference")
    return problems


def check_output(command: str, code: int, text: str, reference: Optional[dict]) -> List[str]:
    """Reasons an op failed: non-zero exit, `"passed": false`, or a spectrum mismatch."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if command == "spectrum":
        return [] if reference is None else compare_spectrum(doc, reference)
    if doc.get("passed") is not True:
        return ['"passed" is not true']
    return []
