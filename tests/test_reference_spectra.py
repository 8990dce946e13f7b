"""Spectrum tables agree with the committed benchmark reference tables.

The comparison is the benchmark's own `oracle.compare_spectrum`, compiled from
the source text of benchmarks/oracle.py so that nothing is written under
benchmarks/.  Rows are matched within groups that agree in degree, block,
multiplicity and bidegree, and values within 1e-9 * max(1, |reference|).
"""

import contextlib
import io
import json
import types
from pathlib import Path

import pytest

from ruminlab.cli import main

ORACLE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "oracle.py"


@pytest.fixture(scope="module")
def oracle():
    mod = types.ModuleType("benchmark_oracle")
    mod.__file__ = str(ORACLE_PATH)
    exec(compile(ORACLE_PATH.read_text(), str(ORACLE_PATH), "exec"), mod.__dict__)
    return mod


@pytest.mark.parametrize("max_weight", (2, 12))
@pytest.mark.parametrize("op", ("delta-rn", "delta-dr"))
def test_spectrum_matches_reference(oracle, op, max_weight):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["spectrum", "--op", op, "--model", "s3", "--max-weight", str(max_weight), "--format", "json"])
    assert code == 0
    reference = oracle.load_reference(f"s3-m{max_weight}-{op}.json")
    assert oracle.compare_spectrum(json.loads(out.getvalue()), reference) == []
