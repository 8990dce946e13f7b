"""Verification reports: the columnar writers against the per-check writers they replace.

`VerificationReport` holds its checks as parallel columns and writes each
report in one pass over them.  The references below are the per-check
writers: one row dict per check, ordered by name with a stable sort, written
by `json.dumps(..., sort_keys=True)` and by the csv module.
"""

import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

from ruminlab import cli, util
from ruminlab.model import su2_model
from ruminlab.spectral import Assembly, VerificationReport
from ruminlab.torsion import TorsionReport, reeb_decomposition

ESCAPES = 'quote " back\\slash \x01 tab\t new\nline, comma é ü 数'


def _build(name, checks):
    """A report holding `checks`, (name, residual, tolerance, detail) in order, added one family
    per run of equal tolerances."""
    report = VerificationReport(name, {"model": "s3", "tol": 1e-10, "note": ESCAPES})
    for tolerance, family in itertools.groupby(checks, key=lambda c: c[2]):
        family = list(family)
        if len(family) == 1:
            report.add(*family[0])
        else:
            report.add_family([c[0] for c in family], [c[1] for c in family], tolerance, [c[3] for c in family])
    return report


def _reference_rows(checks):
    return [
        {
            "name": n,
            "passed": float(r) <= t,
            "residual": util.fmt_float(r),
            "tolerance": util.fmt_float(t),
            "detail": d,
        }
        for n, r, t, d in sorted(checks, key=lambda c: c[0])
    ]


def _reference_json(report, checks):
    doc = {
        "schema": 1,
        "kind": "verification",
        "name": report.name,
        "parameters": report.parameters,
        "passed": all(float(r) <= t for _, r, t, _ in checks),
        "checks": _reference_rows(checks),
    }
    return json.dumps(doc, sort_keys=True)


def _reference_csv(checks):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "status", "residual", "tolerance", "detail"])
    for row in _reference_rows(checks):
        status = "pass" if row["passed"] else "fail"
        writer.writerow([row["name"], status, row["residual"], row["tolerance"], row["detail"]])
    return buf.getvalue()


HAND_CHECKS = [
    ("a_negative_zero[m0]", -0.0, 1e-10, "sorts before every 0.0"),
    ("law[m2]", 0.0, 1e-10, ""),
    (f"esc[{ESCAPES}]", 1e-12, 1e-10, ESCAPES),
    ("nan[m0]", math.nan, 1e-10, "nan fails"),
    ("negative_zero[m0]", -0.0, 1e-10, ""),
    ("zero[m0]", 0.0, 1e-10, ""),
    ("inf[m0]", math.inf, 1e-10, ""),
    ("integer[m0]", 3, 0.0, "int residual"),
    ("dup[m1]", 0.25, 0.5, "first"),
    ("dup[m1]", 0.75, 0.5, "second"),
    ("law[m10]", 2e-10, 1e-10, ""),
    ("dup[m1]", 0.0, 0.5, "third"),
    ("law[m1]", -1e-300, 1e-10, 'a "quoted" detail'),
    ("exact[m0]", 1e-10, 1e-10, ""),
]


def test_columnar_writers_equal_the_per_check_writers():
    """Escaping, NaN (fails, prints nan), -0.0 (prints -0), inf, an int residual, equal names in
    insertion order, and m10 before m2."""
    report = _build("hand", HAND_CHECKS)
    assert report.to_json() == _reference_json(report, HAND_CHECKS)
    assert report.to_csv() == _reference_csv(HAND_CHECKS)
    written = json.loads(report.to_json())["checks"]
    rows = {row["name"]: row for row in written}
    assert rows["nan[m0]"]["residual"] == "nan" and not rows["nan[m0]"]["passed"]
    assert rows["negative_zero[m0]"]["residual"] == "-0" and rows["zero[m0]"]["residual"] == "0"
    assert rows["a_negative_zero[m0]"]["residual"] == "-0" and rows["law[m2]"]["residual"] == "0"
    assert rows["integer[m0]"]["residual"] == "3"
    names = [row["name"] for row in written]
    assert [row["detail"] for row in written if row["name"] == "dup[m1]"] == ["first", "second", "third"]
    assert names.index("law[m10]") < names.index("law[m2]")
    assert written == _reference_rows(HAND_CHECKS)


def test_empty_and_extended_reports():
    empty = VerificationReport("empty")
    assert empty.passed and empty.failed() == [] and empty.names == []
    assert empty.to_json() == _reference_json(empty, []) and empty.to_csv() == _reference_csv([])
    first, second = HAND_CHECKS[:6], HAND_CHECKS[6:]
    joined = _build("joined", [])
    joined.extend(_build("a", first))
    joined.extend(_build("b", second))
    assert joined.to_json() == _reference_json(joined, HAND_CHECKS)
    assert joined.to_csv() == _reference_csv(HAND_CHECKS)


def test_passed_and_failures_follow_the_per_check_definitions():
    """The columns hold every check in the order added; `failed()` lists the positions of the
    failed ones, ordered by name with equal names in insertion order."""
    report = _build("hand", HAND_CHECKS)
    columns = list(zip(report.names, map(repr, report.residuals), report.tolerances, report.details))  # nan != nan
    assert columns == [(n, repr(float(r)), t, d) for n, r, t, d in HAND_CHECKS]
    by_name = sorted(range(len(HAND_CHECKS)), key=lambda i: HAND_CHECKS[i][0])
    assert report.failed() == [i for i in by_name if not float(HAND_CHECKS[i][1]) <= HAND_CHECKS[i][2]]
    assert not report.passed
    assert {report.names[i] for i in report.failed()} == {"nan[m0]", "inf[m0]", "integer[m0]", "dup[m1]", "law[m10]"}
    passing = _build("passing", [c for c in HAND_CHECKS if float(c[1]) <= c[2]])
    assert passing.passed and passing.failed() == []
    nan_only = _build("nan", [("x", math.nan, math.inf, "")])
    assert not nan_only.passed and nan_only.failed() == [0]


def test_a_family_needs_one_residual_and_detail_per_name():
    report = VerificationReport("bad")
    with pytest.raises(ValueError):
        report.add_family(["a", "b"], [0.0], 1e-10)
    with pytest.raises(ValueError):
        report.add_family(["a", "b"], [0.0, 0.0], 1e-10, ["only one"])
    assert report.names == [] and report.passed


def test_torsion_report_json_writes_its_checks_as_json_dumps():
    checks = _build("reeb_decomposition", HAND_CHECKS)
    report = TorsionReport({"model": "s3", "p": 1}, 1, [2.0], [-2, 1], 4.0, checks=checks, caveat=ESCAPES)
    text = report.to_json()
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True) == text
    assert doc["checks"] == _reference_rows(HAND_CHECKS) and doc["caveat"] == ESCAPES
    assert doc["passed"] is False


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_hand_reports_equal_the_per_check_writers_across_chunk_seams(monkeypatch, chunk):
    """The hand reports written `chunk` checks at a time (14 checks: uneven chunks, and two full
    chunks of 7), so every join between chunks is compared with the reference."""
    monkeypatch.setattr(util, "ROW_CHUNK", chunk)
    test_columnar_writers_equal_the_per_check_writers()
    test_empty_and_extended_reports()
    test_torsion_report_json_writes_its_checks_as_json_dumps()


def test_s3_reports_equal_the_per_check_writers_across_chunk_seams(monkeypatch):
    """No report of the test grid exceeds one chunk of `util.ROW_CHUNK` checks, so the checks of
    `verify --suite all` and of the torsion report on s3 at M = 12 are written 3 at a time here."""
    monkeypatch.setattr(util, "ROW_CHUNK", 3)
    asm = Assembly(su2_model(), 12)
    report = cli.run_suite(asm, "all", cli.RunConfig(max_weight=12))
    checks = list(zip(report.names, report.residuals, report.tolerances, report.details))
    assert len(checks) > 1000
    assert report.to_json() == _reference_json(report, checks)
    assert report.to_csv() == _reference_csv(checks)
    torsion = reeb_decomposition(asm)
    text = torsion.to_json()
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True) == text
    c = torsion.checks
    assert doc["checks"] == _reference_rows(list(zip(c.names, c.residuals, c.tolerances, c.details)))
    assert len(doc["checks"]) > 3


def test_spectrum_columns_format_each_value_as_format_17g():
    """`util.float_cells`, the one column formatter of every report, formats each distinct value
    once: the text is that of `format(x, ".17g")` per value, NaN is `missing`, and 0.0 and -0.0
    stay apart.  With the conventions of the verification columns, NaN prints nan, inf prints
    inf, an integer residual prints 3 and -0.0 prints -0."""
    values = [0.0, -0.0, math.nan, 1.5, 0.1, 0.1, -0.0, 1e-300, 5e-324, -2.0, math.nan, 0.0, 134.0, 1.5, -math.inf]
    column = np.array(values)
    for missing, quote in (("", ""), ("null", '"')):
        want = [missing if x != x else f"{quote}{format(x, '.17g')}{quote}" for x in values]
        assert util.float_cells(column, missing, quote) == want
        assert util.float_cells(column[::-1], missing, quote) == want[::-1]  # a strided view
    assert util.float_cells(column, "")[:3] == ["0", "-0", ""]
    assert util.float_cells(np.array([]), "") == []
    checks = [math.nan, math.inf, 3, -0.0, 0.0, -math.nan, 1e-10]  # a list, as the report columns are
    assert util.float_cells(checks, "nan") == ["nan", "inf", "3", "-0", "0", "nan", "1e-10"]
    assert util.float_cells(checks, '"nan"', '"') == ['"nan"', '"inf"', '"3"', '"-0"', '"0"', '"nan"', '"1e-10"']
    assert util.float_cells(checks, "nan") == [util.fmt_float(x) for x in checks]
