"""The per-degree row path: one clustering pass over every weight, and the columnar tables.

`rows.solve_rows` clusters Delta on every row at once; the clusters and
their means must be those of `util.cluster_values` on each row alone, bit for
bit.  `SpectrumTable` and `TorsionReport` hold their rows as numpy columns and
write them directly; the references below are the per-entry writers they
replace (`json.dumps(..., sort_keys=True)` and the csv module).
"""

import csv
import io
import json

import numpy as np
import pytest

import dense_reference
from ruminlab import cli, util
from ruminlab.model import su2_model
from ruminlab.rows import cluster_starts, round_sig_values, run_means, solve_rows, spectrum_columns
from ruminlab.sectors import RowStack
from ruminlab.spectral import Assembly, SpectrumTable
from ruminlab.torsion import PIECES, reeb_decomposition

TOL = 1e-9


def _row_values(rng, row: int) -> np.ndarray:
    """Values of one row: clusters of 9 to 60 values near 169, a chain whose steps are each within
    the row's tolerance but whose span exceeds it, and scattered values."""
    scale = TOL * 400.0  # the row tolerance, tol * max(1, max |value|)
    parts = [169.0 + rng.uniform(-0.2, 0.2, rng.integers(9, 61)) * scale for _ in range(3)]
    parts.append(250.0 + 0.45 * scale * np.arange(rng.integers(3, 12)))  # the chain
    parts.append(rng.uniform(0.0, 399.0, 20))
    parts.append([400.0, -3.0 + row])
    return rng.permutation(np.concatenate(parts))


def test_cluster_pass_equals_cluster_values_on_every_row():
    """Clusters compare each value with their first value, and means sum in ascending order."""
    rng = np.random.default_rng(7)
    rows = [_row_values(rng, row) for row in range(6)]
    owner = np.repeat(np.arange(len(rows)), [r.size for r in rows])
    values = np.concatenate(rows)
    order = np.lexsort((values, owner))
    row_of, ascending = owner[order], values[order]
    top = np.array([np.abs(r).max() for r in rows])
    tol = (TOL * np.maximum(1.0, top))[row_of]
    start = cluster_starts(row_of, ascending, tol)
    means, counts = run_means(ascending, start), np.diff(np.append(np.flatnonzero(start), values.size))
    got = list(zip(row_of[start].tolist(), means.tolist(), counts.tolist()))
    want = [
        (row, mean, count)
        for row, r in enumerate(rows)
        for mean, count in util.cluster_values(list(r), TOL * max(1.0, float(np.abs(r).max())))
    ]
    assert got == want  # means bit for bit
    assert max(count for _, _, count in want) > 8
    pairwise = np.add.reduceat(ascending, np.flatnonzero(start)) / counts
    assert np.any(pairwise != means)  # the data tell a sum in order from a pairwise one
    # the chain is cut where a value leaves the tolerance of its cluster's first value
    chain = [count for _, mean, count in want if 249.0 < mean < 251.0]
    assert len(chain) > 1


def test_solve_rows_clusters_every_row_as_cluster_values():
    """One-by-one sectors of a padded stack carrying the values above: the components of each row
    are its values, each with the mean of its `cluster_values` cluster, in ascending order."""
    rng = np.random.default_rng(11)
    rows = [_row_values(rng, row) for row in range(4)]
    owner = np.repeat(np.arange(len(rows)), [r.size for r in rows])
    tau = np.concatenate([np.arange(r.size, dtype=float) for r in rows])
    index = np.concatenate([np.arange(r.size) for r in rows])[None, :]
    # a second, unused position in every sector: the padding enters no solve
    stack = np.zeros((2, 2, owner.size), dtype=complex)
    stack[0, 0] = np.concatenate(rows)
    valid = np.zeros((2, owner.size), dtype=bool)
    valid[0] = True
    joint = solve_rows(RowStack(stack, owner, tau, valid, np.vstack([index, index]), np.array([r.size for r in rows])), TOL)
    assert np.array_equal(joint.sector, joint.order) and np.array_equal(owner[joint.sector], joint.owner)
    for row, r in enumerate(rows):
        lo, hi = joint.row_components(row)
        clusters = util.cluster_values(list(r), TOL * max(1.0, float(np.abs(r).max())))
        expected = [mean for mean, count in clusters for _ in range(count)]
        assert joint.delta[lo:hi].tolist() == expected
        assert joint.count[lo:hi].tolist() == [1] * r.size


# -- the columnar writers against the per-entry writers ---------------------------------------


def _table_order(col: dict) -> list:
    """The positions of a table's rows in the written order: by degree, block label as text,
    eigenvalue and multiplicity, ties in insertion order."""
    key = lambda i: (col["degree"][i], col["block"][i], col["eigenvalue"][i], col["multiplicity"][i])
    return sorted(range(len(col["degree"])), key=key)


def _reference_json(table: SpectrumTable) -> str:
    fmt = lambda x: None if x is None or x != x else util.fmt_float(x)  # NaN stands for None
    col = {name: values.tolist() for name, values in table.columns.items()}
    doc = {
        "schema": 1,
        "kind": "spectrum",
        "operator": table.operator,
        "model": table.model,
        "max_weight": table.max_weight,
        "cutoff": fmt(table.cutoff),
        "entries": [
            {
                "degree": col["degree"][i],
                "block": col["block"][i],
                "eigenvalue": util.fmt_float(col["eigenvalue"][i]),
                "multiplicity": col["multiplicity"][i],
                "nu": fmt(col["nu"][i]),
                "lambda10": fmt(col["lambda10"][i]),
                "lambda01": fmt(col["lambda01"][i]),
                "bidegree": col["bidegree"][i],
            }
            for i in _table_order(col)
        ],
    }
    return json.dumps(doc, sort_keys=True)


def _reference_csv(table: SpectrumTable) -> str:
    fmt = lambda x: "" if x != x else util.fmt_float(x)
    col = {name: values.tolist() for name, values in table.columns.items()}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["degree", "block", "eigenvalue", "multiplicity", "nu", "lambda10", "lambda01"])
    for i in _table_order(col):
        writer.writerow(
            [col["degree"][i], col["block"][i], util.fmt_float(col["eigenvalue"][i]), col["multiplicity"][i]]
            + [fmt(col[name][i]) for name in ("nu", "lambda10", "lambda01")]
        )
    return buf.getvalue()


NAN = float("nan")  # a missing nu, lambda10 or lambda01
# rows 2 to 4 tie on (degree, block, eigenvalue, multiplicity) and keep their order
HAND_COLUMNS = {
    "degree": np.array([1, 1, 0, 0, 0, 0, 0, 0]),
    "block": np.array(["m2", "m10", "m2", "m2", "m2", "m1", "m10", "m0"]),
    "eigenvalue": np.array([4.0, 121.00000000000003, 16.0, 16.0, 16.0, 1e-17, 0.1 + 0.2, 0.0]),
    "multiplicity": np.array([3, 11, 3, 3, 3, 2, 11, 1]),
    "nu": np.array([2.0, -11.0, 0.0, -4.0, 4.0, NAN, 1.5e300, NAN]),
    "lambda10": np.array([NAN, NAN, 2.0, 0.0, 4.0, NAN, 2.5e-310, NAN]),
    "lambda01": np.array([NAN, NAN, 2.0, 4.0, 0.0, NAN, -0.0, NAN]),
    "bidegree": np.array(["theta^(0,0)", None, "(0,0)", "(0,0)", "(0,0)", None, "(1,0)", None], dtype=object),
}


@pytest.mark.parametrize("cutoff", [None, 169.0])
def test_columnar_writers_equal_the_per_entry_writers(cutoff):
    """Missing values, bidegree None, block labels in text order (m10 before m2) and ties in
    insertion order."""
    table = SpectrumTable("delta-rn", {"model": "s3", "p": 1}, 12, cutoff, dict(HAND_COLUMNS))
    assert table.to_json() == _reference_json(table)
    assert table.to_csv() == _reference_csv(table)
    blocks = [row.split(",")[1] for row in table.to_csv().splitlines()[1:]]
    assert blocks == ["m0", "m1", "m10", "m2", "m2", "m2", "m10", "m2"]
    nus = [row.split(",")[4] for row in table.to_csv().splitlines()[4:7]]
    assert nus == ["0", "-4", "4"]
    empty = SpectrumTable("delta-b", {}, 0)
    assert empty.to_json() == _reference_json(empty) and empty.to_csv() == _reference_csv(empty)


@pytest.mark.parametrize("op", ["delta-rn", "delta-dr", "delta-b"])
def test_columnar_spectrum_tables_equal_the_per_entry_writers(op):
    """The command line's tables, over every degree of s3 at M = 12, against the per-entry writers
    of their own rows."""
    model = su2_model()
    degrees = list(range(3 if op == "delta-b" else 4))
    table = SpectrumTable(op, model.describe(), 12, 169.0, spectrum_columns(Assembly(model, 12), op, degrees, 0.1))
    bidegrees = table.columns["bidegree"].tolist()
    assert len(bidegrees) > 100 and {x is None for x in bidegrees} == {False, True}
    assert table.to_json() == _reference_json(table)
    assert table.to_csv() == _reference_csv(table)


def test_torsion_pairs_csv_equals_the_per_slice_writer():
    report = reeb_decomposition(Assembly(su2_model(), 12))
    col = {name: values.tolist() for name, values in report.columns.items()}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["block", "degree", "lambda", "piece", "nu", "multiplicity"])
    key = lambda i: (col["block"][i], col["degree"][i], col["delta"][i], col["nu"][i])
    for i in sorted(range(len(col["block"])), key=key):
        fmt = util.fmt_float
        writer.writerow([col["block"][i], col["degree"][i], fmt(col["delta"][i]), PIECES[col["piece"][i]],
                         fmt(col["nu"][i]), col["mult"][i]])
    assert report.pairs_csv() == buf.getvalue()
    assert len(col["block"]) > 100


@pytest.mark.parametrize("chunk", [1, 3, 4, 7])
def test_hand_tables_equal_the_per_entry_writers_across_chunk_seams(monkeypatch, chunk):
    """The hand table's 8 rows written `chunk` rows at a time: one row per chunk, uneven chunks
    and two full chunks of 4, so every join between chunks is compared with the reference."""
    monkeypatch.setattr(util, "ROW_CHUNK", chunk)
    for cutoff in (None, 169.0):
        test_columnar_writers_equal_the_per_entry_writers(cutoff)


def test_s3_tables_and_pairs_equal_the_per_entry_writers_across_chunk_seams(monkeypatch):
    """No table of the test grid exceeds one chunk of `util.ROW_CHUNK` rows, so the s3 tables
    and torsion pairs at M = 12 are written 3 rows at a time here."""
    monkeypatch.setattr(util, "ROW_CHUNK", 3)
    for op in ("delta-rn", "delta-dr", "delta-b"):
        test_columnar_spectrum_tables_equal_the_per_entry_writers(op)
    test_torsion_pairs_csv_equals_the_per_slice_writer()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_sector_eigenvalue_moved_changes_the_table(capsys, monkeypatch, fmt):
    """A 1e-6 relative move of one sector eigenvalue reaches the printed table."""
    argv = ["spectrum", "--op", "delta-rn", "--model", "s3", "--max-weight", "6", "--format", fmt]
    assert cli.main(argv) == 0
    clean = capsys.readouterr().out
    eigh = np.linalg.eigh

    def moved(a, *args, **kwargs):
        w, q = eigh(a, *args, **kwargs)
        if a.ndim == 3 and a.shape[0] > 10:
            w = w.copy()
            w[-1, -1] *= 1 + 1e-6
        return w, q

    monkeypatch.setattr(np.linalg, "eigh", moved)
    assert cli.main(argv) == 0
    spoiled = capsys.readouterr().out
    assert spoiled != clean


def test_round_sig_values_equals_round_sig_of_each_numpy_float():
    """`util.round_sig` of an np.float64 rounds with numpy's rounding, which differs from
    Python's `round` on some values; the array form must match it value by value."""
    rng = np.random.default_rng(3)
    values = rng.uniform(-1, 1, 4000) * 10.0 ** rng.integers(-8, 9, 4000)
    values = np.concatenate([values, [0.0, -0.0, 1.0, 10.0, 999.9999999999999, 1e-30, 2.675, 6.000000000000001]])
    expected = [util.round_sig(x) for x in values]  # iterating an array gives np.float64
    assert round_sig_values(values).tolist() == expected
    assert any(util.round_sig(x) != util.round_sig(float(x)) for x in values)  # the rounding differs from Python's


def test_dense_reference_rounds_half_pairs_as_the_library():
    """The dense reference rounds its (lambda10, lambda01) as the library does, also where Python's
    rounding of the same float differs."""
    x = 71.02209451155
    assert util.round_sig(x) == 71.0220945115  # Python's `round` of the binary value
    assert round_sig_values(np.array([x])).tolist() == [71.0220945116]
    assert dense_reference.round_as_library(x) == 71.0220945116
