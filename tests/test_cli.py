"""Command-line interface: exit codes, schemas, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ruminlab import cli, torsion, util
from ruminlab.cli import RunConfig, UsageError, build_parser, load_config, main
from ruminlab.model import su2_model
from ruminlab.spectral import Assembly

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- spectrum ---------------------------------------------------------------------


def test_spectrum_sphere_has_zero_mode(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--model", "s3", "--op", "delta-rn", "--max-weight", "4", "--degree", "0"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["degree", "block", "eigenvalue", "multiplicity", "nu", "lambda10", "lambda01"]
    zero_rows = [r for r in rows[1:] if abs(float(r[2])) <= 1e-9]
    assert len(zero_rows) >= 1


def test_spectrum_twisted_lens_has_no_zero_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--model", "lens", "--p", "2", "--character", "1",
        "--max-weight", "4", "--op", "delta-rn", "--degree", "0",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows and all(float(r[2]) > 1e-9 for r in rows)


def test_spectrum_rejects_negative_weight(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--model", "s3", "--max-weight", "-1")
    assert code == 2
    assert "max-weight" in err


def test_spectrum_rejects_bad_degree(capsys):
    code, _, _ = run_cli(
        capsys, "spectrum", "--model", "s3", "--op", "delta-b", "--degree", "3", "--max-weight", "1"
    )
    assert code == 2


def test_spectrum_all_operators_run(capsys):
    for op in ("delta-dr", "delta-t", "delta-b"):
        code, out, _ = run_cli(
            capsys, "spectrum", "--model", "s3", "--op", op, "--max-weight", "1", "--degree", "0"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("degree,block")


def test_spectrum_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--model", "s3", "--op", "delta-rn", "--max-weight", "2",
        "--degree", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["operator"] == "delta-rn"


def test_spectrum_writes_file(tmp_path, capsys):
    out_path = tmp_path / "spec.csv"
    code, _, _ = run_cli(
        capsys,
        "spectrum", "--model", "s3", "--op", "delta-rn", "--max-weight", "1",
        "--degree", "0", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text().startswith("degree,block")


# -- verify -----------------------------------------------------------------------


def test_verify_all_sphere_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--model", "s3", "--max-weight", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["passed"] is True


def test_verify_thm5_twisted_lens(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "thm5", "--model", "lens", "--p", "3", "--character", "2",
        "--max-weight", "3",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_impossible_tolerance_lists_residuals(capsys):
    code, _, err = run_cli(
        capsys,
        "verify", "--suite", "sec4", "--model", "s3", "--max-weight", "2", "--tol", "1e-30",
    )
    assert code == 1
    assert "residual" in err


def test_verify_unknown_suite_rejected(capsys):
    code = main(["verify", "--suite", "all", "--model", "s3", "--max-weight", "2", "--format", "xml"])
    capsys.readouterr()
    assert code == 2


VERIFY_MODELS = [("--model", "s3"), ("--model", "lens", "--p", "3", "--character", "1")]


@pytest.mark.parametrize("model", VERIFY_MODELS, ids=["s3", "lens3-1"])
def test_verify_check_names_are_distinct(capsys, model):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--format", "json", "--max-weight", "4", *model)
    assert code == 0
    counts = Counter(c["name"] for c in json.loads(out)["checks"])
    assert counts and not [name for name, n in counts.items() if n > 1]


@pytest.mark.parametrize("model", VERIFY_MODELS, ids=["s3", "lens3-1"])
def test_verify_csv_lists_the_json_checks(capsys, model):
    argv = ("verify", "--suite", "all", "--max-weight", "3", *model)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert run_cli(capsys, *argv, "--format", "json")[1] == out
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "status", "residual", "tolerance", "detail"]
    assert [row[0] for row in rows[1:]] == [c["name"] for c in checks]
    assert rows[1:] == [
        [c["name"], "pass" if c["passed"] else "fail", c["residual"], c["tolerance"], c["detail"]] for c in checks
    ]


@pytest.mark.parametrize(
    "model", [("--model", "s3"), ("--model", "lens", "--p", "3", "--character", "1")], ids=["s3", "lens3-1"]
)
def test_reeb_eigenvalues_print_as_exact_integers(capsys, model):
    printed = []
    for op in ("delta-rn", "delta-dr", "delta-t", "delta-b"):
        code, out, _ = run_cli(capsys, "spectrum", "--op", op, "--max-weight", "6", "--format", "json", *model)
        assert code == 0
        printed += [e["nu"] for e in json.loads(out)["entries"]]
    code, out, _ = run_cli(capsys, "torsion", "--max-weight", "6", "--format", "csv", *model)
    assert code == 0
    printed += [row[4] for row in list(csv.reader(io.StringIO(out)))[1:]]
    # exact integers, and zero never prints as -0
    assert printed and all(v == str(int(float(v))) for v in printed)


def test_failing_verify_lists_exactly_the_failed_checks(capsys):
    """The report's columns, `failed()`, the JSON report and the FAIL lines agree on which checks
    fail, in name order: at M=30, where rounding alone fails some checks, and at `--tol 1e-30`,
    which fails every check whose residual is not exactly zero, 89 of them at M=3."""
    for max_weight, tol in ((30, ()), (3, ("--tol", "1e-30"))):
        argv = ["verify", "--suite", "all", "--model", "s3", "--max-weight", str(max_weight), *tol]
        cfg = load_config(build_parser().parse_args(argv))
        report = cli.run_suite(Assembly(su2_model(), max_weight), "all", cfg)
        over = sorted(n for n, r, t in zip(report.names, report.residuals, report.tolerances) if not r <= t)
        assert over and [report.names[i] for i in report.failed()] == over
        if tol:
            assert len(over) == 89

        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert failed == over
        assert [line.split(":")[0] for line in err.splitlines()] == [f"FAIL {name}" for name in over]


# -- torsion ----------------------------------------------------------------------


def test_torsion_sphere(capsys):
    code, out, _ = run_cli(
        capsys, "torsion", "--model", "s3", "--max-weight", "2", "--s-grid", "2,3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert set(doc["kappa_from_spectrum"]) == {"2", "3"}


def test_torsion_untwisted_lens_counts_constants(capsys):
    code, out, _ = run_cli(
        capsys, "torsion", "--model", "lens", "--p", "2", "--max-weight", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kernel_dims"][0] == 1


def test_torsion_rejects_small_exponent(capsys):
    code, _, err = run_cli(capsys, "torsion", "--model", "s3", "--max-weight", "2", "--s-grid", "0.5,2")
    assert code == 2
    assert "s-grid" in err


def test_torsion_pairs_csv(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--model", "s3", "--max-weight", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["block", "degree", "lambda", "piece", "nu", "multiplicity"]


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["csv", "json"])
def test_failing_torsion_exits_1_and_lists_exactly_the_failed_checks(capsys, monkeypatch, tmp_path, fmt):
    """No torsion run of the test grid fails, so failed checks are added to a real report: the
    run exits 1, writes the full report to stdout or `--out`, and lists on stderr exactly the
    failed checks, in name order, as `verify` lists them."""
    reports = []

    def failing(asm, **kwargs):
        report = real(asm, **kwargs)
        checks = report.checks
        checks.add("zz_made_to_fail", 2.0, 1.0, "above its bound")
        checks.add("aa_made_to_fail", math.nan, 1e-9)
        checks.add_family(["boxes_psd[m9]k=0", "boxes_psd[m0]k=0"], [0.0, 3], 0.0, ["passes", "int residual"])
        reports.append(report)
        return report

    real = torsion.reeb_decomposition
    monkeypatch.setattr(torsion, "reeb_decomposition", failing)
    argv = ["torsion", "--model", "s3", "--max-weight", "3", *fmt]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    report = reports[-1]
    text = report.to_json() if fmt else report.pairs_csv()
    assert out == (text if text.endswith("\n") else text + "\n")
    c = report.checks
    checks = sorted(zip(c.names, c.residuals, c.tolerances, c.details), key=lambda check: check[0])
    f17 = util.fmt_float
    lines = [f"FAIL {n}: residual {f17(r)} > tolerance {f17(t)} {d}" for n, r, t, d in checks if not r <= t]
    assert err.splitlines() == lines
    failed = ["aa_made_to_fail", "boxes_psd[m0]k=0", "zz_made_to_fail"]
    assert [line.split(":")[0] for line in lines] == [f"FAIL {name}" for name in failed]
    assert lines[0] == "FAIL aa_made_to_fail: residual nan > tolerance 1.0000000000000001e-09 "

    path = tmp_path / "torsion.out"
    code, out, err_out = run_cli(capsys, *argv, "--out", str(path))
    assert code == 1 and out == "" and err_out == err
    assert path.read_text() == (reports[-1].to_json() if fmt else reports[-1].pairs_csv())


# -- config and determinism ----------------------------------------------------------


def test_byte_identical_output(capsys):
    args = ["spectrum", "--model", "s3", "--op", "delta-rn", "--max-weight", "3", "--format", "json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_parser_built_once_and_unchanged_by_a_usage_error(capsys):
    """Every `main` call of a process parses with one parser; a rejected command line leaves it as it was."""
    build_parser.cache_clear()
    args = ["torsion", "--model", "lens", "--p", "3", "--character", "1", "--max-weight", "2", "--format", "json"]
    alone = run_cli(capsys, *args)
    for bad in (["torsion", "--max-weight", "two"], ["spectrum", "--op", "delta-x"], []):
        assert run_cli(capsys, *bad)[0] == 2
    assert run_cli(capsys, *args) == alone
    assert alone[0] == 0 and alone[1].startswith("{")
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("command", ["spectrum", "verify", "torsion"])
def test_tol_help_names_the_bounds_it_leaves_alone(capsys, command):
    """`--tol` overrides only the residual bounds of the suites; its help names the bounds that keep
    their own value, as README does."""
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args([command, "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    start = text.index("--tol TOL override the residual bound of every verify suite")  # past the usage line
    tol_help = text[start : text.index("--format", start)]
    for bound in ("thm1 angle bound", "zero threshold of the sec4 eigenvalue law", "thm5 torsion checks"):
        assert bound in tol_help, bound


def test_config_file_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"model": "lens", "p": 2, "character": 1, "max_weight": 3}))
    # file value used when the flag is absent
    code, out, _ = run_cli(
        capsys, "spectrum", "--config", str(cfg_path), "--op", "delta-rn", "--degree", "0"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert all(float(r[2]) > 1e-9 for r in rows)
    # explicit flag wins over the file
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--config", str(cfg_path), "--character", "0", "--op", "delta-rn", "--degree", "0",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert any(abs(float(r[2])) <= 1e-9 for r in rows)


def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"no_such_option": 1}))

    class Args:
        config = str(cfg_path)

    with pytest.raises(UsageError):
        load_config(Args())


@pytest.mark.parametrize(
    "doc",
    [
        {"max_weight": "3"},
        {"t_samples": 0.5},
        {"model": "lens", "p": 2.5},
        {"out": 2, "max_weight": 1},
        {"out": True, "max_weight": 1},
        {"model": "s3", "p": 3, "character": 2},
        {"model": "s3", "p": 2},
    ],
    ids=["string-weight", "scalar-t-samples", "fractional-order", "integer-out", "boolean-out",
         "s3-with-order-and-character", "s3-with-order"],
)
def test_config_values_of_wrong_type_exit_2(tmp_path, capsys, doc):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    argv = ("spectrum", "--config", str(cfg_path))
    if "out" in doc:
        # open() takes an int (or bool) as a file descriptor, which a run would then close: keep it
        # away from this process
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "ruminlab.cli", *argv], capture_output=True, text=True, env=env)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "cor3", "--t-samples", ","),
        ("verify", "--suite", "cor3", "--t-samples", "nan"),
        ("spectrum", "--op", "delta-t", "--t-samples", "inf"),
        ("verify", "--suite", "thm5", "--s-grid", "2,inf"),
        ("verify", "--suite", "sec4", "--tol", "nan"),
        ("verify", "--suite", "sec4", "--tol", "inf"),
        ("verify", "--suite", "sec4", "--tol=-1e-10"),
        ("verify", "--suite", "thm5", "--s-grid", "1.5,9"),
        ("verify", "--suite", "thm5", "--s-grid", ","),
        ("torsion", "--s-grid", ","),
        ("spectrum", "--p", "3", "--character", "2"),  # s3 is the quotient of order 1, trivial character
        ("spectrum", "--p", "3"),
    ],
    ids=["empty-t-samples", "nan-t-samples", "inf-t-samples", "inf-s-grid", "nan-tol", "inf-tol",
         "negative-tol", "out-of-range-s-grid-verify", "empty-s-grid-verify", "empty-s-grid-torsion",
         "s3-with-order-and-character", "s3-with-order"],
)
def test_non_finite_or_empty_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--model", "s3", "--max-weight", "1")
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--suite", "all", "--t-samples", "1,1.0,2"), "t-samples"),
        (("torsion", "--s-grid", "2,2.0,3"), "s-grid"),
        (("verify", "--suite", "thm5", "--s-grid", "3,2,3"), "s-grid"),
    ],
    ids=["t-samples-verify", "s-grid-torsion", "s-grid-verify"],
)
def test_repeated_sample_values_exit_2(capsys, argv, flag):
    """Each sample value names its checks (`...t=1.0`, `kappa_two_routes_s=2`), so a repeated
    value would list the same checks twice."""
    code, out, err = run_cli(capsys, *argv, "--model", "s3", "--max-weight", "2")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} must not repeat a value")


@pytest.mark.parametrize(
    "doc, command",
    [({"t_samples": [1, 1.0, 2]}, ("verify", "--suite", "cor3")), ({"s-grid": [2.0, 3, 2]}, ("torsion",))],
    ids=["t-samples", "s-grid"],
)
def test_config_file_with_repeated_sample_values_exits_2(tmp_path, capsys, doc, command):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"model": "s3", "max_weight": 2, **doc}))
    code, out, err = run_cli(capsys, *command, "--config", str(cfg_path))
    assert (code, out) == (2, "")
    assert "must not repeat a value" in err


@pytest.mark.parametrize("text", ["[1, 2]", '"s3"', "3", "null"], ids=["list", "string", "number", "null"])
@pytest.mark.parametrize("command", ["verify", "spectrum", "torsion"])
def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, command, text):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(text)
    code, out, err = run_cli(capsys, command, "--config", str(cfg_path))
    assert (code, out, err) == (2, "", "error: config file must hold a JSON object\n")


@pytest.mark.parametrize("command", [["spectrum"], ["verify", "--suite", "thm1"], ["torsion"]])
def test_unwritable_out_path_exits_2(tmp_path, capsys, command):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, *command, "--model", "s3", "--max-weight", "1", "--out", str(target))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_run_config_validation():
    with pytest.raises(UsageError):
        RunConfig(model="torus").validate()
    with pytest.raises(UsageError):
        RunConfig(model="s3", p=3, character=2).validate()
    with pytest.raises(UsageError):
        RunConfig(p=2, character=5).validate()
    with pytest.raises(UsageError):
        RunConfig(t_samples=[0.0]).validate()


def test_spectrum_json_carries_bidegree_tags(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--model", "s3", "--op", "delta-rn", "--max-weight", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    tags = {e["bidegree"] for e in doc["entries"]}
    # constants and the coexact middle eigenvectors are bidegree-homogeneous
    assert "(0,0)" in tags
    assert "(1,0)" in tags and "(0,1)" in tags


def test_spectrum_makes_one_eigensolve_per_degree_and_sector_size(capsys, monkeypatch):
    """The sectors of every block share one stacked `eigh` per sector size, not one per block."""
    sizes = Counter()
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes[a.shape[-1]] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    code, out, _ = run_cli(capsys, "spectrum", "--op", "delta-dr", "--model", "s3", "--max-weight", "8")
    assert code == 0 and out
    degrees = 4
    assert sizes and max(sizes.values()) <= degrees, dict(sizes)
