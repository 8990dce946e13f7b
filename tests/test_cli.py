"""Command-line interface: exit codes, schemas, determinism."""

import csv
import io
import json

import pytest

from ruminlab.cli import RunConfig, UsageError, load_config, main


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


# -- config and determinism ----------------------------------------------------------


def test_byte_identical_output(capsys):
    args = ["spectrum", "--model", "s3", "--op", "delta-rn", "--max-weight", "3", "--format", "json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


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
    [{"max_weight": "3"}, {"t_samples": 0.5}, {"model": "lens", "p": 2.5}],
    ids=["string-weight", "scalar-t-samples", "fractional-order"],
)
def test_config_values_of_wrong_type_exit_2(tmp_path, capsys, doc):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "spectrum", "--config", str(cfg_path))
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
    ],
    ids=["empty-t-samples", "nan-t-samples", "inf-t-samples", "inf-s-grid", "nan-tol", "inf-tol",
         "negative-tol", "out-of-range-s-grid-verify", "empty-s-grid-verify", "empty-s-grid-torsion"],
)
def test_non_finite_or_empty_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--model", "s3", "--max-weight", "1")
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_run_config_validation():
    with pytest.raises(UsageError):
        RunConfig(model="torus").validate()
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
