"""Command-line front end: spectrum tables, verification suites, torsion reports.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
configuration error.  Output is byte-stable for a fixed configuration (sorted
reductions, floats printed with 17 significant digits).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import List, Optional

from . import torsion as torsion_mod
from .model import ModelManifold, ParameterError, lens_space, su2_model
from .spectral import (
    Assembly,
    SpectrumTable,
    VerificationReport,
    spectral_cutoff,
    verify_complex_property,
    verify_deformation_family,
    verify_eigenvalue_identity,
    verify_hodge_block_matrix,
    verify_kernel_coincidence,
    verify_middle_degree,
    verify_primitivity,
    verify_sasakian_identities,
    verify_star_symmetry,
)
from . import util


class UsageError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


@dataclass
class RunConfig:
    model: str = "s3"
    p: int = 1
    character: int = 0
    max_weight: int = 6
    op: str = "delta-rn"
    degree: Optional[int] = None
    suite: str = "all"
    t_samples: List[float] = field(default_factory=lambda: [0.1, 1.0, 10.0])
    s_grid: List[float] = field(default_factory=lambda: [2.0, 3.0, 4.0])
    tol: Optional[float] = None
    format: Optional[str] = None  # csv or json; None picks the command's default
    out: Optional[str] = None

    def validate(self):
        for name in ("max_weight", "p", "character", "degree"):
            value = getattr(self, name)
            if not (_is_int(value) or (name == "degree" and value is None)):
                raise UsageError(f"{name.replace('_', '-')} must be an integer, not {value!r}")
        for name in ("t_samples", "s_grid"):
            value = getattr(self, name)
            if not (isinstance(value, (list, tuple)) and all(_is_number(x) for x in value)):
                raise UsageError(f"{name.replace('_', '-')} must be a list of numbers, not {value!r}")
            if not all(math.isfinite(x) for x in value):
                raise UsageError(f"{name.replace('_', '-')} must be finite, not {value!r}")
            if len(set(value)) != len(value):  # each sample names its checks: a repeat would list them twice
                raise UsageError(f"{name.replace('_', '-')} must not repeat a value, not {value!r}")
        if not self.t_samples:
            raise UsageError("t-samples must not be empty")
        if not self.s_grid:
            raise UsageError("s-grid must not be empty")
        if not all(2.0 <= s <= 6.0 for s in self.s_grid):
            raise UsageError("s-grid values must lie in [2, 6]")
        if self.tol is not None and not (_is_number(self.tol) and math.isfinite(self.tol) and self.tol >= 0):
            raise UsageError(f"tol must be a finite number >= 0, not {self.tol!r}")
        if self.model not in ("s3", "lens"):
            raise UsageError(f"unknown model {self.model!r}")
        if self.max_weight < 0:
            raise UsageError("max-weight must be >= 0")
        if self.p < 1:
            raise UsageError("p must be >= 1")
        if not 0 <= self.character < self.p:
            raise UsageError(f"character must lie in [0, {self.p})")
        if self.model == "s3" and (self.p, self.character) != (1, 0):
            raise UsageError(
                f"model s3 takes p = 1 and character 0, not p = {self.p}, character = {self.character}"
            )
        if any(t <= 0 for t in self.t_samples):
            raise UsageError("t-samples must be positive")
        if self.format not in (None, "csv", "json"):
            raise UsageError(f"unknown format {self.format!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise UsageError(f"out must be a path, not {self.out!r}")

    def build_model(self) -> ModelManifold:
        if self.model == "s3":
            return su2_model()
        return lens_space(self.p, character=self.character)


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad float list {text!r}") from exc


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object")
        valid = {f.name for f in fields(RunConfig)}
        for key, value in doc.items():
            key = key.replace("-", "_")
            if key not in valid:
                raise UsageError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(cfg, f.name, flag)
    if isinstance(cfg.t_samples, str):
        cfg.t_samples = _parse_floats(cfg.t_samples)
    if isinstance(cfg.s_grid, str):
        cfg.s_grid = _parse_floats(cfg.s_grid)
    cfg.validate()
    return cfg


def _emit(text: str, out: Optional[str]):
    if out:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# -- spectrum ---------------------------------------------------------------------


def _spectrum_columns(model: ModelManifold, max_weight: int, op: str, degrees: List[int], t: float) -> dict:
    """The columns of a spectrum table over every nonempty block up to `max_weight`, from the
    Reeb-sector rows of every weight at once (`rows.spectrum_columns`), which frees its sector
    stacks before it solves them."""
    asm = Assembly(model, max_weight)
    # imported on first use, so that `import ruminlab.cli` costs `verify` and `torsion` no more than before
    from .rows import spectrum_columns

    return spectrum_columns(model.frame, asm.weights, asm.multiplicity, op, degrees, t)


def cmd_spectrum(cfg: RunConfig) -> int:
    model = cfg.build_model()
    top = model.frame.dim
    if cfg.op not in ("delta-rn", "delta-dr", "delta-t", "delta-b"):
        raise UsageError(f"unknown operator {cfg.op!r}; choose delta-rn|delta-dr|delta-t|delta-b")
    max_degree = 2 * model.frame.n if cfg.op == "delta-b" else top
    degrees = [cfg.degree] if cfg.degree is not None else list(range(max_degree + 1))
    for k in degrees:
        if not 0 <= k <= max_degree:
            raise UsageError(f"degree {k} out of range for {cfg.op}")
    table = SpectrumTable(
        operator=cfg.op,
        model=model.describe(),
        max_weight=cfg.max_weight,
        cutoff=spectral_cutoff(model, cfg.max_weight),
    )
    table.columns = _spectrum_columns(model, cfg.max_weight, cfg.op, degrees, cfg.t_samples[0])
    _emit(table.to_json() if cfg.format == "json" else table.to_csv(), cfg.out)
    return 0


# -- verify -----------------------------------------------------------------------


def run_suite(asm: Assembly, suite: str, cfg: RunConfig) -> VerificationReport:
    """The checks of the selected suites, from their `verify_*` functions, with their default
    bounds unless `--tol` overrides them: each reads the Reeb-sector stacks of every weight at
    once (`Assembly.sector_stacks`), memoized with the assembly, so the suites share every
    quantity they both read."""
    tol = cfg.tol
    report = VerificationReport(
        f"suite:{suite}",
        {"model": asm.model.describe(), "max_weight": asm.max_weight, "tol": tol},
    )
    bound = {} if tol is None else {"tol": tol}

    def selected(name: str) -> bool:
        return suite in (name, "all")

    if selected("thm1"):
        report.extend(verify_kernel_coincidence(asm, **bound))
    if selected("cor2"):
        report.extend(verify_primitivity(asm, **bound))
    if selected("cor3"):
        report.extend(verify_deformation_family(asm, tuple(cfg.t_samples), **bound))
    if selected("sec4"):
        report.extend(verify_sasakian_identities(asm, **bound))
        report.extend(verify_eigenvalue_identity(asm, **({} if tol is None else {"tol_rel": tol})))
        report.extend(verify_middle_degree(asm, **bound))
    if suite == "all":
        report.extend(verify_complex_property(asm, **bound))
        report.extend(verify_hodge_block_matrix(asm, **bound))
        report.extend(verify_star_symmetry(asm, **bound))
    if selected("thm5"):
        report.extend(torsion_mod.reeb_decomposition(asm, s_grid=cfg.s_grid).checks)
    return report


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.suite not in ("all", "thm1", "cor2", "cor3", "sec4", "thm5"):
        raise UsageError(f"unknown suite {cfg.suite!r}")
    # the assembly, with its sector stacks, is freed before the report is serialized
    report = run_suite(Assembly(cfg.build_model(), cfg.max_weight), cfg.suite, cfg)
    _emit(report.to_csv() if cfg.format == "csv" else report.to_json(), cfg.out)
    if not report.passed:
        for i in report.failed():
            sys.stderr.write(
                f"FAIL {report.names[i]}: residual {util.fmt_float(report.residuals[i])} "
                f"> tolerance {util.fmt_float(report.tolerances[i])} {report.details[i]}\n"
            )
        return 1
    return 0


# -- torsion ----------------------------------------------------------------------


def cmd_torsion(cfg: RunConfig) -> int:
    # the assembly, with its sector stacks, is freed before the report is serialized
    report = torsion_mod.reeb_decomposition(Assembly(cfg.build_model(), cfg.max_weight), s_grid=cfg.s_grid)
    _emit(report.to_json() if cfg.format == "json" else report.pairs_csv(), cfg.out)
    if not report.passed:
        checks = report.checks
        for i in checks.failed():
            sys.stderr.write(f"FAIL {checks.names[i]}: residual {util.fmt_float(checks.residuals[i])}\n")
        return 1
    return 0


# -- entry point --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `rumin` argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="rumin",
        description="Spectra and verification suites for the Rumin complex on model Sasakian 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--model", choices=("s3", "lens"), default=None)
        p.add_argument("--p", type=int, default=None, help="order of the lens quotient")
        p.add_argument("--character", type=int, default=None, help="flat-bundle character index")
        p.add_argument("--max-weight", dest="max_weight", type=int, default=None)
        p.add_argument("--t-samples", dest="t_samples", default=None, help="comma-separated positive reals")
        p.add_argument("--s-grid", dest="s_grid", default=None, help="comma-separated reals in [2, 6]")
        p.add_argument("--tol", type=float, default=None, help="override the residual bound of every verify suite "
                       "(of the sec4 eigenvalue law: its relative bound); the thm1 angle bound, the zero threshold of "
                       "the sec4 eigenvalue law and the thm5 torsion checks keep their own bounds")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        p.add_argument("--config", default=None, help="flat JSON config file; flags take precedence")

    ps = sub.add_parser("spectrum", help="eigenvalue tables for one operator")
    common(ps)
    ps.add_argument("--op", choices=("delta-rn", "delta-dr", "delta-t", "delta-b"), default=None,
                    help="operator; delta-t uses the first entry of --t-samples")
    ps.add_argument("--degree", type=int, default=None)

    pv = sub.add_parser("verify", help="run a verification suite")
    common(pv)
    pv.add_argument("--suite", choices=("all", "thm1", "cor2", "cor3", "sec4", "thm5"), default=None)

    pt = sub.add_parser("torsion", help="torsion-function partial sums and the Reeb decomposition")
    common(pt)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse already printed the usage message
            return int(exc.code or 0)
        cfg = load_config(args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "torsion":
            return cmd_torsion(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ParameterError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
