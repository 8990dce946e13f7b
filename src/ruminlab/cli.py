"""Command-line front end: spectrum tables, verification suites, torsion reports.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
configuration error.  Output is byte-stable for a fixed configuration (sorted
reductions, floats printed with 17 significant digits).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import List, Optional

from . import torsion as torsion_mod
from .model import ModelManifold, ParameterError, lens_space, su2_model
from .spectral import (
    Assembly,
    SpectrumEntry,
    SpectrumTable,
    VerificationReport,
    verify_complex_property,
    verify_eigenvalue_identity,
    verify_deformation_family,
    verify_hodge_block_matrix,
    verify_kernel_coincidence,
    verify_middle_degree,
    verify_primitivity,
    verify_sasakian_identities,
    verify_star_symmetry,
    _half_laplacian_pairs,
    _sequential_joint_eigenspaces,
)
from .operators import hermitize
from . import util

import numpy as np


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
    format: str = "csv"
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
        if any(t <= 0 for t in self.t_samples):
            raise UsageError("t-samples must be positive")
        if self.format not in ("csv", "json"):
            raise UsageError(f"unknown format {self.format!r}")

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
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# -- spectrum ---------------------------------------------------------------------


def _bidegree_tag(ctx, degree: int, embed, basis, tol: float = 1e-9) -> Optional[str]:
    """Label of the bidegree component containing the eigenspace, if any."""
    full = embed @ basis
    total = float(np.sum(np.abs(full) ** 2))
    if total <= tol:
        return None
    d = ctx.block.slot_dim
    for vert in (False, True):
        for i in range(0, degree - int(vert) + 1):
            j = degree - int(vert) - i
            if j < 0:
                continue
            mask = np.repeat(
                np.array(
                    [
                        1.0 if (ix.theta == vert and len(ix.holo) == i and len(ix.anti) == j) else 0.0
                        for ix in ctx.mons(degree)
                    ]
                ),
                d,
            )
            mass = float(np.sum((np.abs(full) ** 2) * mask[:, None]))
            if mass >= (1.0 - tol) * total:
                return f"theta^({i},{j})" if vert else f"({i},{j})"
    return None


def _spectrum_entries(asm: Assembly, op: str, degree: int, t: float) -> List[SpectrumEntry]:
    entries: List[SpectrumEntry] = []
    for ctx in asm.contexts:
        if op == "delta-rn":
            lap = ctx.laplacian_rn(degree).matrix
            ilt = 1j * ctx.lie_reeb_rumin(degree).matrix
            embed = ctx.rumin_space(degree).embed
        elif op == "delta-dr":
            lap = ctx.laplacian_de_rham(degree).matrix
            ilt = 1j * ctx.lie_reeb_full(degree)
            embed = ctx.space(degree).embed
        elif op == "delta-t":
            lap = ctx.laplacian_t(degree, t).matrix
            ilt = 1j * ctx.lie_reeb_full(degree)
            embed = ctx.space(degree).embed
        elif op == "delta-b":
            lap = ctx.laplacian_b(degree).matrix
            sp = ctx.horizontal_space(degree)
            ilt = 1j * ctx.compress(ctx.lie_reeb_full(degree), sp, sp).matrix
            embed = sp.embed
        else:
            raise UsageError(f"unknown operator {op!r}")
        comps = _sequential_joint_eigenspaces(hermitize(lap, 1e-9), hermitize(ilt, 1e-9), 1e-9)
        below = op == "delta-rn" and degree <= asm.n - 1  # Rumin rows there carry the half-Laplacian pair
        tags = _half_laplacian_pairs(ctx, degree, [b for *_, b in comps]) if below else [(None, None)] * len(comps)
        for (delta, tau, basis), (l10, l01) in zip(comps, tags):
            entries.append(
                SpectrumEntry(
                    degree,
                    ctx.block.label,
                    max(delta, 0.0),
                    ctx.block.multiplicity * basis.shape[1],
                    nu=0.0 - tau,  # L_T acts by i*nu; never -0.0
                    lambda10=l10,
                    lambda01=l01,
                    bidegree=_bidegree_tag(ctx, degree, embed, basis),
                )
            )
    return entries


def cmd_spectrum(cfg: RunConfig) -> int:
    model = cfg.build_model()
    asm = Assembly(model, cfg.max_weight)
    top = model.frame.dim
    if cfg.op not in ("delta-rn", "delta-dr", "delta-t", "delta-b"):
        raise UsageError(f"unknown operator {cfg.op!r}; choose delta-rn|delta-dr|delta-t|delta-b")
    max_degree = 2 * model.frame.n if cfg.op == "delta-b" else top
    degrees = [cfg.degree] if cfg.degree is not None else list(range(max_degree + 1))
    for k in degrees:
        if not 0 <= k <= max_degree:
            raise UsageError(f"degree {k} out of range for {cfg.op}")
    t = cfg.t_samples[0]
    table = SpectrumTable(
        operator=cfg.op,
        model=model.describe(),
        max_weight=cfg.max_weight,
        cutoff=asm.spectral_cutoff(),
    )
    for k in degrees:
        table.entries.extend(_spectrum_entries(asm, cfg.op, k, t))
    _emit(table.to_csv() if cfg.format == "csv" else table.to_json(), cfg.out)
    return 0


# -- verify -----------------------------------------------------------------------


def run_suite(asm: Assembly, suite: str, cfg: RunConfig) -> VerificationReport:
    tol = cfg.tol
    report = VerificationReport(
        f"suite:{suite}",
        {"model": asm.model.describe(), "max_weight": asm.max_weight, "tol": tol},
    )

    def residual_tol(default: float) -> float:
        return default if tol is None else tol

    if suite in ("thm1", "all"):
        report.extend(verify_kernel_coincidence(asm, tol=residual_tol(1e-10)))
    if suite in ("cor2", "all"):
        report.extend(verify_primitivity(asm, tol=residual_tol(1e-10)))
    if suite in ("cor3", "all"):
        report.extend(verify_deformation_family(asm, tuple(cfg.t_samples), tol=residual_tol(1e-10)))
    if suite in ("sec4", "all"):
        report.extend(verify_sasakian_identities(asm, tol=residual_tol(1e-11)))
        report.extend(verify_eigenvalue_identity(asm, tol_rel=residual_tol(1e-9)))
        report.extend(verify_middle_degree(asm, tol=residual_tol(1e-10)))
    if suite == "all":
        report.extend(verify_complex_property(asm, tol=residual_tol(1e-12)))
        report.extend(verify_hodge_block_matrix(asm, tol=residual_tol(1e-12)))
        report.extend(verify_star_symmetry(asm, tol=residual_tol(1e-10)))
    if suite in ("thm5", "all"):
        report.extend(torsion_mod.reeb_decomposition(asm, s_grid=cfg.s_grid).checks)
    report.checks.sort(key=lambda c: c.name)
    return report


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.suite not in ("all", "thm1", "cor2", "cor3", "sec4", "thm5"):
        raise UsageError(f"unknown suite {cfg.suite!r}")
    model = cfg.build_model()
    asm = Assembly(model, cfg.max_weight)
    report = run_suite(asm, cfg.suite, cfg)
    _emit(report.to_json(), cfg.out)
    if not report.passed:
        for c in report.failures():
            sys.stderr.write(
                f"FAIL {c.name}: residual {util.fmt_float(c.residual)} "
                f"> tolerance {util.fmt_float(c.tolerance)} {c.detail}\n"
            )
        return 1
    return 0


# -- torsion ----------------------------------------------------------------------


def cmd_torsion(cfg: RunConfig) -> int:
    model = cfg.build_model()
    asm = Assembly(model, cfg.max_weight)
    report = torsion_mod.reeb_decomposition(asm, s_grid=cfg.s_grid)
    _emit(report.pairs_csv() if cfg.format == "csv" else report.to_json(), cfg.out)
    if not report.passed:
        for c in report.checks.failures():
            sys.stderr.write(f"FAIL {c.name}: residual {util.fmt_float(c.residual)}\n")
        return 1
    return 0


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--tol", type=float, default=None, help="override residual tolerances")
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
