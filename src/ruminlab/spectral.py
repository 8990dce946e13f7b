"""Per-block eigenanalysis and the executable theorem suite.

Operators on a fixed block are exact finite matrices, so a truncated spectrum
is the exact spectrum below the smallest eigenvalue of the omitted blocks
(the cutoff is reported alongside every table).  All verifications reduce to
residual norms of matrix identities and to subspace comparisons through
principal angles, with one report entry per named check.

Joint (Delta, i L_T) eigenspaces come from one routine,
`_sequential_joint_eigenspaces`: i L_T is diagonal with integer entries in the
block basis, so a Laplacian, which commutes with it, is diagonalized inside
each Reeb sector (basis vectors sharing one Reeb eigenvalue).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import util
from .model import ModelManifold
from .operators import (
    BlockContext,
    BlockOperator,
    InternalConsistencyError,
    assert_hermitian,
    hermitize,
    max_abs,
    sqrtm_psd,
    _null_basis,
)

KERNEL_RELATIVE_TOL = 1e-9


# -- assemblies ---------------------------------------------------------------


class Assembly:
    """All nonempty block contexts of a model up to a weight cutoff.

    The assembly owns the per-frame fiber tables and shares them with every
    context it builds, the cutoff probe's contexts included.
    """

    def __init__(self, model: ModelManifold, max_weight: int):
        self.model = model
        self.max_weight = max_weight
        self._tables: Dict = {}
        self.contexts: List[BlockContext] = [
            BlockContext(model.frame, b, self._tables)
            for b in model.blocks(max_weight)
            if b.dim > 0
        ]
        self._cutoff: Optional[float] = None

    @property
    def n(self) -> int:
        return self.model.frame.n

    @property
    def degrees(self) -> range:
        return range(self.model.frame.dim + 1)

    def spectral_cutoff(self, probe: int = 2) -> float:
        """Smallest Rumin eigenvalue of the first omitted blocks; the truncated
        spectrum is exact strictly below this value."""
        if self._cutoff is not None:
            return self._cutoff
        lo = math.inf
        found = 0
        m = self.max_weight + 1
        while found < probe and m <= self.max_weight + 2 * self.model.p + probe:
            b = self.model.block(m)
            if b.dim > 0:
                ctx = BlockContext(self.model.frame, b, self._tables)
                for k in self.degrees:
                    w = np.linalg.eigvalsh(ctx.laplacian_rn(k).matrix)
                    pos = w[w > 1e-9]
                    if pos.size:
                        lo = min(lo, float(pos[0]))
                found += 1
            m += 1
        self._cutoff = lo
        return lo


# -- spectra -------------------------------------------------------------------


@dataclass
class SpectrumEntry:
    degree: int
    block: str
    eigenvalue: float
    multiplicity: int
    nu: Optional[float] = None
    lambda10: Optional[float] = None
    lambda01: Optional[float] = None
    bidegree: Optional[str] = None  # "(i,j)" / "theta^(i,j)" when the eigenspace is homogeneous


@dataclass
class SpectrumTable:
    operator: str
    model: dict
    max_weight: int
    entries: List[SpectrumEntry] = field(default_factory=list)
    cutoff: Optional[float] = None

    def sorted_entries(self) -> List[SpectrumEntry]:
        return sorted(
            self.entries, key=lambda e: (e.degree, e.block, e.eigenvalue, e.multiplicity)
        )

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "kind": "spectrum",
            "operator": self.operator,
            "model": self.model,
            "max_weight": self.max_weight,
            "cutoff": None if self.cutoff is None else util.fmt_float(self.cutoff),
            "entries": [
                {
                    "degree": e.degree,
                    "block": e.block,
                    "eigenvalue": util.fmt_float(e.eigenvalue),
                    "multiplicity": e.multiplicity,
                    "nu": None if e.nu is None else util.fmt_float(e.nu),
                    "lambda10": None if e.lambda10 is None else util.fmt_float(e.lambda10),
                    "lambda01": None if e.lambda01 is None else util.fmt_float(e.lambda01),
                    "bidegree": e.bidegree,
                }
                for e in self.sorted_entries()
            ],
        }
        return json.dumps(doc, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["degree", "block", "eigenvalue", "multiplicity", "nu", "lambda10", "lambda01"])
        for e in self.sorted_entries():
            writer.writerow(
                [
                    e.degree,
                    e.block,
                    util.fmt_float(e.eigenvalue),
                    e.multiplicity,
                    "" if e.nu is None else util.fmt_float(e.nu),
                    "" if e.lambda10 is None else util.fmt_float(e.lambda10),
                    "" if e.lambda01 is None else util.fmt_float(e.lambda01),
                ]
            )
        return buf.getvalue()


def block_spectrum(op: BlockOperator, tol: float = 1e-12):
    """Eigenvalues with multiplicities of one Hermitian block operator."""
    if op.source.key != op.target.key:
        raise ValueError("spectrum requires an endomorphism")
    assert_hermitian(op.matrix, tol, "spectrum input")
    w = np.linalg.eigvalsh(hermitize(op.matrix, tol))
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    return util.cluster_values(list(w), 1e-9 * scale)


@dataclass
class KernelBasis:
    degree: int
    block: str
    vectors: np.ndarray  # columns, orthonormal
    tolerance: float

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def kernel(op: BlockOperator, tol: Optional[float] = None) -> KernelBasis:
    """Span of the near-zero eigenvectors of a Hermitian psd block operator."""
    assert_hermitian(op.matrix, 1e-12, "kernel input")
    m = hermitize(op.matrix)
    w, q = np.linalg.eigh(m) if m.size else (np.zeros(0), np.zeros((0, 0)))
    lam_max = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    cut = KERNEL_RELATIVE_TOL * lam_max if tol is None else tol
    vecs = q[:, np.abs(w) <= cut]
    return KernelBasis(op.source.degree, op.source.block_label, vecs, cut)


def joint_kernel(mats: Sequence[np.ndarray], tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the common kernel of several psd matrices."""
    mats = [m for m in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    scale = max(1.0, max(max_abs(m) for m in mats))
    return _null_basis(np.vstack(mats) / scale, tol)


def principal_sines(u: np.ndarray, v: np.ndarray) -> float:
    """Largest principal-angle sine between two orthonormal column spans."""
    if u.shape[1] == 0 and v.shape[1] == 0:
        return 0.0
    if u.shape[1] != v.shape[1]:
        return 1.0
    r1 = v - u @ (u.conj().T @ v)
    r2 = u - v @ (v.conj().T @ u)
    s1 = np.linalg.svd(r1, compute_uv=False)
    s2 = np.linalg.svd(r2, compute_uv=False)
    return float(max(s1[0] if s1.size else 0.0, s2[0] if s2.size else 0.0))


# -- verification reports ---------------------------------------------------------


@dataclass
class Check:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


@dataclass
class VerificationReport:
    name: str
    parameters: dict = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)

    def add(self, name: str, residual: float, tolerance: float, detail: str = ""):
        residual = float(residual)
        self.checks.append(Check(name, residual <= tolerance, residual, tolerance, detail))

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]

    def sorted_checks(self) -> List[Check]:
        return sorted(self.checks, key=lambda c: c.name)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "kind": "verification",
                "name": self.name,
                "parameters": self.parameters,
                "passed": self.passed,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "residual": util.fmt_float(c.residual),
                        "tolerance": util.fmt_float(c.tolerance),
                        "detail": c.detail,
                    }
                    for c in self.sorted_checks()
                ],
            },
            sort_keys=True,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "status", "residual", "tolerance", "detail"])
        for c in self.sorted_checks():
            writer.writerow(
                [c.name, "pass" if c.passed else "fail", util.fmt_float(c.residual), util.fmt_float(c.tolerance), c.detail]
            )
        return buf.getvalue()


# -- simultaneous diagonalization -------------------------------------------------


@dataclass
class QComponent:
    lambda10: float
    lambda01: float
    basis: np.ndarray  # columns, orthonormal, in Rumin-space coordinates

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _sequential_joint_eigenspaces(a: np.ndarray, b: np.ndarray, tol: float):
    """Joint eigenspaces of a Hermitian `a` and the Reeb operator `b` = i L_T.

    `b` is diagonal in the block basis.  A Reeb sector is the set of basis
    vectors sharing one diagonal value tau; `a` commutes with `b`, so it is
    block diagonal over the sectors and is diagonalized sector by sector, with
    one stacked `eigh` per sector size.  Returns (Delta, tau, basis) ordered by
    Delta cluster (Delta is the cluster mean over all sectors), then by tau.
    """
    dim = a.shape[0]
    tau = np.real(np.diag(b))
    off = max_abs(b - np.diag(np.diag(b)))
    if off > tol:
        raise InternalConsistencyError(f"Reeb operator is not diagonal (off-diagonal {off:.3e})")
    comm = max_abs(a * (tau[None, :] - tau[:, None]))  # entrywise [a, diag(tau)]
    if comm > 1e-9 * max(1.0, max_abs(a)):
        raise InternalConsistencyError(f"operator does not commute with the Reeb derivative ({comm:.3e})")
    if dim == 0:
        return []
    by_tau = np.argsort(tau, kind="stable")
    ascending = tau[by_tau]
    starts = np.flatnonzero(np.append(True, ascending[1:] - ascending[:-1] > tol * max(1.0, max_abs(tau))))
    sizes = np.append(starts[1:], dim) - starts  # sector i is by_tau[starts[i]:][:sizes[i]]
    # column c of vecs is an eigenvector of `a` in one sector, with eigenvalue vals[c]
    vals, taus = np.empty(dim), np.empty(dim)
    vecs = np.zeros((dim, dim), dtype=np.result_type(a, complex))
    col = 0
    for size in sorted(set(sizes.tolist())):
        idx = by_tau[starts[sizes == size][:, None] + np.arange(size)]  # (sectors, size)
        w, q = np.linalg.eigh(a[idx[:, :, None], idx[:, None, :]])
        cols = np.arange(col, col + idx.size).reshape(idx.shape)
        vecs[idx[:, :, None], cols[:, None, :]] = q
        vals[cols], taus[cols] = w, np.mean(tau[idx], axis=1)[:, None]
        col += idx.size
    by_val = np.argsort(vals, kind="stable")
    clusters = util.cluster_values(vals[by_val], tol * max(1.0, max_abs(vals)))
    cluster = np.empty(dim, dtype=int)
    cluster[by_val] = np.repeat(np.arange(len(clusters)), [count for _, count in clusters])
    # one component per (Delta cluster, sector) pair, as a run of columns
    order = np.lexsort((taus, cluster))
    c, t, vecs = cluster[order], taus[order], vecs[:, order]
    bounds = [0, *(np.flatnonzero((c[1:] != c[:-1]) | (t[1:] != t[:-1])) + 1).tolist(), dim]
    return [(float(clusters[c[lo]][0]), float(t[lo]), vecs[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _half_laplacian_pairs(ctx: BlockContext, k: int, bases: Sequence[np.ndarray], tol: float = 1e-9):
    """(lambda10, lambda01) on each joint (Delta, i L_T) eigenspace below the middle degree.

    There sqrt(Delta) and i L_T are the sum and difference of the two half
    Laplacians, which must act on each space as their Rayleigh quotients.
    """
    if k > ctx.n - 1:
        raise ValueError("the simultaneous decomposition is defined below middle degree")
    a = hermitize(ctx.rumin_del_laplacian(k).matrix, 1e-9)
    b = hermitize(ctx.rumin_del_laplacian(k, anti=True).matrix, 1e-9)
    scale = max(1.0, max_abs(a), max_abs(b))
    comm = max_abs(a @ b - b @ a)
    if comm > 1e-10 * scale:
        raise InternalConsistencyError(
            f"half Laplacians do not commute (residual {comm:.3e}); cannot decompose"
        )
    counts = [basis.shape[1] for basis in bases]
    if sum(counts) != ctx.rumin_space(k).dim:
        raise InternalConsistencyError("simultaneous eigenspaces do not exhaust the space")
    basis = np.hstack(bases)
    starts = np.cumsum([0] + counts[:-1])
    pairs = []
    for m in (a, b):
        image = m @ basis
        ray = np.add.reduceat(np.real(np.sum(basis.conj() * image, axis=0)), starts) / counts
        if max_abs(image - basis * np.repeat(ray, counts)) > 10 * tol * scale:
            raise InternalConsistencyError("half Laplacians are not scalar on a joint eigenspace")
        pairs.append(ray)
    return [(util.round_sig(max(l10, 0.0)), util.round_sig(max(l01, 0.0))) for l10, l01 in zip(*pairs)]


def q_decomposition(ctx: BlockContext, k: int, tol: float = 1e-9) -> List[QComponent]:
    """Simultaneous eigenspaces of the two half Laplacians on the degree-k Rumin space."""
    lap = hermitize(ctx.laplacian_rn(k).matrix, 1e-9)
    ilt = hermitize(1j * ctx.lie_reeb_rumin(k).matrix, 1e-9)
    bases = [basis for _, _, basis in _sequential_joint_eigenspaces(lap, ilt, tol)]
    pairs = _half_laplacian_pairs(ctx, k, bases, tol)
    return [QComponent(l10, l01, basis) for (l10, l01), basis in zip(pairs, bases)]


# -- cohomology rank oracles ----------------------------------------------------


def _rank(m: np.ndarray, tol: float = 1e-8) -> int:
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))


def rumin_cohomology_dims(asm: Assembly) -> List[int]:
    """dim H^k from ranks of the assembled complex differentials (independent oracle)."""
    dims = []
    for k in asm.degrees:
        total = 0
        for ctx in asm.contexts:
            dim_k = ctx.rumin_space(k).dim
            r_up = _rank(ctx.rumin_d(k).matrix) if k < ctx.Dmax else 0
            r_dn = _rank(ctx.rumin_d(k - 1).matrix) if k > 0 else 0
            total += ctx.block.multiplicity * (dim_k - r_up - r_dn)
        dims.append(total)
    return dims


def de_rham_cohomology_dims(asm: Assembly) -> List[int]:
    dims = []
    for k in asm.degrees:
        total = 0
        for ctx in asm.contexts:
            dim_k = ctx.full_dim(k)
            r_up = _rank(ctx.d_full(k)) if k < ctx.Dmax else 0
            r_dn = _rank(ctx.d_full(k - 1)) if k > 0 else 0
            total += ctx.block.multiplicity * (dim_k - r_up - r_dn)
        dims.append(total)
    return dims


# -- verification drivers ----------------------------------------------------------


def verify_complex_property(
    asm: Assembly, t_samples=(0.0, 0.37, 1.0, 2.0), tol: float = 1e-12
) -> VerificationReport:
    """d^2 = 0 for the de Rham, rescaled Rumin and deformed differentials."""
    report = VerificationReport(
        "complex_property",
        {"model": asm.model.describe(), "max_weight": asm.max_weight, "tol": tol, "t_samples": list(t_samples)},
    )

    for ctx in asm.contexts:
        lbl = ctx.block.label
        for k in range(ctx.Dmax):
            report.add(f"d.d[{lbl}]k={k}", max_abs(ctx.d_full(k + 1) @ ctx.d_full(k)), tol)
            for t in t_samples:
                report.add(
                    f"dt.dt[{lbl}]k={k},t={t}",
                    max_abs(ctx.dt_full(k + 1, t) @ ctx.dt_full(k, t)),
                    tol,
                )
            up = ctx.rumin_d(k + 1).matrix if k + 1 < ctx.Dmax else None
            dn = ctx.rumin_d(k).matrix
            if up is not None:
                report.add(f"dN.dN[{lbl}]k={k}", max_abs(up @ dn), tol)
    report.checks.sort(key=lambda c: c.name)
    return report


def _hdim(ctx: BlockContext, d: int) -> int:
    if d < 0 or d > ctx.Dmax:
        return 0
    return ctx.horizontal_space(d).dim


def _horizontal_del(ctx: BlockContext, k: int, anti: bool) -> np.ndarray:
    """Split half of d_b as a map of horizontal spaces; zero out of range."""
    if k < 0 or k > 2 * ctx.n - 1:
        return np.zeros((_hdim(ctx, k + 1), _hdim(ctx, k)), dtype=complex)
    src, tgt = ctx.horizontal_space(k), ctx.horizontal_space(k + 1)
    return ctx.compress(ctx.del_full(k, anti=anti), src, tgt).matrix


def _horizontal_lefschetz(ctx: BlockContext, k: int) -> np.ndarray:
    """Lefschetz wedge H^k -> H^{k+2}; zero out of range."""
    if k < 0 or k + 2 > 2 * ctx.n:
        return np.zeros((_hdim(ctx, k + 2), _hdim(ctx, k)), dtype=complex)
    return ctx.compress(
        ctx.lifted_fiber("lef", k), ctx.horizontal_space(k), ctx.horizontal_space(k + 2)
    ).matrix


def verify_sasakian_identities(asm: Assembly, tol: float = 1e-11) -> VerificationReport:
    """Commutation framework of the split differentials on a Sasakian frame.

    Covers the four metric commutator identities relating the split halves to
    the Lefschetz pair, the vanishing graded commutators, their projected
    analogues on the Rumin spaces, the commuting half Laplacians, and the
    agreement of the two assemblies of the middle operator.
    """
    report = VerificationReport(
        "sasakian_identities",
        {"model": asm.model.describe(), "max_weight": asm.max_weight, "tol": tol},
    )
    n = asm.n

    for ctx in asm.contexts:
        lbl = ctx.block.label
        dl = lambda q: _horizontal_del(ctx, q, False)
        dlb = lambda q: _horizontal_del(ctx, q, True)
        lef = lambda q: _horizontal_lefschetz(ctx, q)
        lam = lambda q: _horizontal_lefschetz(ctx, q - 2).conj().T

        for q in range(0, 2 * n + 1):
            # metric adjoints of the split halves via Lefschetz commutators
            r1 = dl(q - 1).conj().T - 1j * (lam(q + 1) @ dlb(q) - dlb(q - 2) @ lam(q))
            report.add(f"adjoint_del[{lbl}]q={q}", max_abs(r1), tol)
            r2 = dlb(q - 1).conj().T + 1j * (lam(q + 1) @ dl(q) - dl(q - 2) @ lam(q))
            report.add(f"adjoint_delbar[{lbl}]q={q}", max_abs(r2), tol)
            r3 = dl(q) - 1j * (lef(q - 1) @ dlb(q - 1).conj().T - dlb(q + 1).conj().T @ lef(q))
            report.add(f"del_from_lefschetz[{lbl}]q={q}", max_abs(r3), tol)
            r4 = dlb(q) + 1j * (lef(q - 1) @ dl(q - 1).conj().T - dl(q + 1).conj().T @ lef(q))
            report.add(f"delbar_from_lefschetz[{lbl}]q={q}", max_abs(r4), tol)
            # graded commutators of the split halves vanish
            anti1 = dl(q - 1) @ dlb(q - 1).conj().T + dlb(q).conj().T @ dl(q)
            anti2 = dlb(q - 1) @ dl(q - 1).conj().T + dl(q).conj().T @ dlb(q)
            report.add(f"graded_del_delbar[{lbl}]q={q}", max_abs(anti1), tol)
            report.add(f"graded_delbar_del[{lbl}]q={q}", max_abs(anti2), tol)
        # projected halves on the Rumin spaces, degrees <= n
        for k in range(0, n + 1):
            up = ctx.rumin_del(k).matrix
            upb = ctx.rumin_del(k, anti=True).matrix
            dn_ = ctx.rumin_del(k - 1).matrix if k >= 1 else None
            dnb = ctx.rumin_del(k - 1, anti=True).matrix if k >= 1 else None
            anti = upb.conj().T @ up
            if dn_ is not None:
                anti = anti + dn_ @ dnb.conj().T
            report.add(f"graded_rumin_halves[{lbl}]k={k}", max_abs(anti), tol)
        for k in range(0, n):
            lap10 = ctx.rumin_del_laplacian(k).matrix
            lap01 = ctx.rumin_del_laplacian(k, anti=True).matrix
            root = sqrtm_psd(ctx.laplacian_rn(k).matrix)
            report.add(f"sqrt_splits[{lbl}]k={k}", max_abs(root - lap10 - lap01), tol)
            ilt = 1j * ctx.lie_reeb_rumin(k).matrix
            report.add(f"reeb_is_half_difference[{lbl}]k={k}", max_abs(ilt - (lap01 - lap10)), tol)
            report.add(f"half_laplacians_commute[{lbl}]k={k}", max_abs(lap10 @ lap01 - lap01 @ lap10), tol)
        d0m = ctx.middle_operator("factored").matrix
        d1m = ctx.middle_operator("kahler").matrix
        report.add(f"middle_operator_two_forms[{lbl}]", max_abs(d0m - d1m), tol)
    report.checks.sort(key=lambda c: c.name)
    return report


def verify_hodge_block_matrix(asm: Assembly, tol: float = 1e-12) -> VerificationReport:
    """The full-space Laplacian equals its horizontal/vertical block matrix."""
    report = VerificationReport(
        "hodge_block_matrix",
        {"model": asm.model.describe(), "max_weight": asm.max_weight, "tol": tol},
    )

    for ctx in asm.contexts:
        lbl = ctx.block.label
        for k in range(ctx.Dmax + 1):
            full = ctx.laplacian_de_rham(k).matrix
            dim = ctx.full_dim(k)
            approx = np.zeros((dim, dim), dtype=complex)
            eh = ctx.horizontal_space(k).embed
            if eh.shape[1]:
                lt = ctx.compress(
                    ctx.lie_reeb_full(k), ctx.horizontal_space(k), ctx.horizontal_space(k)
                ).matrix
                lam = _horizontal_lefschetz(ctx, k - 2)
                top = ctx.laplacian_b(k).matrix - lt @ lt + lam @ lam.conj().T
                approx += eh @ top @ eh.conj().T
            if k >= 1:
                ev = ctx.lifted_fiber("theta", k - 1) @ ctx.horizontal_space(k - 1).embed
                if ev.shape[1]:
                    lt = ctx.compress(
                        ctx.lie_reeb_full(k - 1), ctx.horizontal_space(k - 1), ctx.horizontal_space(k - 1)
                    ).matrix
                    lef = _horizontal_lefschetz(ctx, k - 1)
                    bot = ctx.laplacian_b(k - 1).matrix - lt @ lt + lef.conj().T @ lef
                    approx += ev @ bot @ ev.conj().T
                if eh.shape[1] and ev.shape[1]:
                    dl = _horizontal_del(ctx, k - 1, False)
                    dlb = _horizontal_del(ctx, k - 1, True)
                    approx += eh @ (1j * dl - 1j * dlb) @ ev.conj().T
                    approx += ev @ (-1j * dl.conj().T + 1j * dlb.conj().T) @ eh.conj().T
            report.add(f"hodge_block_matrix[{lbl}]k={k}", max_abs(full - approx), tol)
    report.checks.sort(key=lambda c: c.name)
    return report


def harmonic_bases(asm: Assembly, operator: str = "de_rham") -> Dict[Tuple[str, int], KernelBasis]:
    """Kernel bases per (block, degree) of the chosen Laplacian."""
    out: Dict[Tuple[str, int], KernelBasis] = {}
    for ctx in asm.contexts:
        for k in range(ctx.Dmax + 1):
            op = ctx.laplacian_de_rham(k) if operator == "de_rham" else ctx.laplacian_rn(k)
            out[(ctx.block.label, k)] = kernel(op)
    return out


def verify_kernel_coincidence(asm: Assembly, angle_tol: float = 1e-8, tol: float = 1e-10) -> VerificationReport:
    """Subspace equality of the two harmonic spaces plus the textbook-step residuals."""
    report = VerificationReport(
        "kernel_coincidence",
        {"model": asm.model.describe(), "max_weight": asm.max_weight, "angle_tol": angle_tol, "tol": tol},
    )
    n = asm.n
    rn_dims = [0] * (asm.model.frame.dim + 1)
    dr_dims = [0] * (asm.model.frame.dim + 1)
    for ctx in asm.contexts:
        lbl = ctx.block.label
        r = ctx.block.multiplicity
        for k in range(ctx.Dmax + 1):
            ker_dr = kernel(ctx.laplacian_de_rham(k))
            ker_rn = kernel(ctx.laplacian_rn(k))
            rn_dims[k] += r * ker_rn.dim
            dr_dims[k] += r * ker_dr.dim
            emb = ctx.rumin_space(k).embed @ ker_rn.vectors
            report.add(
                f"kernel_dims_match[{lbl}]k={k}",
                r * abs(ker_dr.dim - ker_rn.dim),
                0.0,
                f"de_rham={r * ker_dr.dim} rumin={r * ker_rn.dim}",
            )
            report.add(
                f"kernel_subspace_angle[{lbl}]k={k}",
                principal_sines(ker_dr.vectors, emb),
                angle_tol,
            )
            if ker_dr.dim and k <= n:
                phi = emb  # harmonic vectors inside the full space
                db = ctx.db_full(k)
                db_dn = ctx.db_full(k - 1) if k >= 1 else None
                report.add(f"step_db_adjoint[{lbl}]k={k}", max_abs(db_dn.conj().T @ phi) if db_dn is not None else 0.0, tol)
                lam_next = ctx.lifted_fiber("lam", k + 1)
                report.add(f"step_trace_db[{lbl}]k={k}", max_abs(lam_next @ db @ phi), tol)
                lap_b = ctx.laplacian_b(k).matrix
                hcoords = ctx.horizontal_space(k).embed.conj().T @ phi
                report.add(f"step_horizontal_laplacian[{lbl}]k={k}", max_abs(lap_b @ hcoords), tol)
                report.add(f"step_reeb_derivative[{lbl}]k={k}", max_abs(ctx.lie_reeb_full(k) @ phi), tol)
    # rank oracle for the dimensions
    rk = rumin_cohomology_dims(asm)
    dk = de_rham_cohomology_dims(asm)
    for k in asm.degrees:
        report.add(
            f"rank_oracle_rumin_k={k}", abs(rk[k] - rn_dims[k]), 0.0, f"rank={rk[k]} kernel={rn_dims[k]}"
        )
        report.add(
            f"rank_oracle_de_rham_k={k}", abs(dk[k] - dr_dims[k]), 0.0, f"rank={dk[k]} kernel={dr_dims[k]}"
        )
    report.parameters["kernel_dims"] = rn_dims
    report.checks.sort(key=lambda c: c.name)
    return report


def verify_primitivity(asm: Assembly, tol: float = 1e-10) -> VerificationReport:
    """Every harmonic form is primitive in low degree, coprimitive above, J-invariantly."""
    report = VerificationReport(
        "primitivity",
        {"model": asm.model.describe(), "max_weight": asm.max_weight, "tol": tol},
    )
    n = asm.n
    for ctx in asm.contexts:
        lbl = ctx.block.label
        for k in range(ctx.Dmax + 1):
            ker = kernel(ctx.laplacian_de_rham(k))
            if ker.dim == 0:
                continue
            phi = ker.vectors
            if k <= n:
                report.add(f"interior_reeb_vanishes[{lbl}]k={k}", max_abs(ctx.lifted_fiber("iota", k) @ phi), tol)
                report.add(f"trace_vanishes[{lbl}]k={k}", max_abs(ctx.lifted_fiber("lam", k) @ phi), tol)
            if k >= n + 1:
                report.add(f"theta_wedge_vanishes[{lbl}]k={k}", max_abs(ctx.lifted_fiber("theta", k) @ phi), tol)
                report.add(f"lefschetz_vanishes[{lbl}]k={k}", max_abs(ctx.lifted_fiber("lef", k) @ phi), tol)
            jphi = ctx.lifted_fiber("jact", k) @ phi
            lap = ctx.laplacian_de_rham(k).matrix
            report.add(f"j_preserves_harmonics[{lbl}]k={k}", max_abs(lap @ jphi), tol)
            # Frobenius norms over the r copies of the slot carry a factor sqrt(r)
            report.add(
                f"j_is_isometry_on_harmonics[{lbl}]k={k}",
                math.sqrt(ctx.block.multiplicity) * abs(np.linalg.norm(jphi) - np.linalg.norm(phi)),
                tol,
            )
    report.checks.sort(key=lambda c: c.name)
    return report


def verify_deformation_family(asm: Assembly, t_samples=(0.1, 1.0, 10.0), tol: float = 1e-10) -> VerificationReport:
    """Harmonic forms are killed piecewise and exhaust every deformed kernel."""
    if any(t <= 0 for t in t_samples):
        raise ValueError("t samples must be positive")
    report = VerificationReport(
        "deformation_family",
        {"model": asm.model.describe(), "max_weight": asm.max_weight, "t_samples": list(t_samples), "tol": tol},
    )
    for ctx in asm.contexts:
        lbl = ctx.block.label
        r = ctx.block.multiplicity
        for k in range(ctx.Dmax + 1):
            ker = kernel(ctx.laplacian_de_rham(k))
            pieces_up = {
                "d0": ctx.d0_full(k) if k < ctx.Dmax else None,
                "db": ctx.db_full(k) if k < ctx.Dmax else None,
                "dT": ctx.dT_full(k) if k < ctx.Dmax else None,
            }
            pieces_dn = {
                "d0": ctx.d0_full(k - 1) if k > 0 else None,
                "db": ctx.db_full(k - 1) if k > 0 else None,
                "dT": ctx.dT_full(k - 1) if k > 0 else None,
            }
            if ker.dim:
                phi = ker.vectors
                for nm, mat in pieces_up.items():
                    if mat is not None:
                        report.add(f"piecewise_{nm}[{lbl}]k={k}", max_abs(mat @ phi), tol)
                for nm, mat in pieces_dn.items():
                    if mat is not None:
                        report.add(f"piecewise_{nm}_adjoint[{lbl}]k={k}", max_abs(mat.conj().T @ phi), tol)
                for t in t_samples:
                    report.add(
                        f"deformed_kills_harmonic[{lbl}]k={k},t={t}",
                        max_abs(ctx.laplacian_t(k, t).matrix @ phi),
                        tol,
                    )
            inter = joint_kernel([ctx.laplacian_t(k, t).matrix for t in t_samples])
            report.add(
                f"intersection_dim[{lbl}]k={k}",
                r * abs(inter.shape[1] - ker.dim),
                0.0,
                f"intersection={r * inter.shape[1]} harmonic={r * ker.dim}",
            )
    report.checks.sort(key=lambda c: c.name)
    return report


# -- eigenvalue laws -----------------------------------------------------------------


def _image_basis(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :rank]


def _subspace_intersection(bases: Sequence[np.ndarray], tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the intersection of orthonormal column spans."""
    dim = bases[0].shape[0]
    mats = [np.eye(dim, dtype=complex) - b @ b.conj().T for b in bases]
    return joint_kernel(mats, tol)


def verify_eigenvalue_identity(asm: Assembly, tol_rel: float = 1e-9, tol: float = 1e-10) -> VerificationReport:
    """The squared-sum law on the image of the split differentials.

    Checks, per block: every positive eigenvalue below middle degree matches
    (lambda10 + lambda01)^2 of its simultaneous eigenspace; the middle-degree
    positive spectrum over the image of the split differentials is predicted
    by the same law; the normalized image / orthogonal-complement vectors of
    each bi-positive component satisfy the second-order eigenvalue formula;
    the corner maps are bijections; and the restricted operator is positive.
    """
    report = VerificationReport(
        "eigenvalue_identity",
        {"model": asm.model.describe(), "max_weight": asm.max_weight, "tol_rel": tol_rel, "tol": tol},
    )
    n = asm.n
    for ctx in asm.contexts:
        lbl = ctx.block.label
        r = ctx.block.multiplicity
        comps = q_decomposition(ctx, n - 1)
        lap_low = ctx.laplacian_rn(n - 1).matrix
        # law below middle degree: Delta = (l10+l01)^2 on each component
        worst = 0.0
        for cpt in comps:
            lam = (cpt.lambda10 + cpt.lambda01) ** 2
            resid = max_abs(lap_low @ cpt.basis - lam * cpt.basis)
            worst = max(worst, resid / max(1.0, lam))
        report.add(f"law_below_middle[{lbl}]", worst, tol_rel)

        up = ctx.rumin_del(n - 1).matrix
        upb = ctx.rumin_del(n - 1, anti=True).matrix
        lap_mid = ctx.laplacian_rn(n).matrix
        dmid = ctx.middle_operator().matrix
        ilt_mid = 1j * ctx.lie_reeb_rumin(n).matrix
        img = _image_basis(np.hstack([up, upb]))
        if img.shape[1]:
            sub = hermitize(img.conj().T @ lap_mid @ img, 1e-9)
            w = np.linalg.eigh(sub)[0]
            predicted = []
            for cpt in comps:
                lam = (cpt.lambda10 + cpt.lambda01) ** 2
                mult = cpt.dim * int(cpt.lambda10 > tol) + cpt.dim * int(cpt.lambda01 > tol)
                predicted += [lam] * mult
            predicted = np.sort(np.array(predicted))
            if predicted.size != w.size:
                report.add(
                    f"law_middle_multiplicity[{lbl}]",
                    r * abs(predicted.size - w.size),
                    0.0,
                    f"predicted={r * predicted.size} actual={r * w.size}",
                )
            else:
                rel = np.max(np.abs(predicted - w) / np.maximum(1.0, np.abs(predicted)))
                report.add(f"law_middle_values[{lbl}]", float(rel), tol_rel)
            report.add(
                f"restricted_positivity[{lbl}]",
                0.0 if float(np.min(w)) > tol else 1.0,
                0.5,
                f"min_eigenvalue={float(np.min(w)):.6g}",
            )
        # normalized-pair analysis on the bi-positive components
        im_up_star = _image_basis(up.conj().T)
        im_upb_star = _image_basis(upb.conj().T)
        for cpt in comps:
            l10, l01 = cpt.lambda10, cpt.lambda01
            if l10 <= tol or l01 <= tol:
                # one-sided corners: the surviving map is a bijection
                mat, lam_pos = (up, l10) if l10 > tol else (upb, l01)
                if l10 <= tol and l01 <= tol:
                    continue
                block = mat @ cpt.basis
                s = np.linalg.svd(block, compute_uv=False)
                ok = s.size == cpt.dim and s[-1] > tol
                report.add(
                    f"corner_bijective_one_sided[{lbl}]l=({l10:.6g},{l01:.6g})",
                    0.0 if ok else 1.0,
                    0.5,
                    f"rank={r * int(np.sum(s > tol))} dim={r * cpt.dim}",
                )
                continue
            wspace = _subspace_intersection([cpt.basis, im_up_star, im_upb_star])
            report.add(
                f"w_corner_dim[{lbl}]l=({l10:.6g},{l01:.6g})",
                r * abs(wspace.shape[1] - cpt.dim),
                0.0,
                f"w={r * wspace.shape[1]} q={r * cpt.dim}",
            )
            for s_idx in range(wspace.shape[1]):
                psi = wspace[:, s_idx : s_idx + 1]
                dpsi, dbpsi = up @ psi, upb @ psi
                n10, n01 = np.linalg.norm(dpsi), np.linalg.norm(dbpsi)
                psi10, psi01 = dpsi / n10, dbpsi / n01
                vplus = math.sqrt(l10) * psi10 + math.sqrt(l01) * psi01
                vminus = math.sqrt(l01) * psi10 - math.sqrt(l10) * psi01
                lam = (l10 + l01) ** 2
                # second-order formula on the orthogonal complement;
                # lambda_T is the eigenvalue of -i L_T there
                nrm2 = float(np.real((vminus.conj().T @ vminus).item()))
                lam_t = -float(np.real((vminus.conj().T @ ilt_mid @ vminus).item())) / nrm2
                a_const = lam_t - 2 * l10
                b_const = lam_t + 2 * l01
                target = (a_const**2 * l01 + b_const**2 * l10) / (l10 + l01)
                dd = dmid.conj().T @ dmid
                residuals = (
                    ("norm_sq_is_lambda10", abs(n10**2 - l10) / max(1.0, l10)),
                    ("norm_sq_is_lambda01", abs(n01**2 - l01) / max(1.0, l01)),
                    ("image_eigenvalue", max_abs(lap_mid @ vplus - lam * vplus) / max(1.0, lam)),
                    ("complement_eigenvalue", max_abs(lap_mid @ vminus - lam * vminus) / max(1.0, lam)),
                    ("middle_formula", max_abs(dd @ vminus - target * vminus) / max(1.0, abs(target))),
                    (
                        "middle_formula_value",
                        abs(target - (lam_t**2 + 4 * l10 * l01)) / max(1.0, abs(target)),
                    ),
                    ("reeb_tag", abs(lam_t - (l10 - l01)) / max(1.0, abs(lam_t))),
                )
                # {w_i (x) e_j} is an orthonormal basis of W (x) C^r and (A (x) I)(w (x) e_j) = (Aw) (x) e_j: v=i*r+j
                for copy in range(r):
                    for check, resid in residuals:
                        report.add(f"{check}[{lbl}]l=({l10:.6g},{l01:.6g})v={s_idx * r + copy}", resid, tol_rel)
            # corner bijections out of the W corner
            for mat, nm in ((up, "del"), (upb, "delbar")):
                block = mat @ wspace
                s = np.linalg.svd(block, compute_uv=False) if wspace.shape[1] else np.zeros(0)
                ok = s.size == wspace.shape[1] and (s.size == 0 or s[-1] > tol)
                report.add(
                    f"corner_bijective_{nm}[{lbl}]l=({l10:.6g},{l01:.6g})",
                    0.0 if ok else 1.0,
                    0.5,
                    f"rank={r * int(np.sum(s > tol))} dim={r * wspace.shape[1]}",
                )
    report.checks.sort(key=lambda c: c.name)
    return report


def verify_middle_degree(asm: Assembly, tol: float = 1e-10) -> VerificationReport:
    """Second-order identities on the coexact middle subspace.

    On ker of both split codifferentials the Laplacian equals the square of
    the Reeb derivative and of the middle operator; its Reeb eigenspaces carry
    eigenvalue nu^2; and the one-sided components obey the same square law.
    """
    report = VerificationReport(
        "middle_degree",
        {"model": asm.model.describe(), "max_weight": asm.max_weight, "tol": tol},
    )
    n = asm.n
    for ctx in asm.contexts:
        lbl = ctx.block.label
        up = ctx.rumin_del(n - 1).matrix
        upb = ctx.rumin_del(n - 1, anti=True).matrix
        lap_mid = ctx.laplacian_rn(n).matrix
        dmid = ctx.middle_operator().matrix
        lt = ctx.lie_reeb_rumin(n).matrix
        coexact = _null_basis(np.vstack([up.conj().T, upb.conj().T]))
        if coexact.shape[1]:
            dd = dmid.conj().T @ dmid
            r1 = max_abs((lap_mid + lt @ lt) @ coexact)
            r2 = max_abs((dd + lt @ lt) @ coexact)
            r3 = max_abs((lap_mid - dd) @ coexact)
            report.add(f"coexact_reeb_square[{lbl}]", r1, tol)
            report.add(f"coexact_middle_square[{lbl}]", r2, tol)
            report.add(f"coexact_two_routes[{lbl}]", r3, tol)
            # Reeb eigenspace slices carry nu^2
            sub = hermitize(coexact.conj().T @ (1j * lt) @ coexact, 1e-9)
            w, q = np.linalg.eigh(sub)
            worst = 0.0
            for idx in range(w.size):
                nu = -w[idx]
                vec = coexact @ q[:, idx : idx + 1]
                worst = max(worst, max_abs(lap_mid @ vec - nu**2 * vec) / max(1.0, nu**2))
            report.add(f"reeb_slices_square[{lbl}]", worst, tol)
        # one-sided kernels of the half Laplacians inside degrees <= n
        for k in range(0, n):
            comps = q_decomposition(ctx, k)
            lap_k = ctx.laplacian_rn(k).matrix
            ltk = ctx.lie_reeb_rumin(k).matrix
            worst = 0.0
            for cpt in comps:
                if (cpt.lambda10 <= tol) != (cpt.lambda01 <= tol):
                    worst = max(worst, max_abs((lap_k + ltk @ ltk) @ cpt.basis))
            report.add(f"one_sided_reeb_square[{lbl}]k={k}", worst, tol)
        # middle-degree one-sided images
        for anti in (False, True):
            mat = upb if anti else up
            other_lap = ctx.rumin_del_laplacian(n, anti=not anti).matrix
            img = _image_basis(mat)
            if img.shape[1] == 0:
                continue
            ker_other = _null_basis(other_lap)
            sect = _subspace_intersection([img, ker_other]) if ker_other.shape[1] else np.zeros((img.shape[0], 0))
            if sect.shape[1]:
                r = max_abs((lap_mid + lt @ lt) @ sect)
                report.add(f"one_sided_middle_reeb_square[{lbl}]anti={anti}", r, tol)
    report.checks.sort(key=lambda c: c.name)
    return report


def verify_star_symmetry(asm: Assembly, tol: float = 1e-10) -> VerificationReport:
    """The star operator intertwines the Rumin Laplacians of mirror degrees."""
    report = VerificationReport(
        "star_symmetry",
        {"model": asm.model.describe(), "max_weight": asm.max_weight, "tol": tol},
    )
    for ctx in asm.contexts:
        lbl = ctx.block.label
        for k in range(ctx.Dmax + 1):
            star = ctx.rumin_star(k).matrix
            a = ctx.laplacian_rn(k).matrix
            b = ctx.laplacian_rn(ctx.Dmax - k).matrix
            report.add(f"star_intertwines[{lbl}]k={k}", max_abs(star @ a - b @ star), tol)
            report.add(f"star_isometry[{lbl}]k={k}", max_abs(star.conj().T @ star - np.eye(star.shape[1])), tol)
    report.checks.sort(key=lambda c: c.name)
    return report

