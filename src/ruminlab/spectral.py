"""Per-block eigenanalysis and the executable theorem suite.

Operators on a fixed block are exact finite matrices, so a truncated Rumin
spectrum is the exact spectrum below the smallest positive eigenvalue of the
omitted blocks.  That cutoff is known in closed form, m1^2 for the first
omitted weight m1 with a nonempty block, and is reported alongside every
table; it bounds the Rumin spectrum only.  All verifications reduce to
residual norms of matrix identities and to subspace comparisons through
principal angles, with one report entry per named check.

Joint (Delta, i L_T) eigenspaces have one result type, the sector-local
`JointEigenspaces`, and one solver.  i L_T is diagonal with integer entries in
the block basis, so a Laplacian, which commutes with it, is block diagonal over
the Reeb sectors (basis vectors sharing one Reeb eigenvalue).
`_solve_reeb_sectors` diagonalizes the sectors of many operators with one
stacked `eigh` per sector size and clusters Delta per operator.  The Rumin
Laplacian reaches it on one route: `Assembly.rumin_rows(k, tol)`, memoized,
solves the `delta-rn` rows of `sectors.SectorStacks` for every weight at once,
and the Reeb decomposition of `torsion` and the sec4 suite read those rows.
Below the middle degree the sector blocks of the two half Laplacians have
Rayleigh quotients on the sector eigenvectors that give (lambda10, lambda01)
(`sector_half_laplacian_pairs`); `q_decomposition` reads one block's row and
is the one caller that needs a dense basis per component
(`JointEigenspaces.components`).  `_sequential_joint_eigenspaces` cuts dense
(Laplacian, i L_T) pairs with `_reeb_sectors` for the same solver; only the
tests call it, as the dense reference.

Quantities that several suites share (harmonic bases, the split halves of d_b
on horizontal forms) are memoized per block context with `_block_memo`, so
`verify --suite all` builds each of them once per block.

Every suite is a per-block body `check_<suite>(ctx, report, ...)`.
`verify_<suite>(asm)` runs its body over `asm.contexts`, whose memos live as
long as the assembly.  The CLI goes block at a time instead: `Assembly.visit`
yields one context, every selected body runs on it, and its memo is cleared
before the next block, so peak memory is set by the largest block, not by the
sum over blocks; the sec4 bodies get the block's `q_decomposition` from their
driver.  The two statements across blocks read no block context: the rank
oracle (`rumin_cohomology_dims`, `de_rham_cohomology_dims`) and the Reeb
decomposition of `torsion` work on `Assembly.sector_stacks`, built once per
assembly.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import util
from .model import ModelManifold, ParameterError, allowed_weight_slots
from .operators import (
    BlockContext,
    BlockOperator,
    InternalConsistencyError,
    _block_memo,
    _hodge_sum,
    assert_hermitian,
    hermitize,
    max_abs,
    _null_basis,
)

KERNEL_RELATIVE_TOL = 1e-9


# -- assemblies ---------------------------------------------------------------


class Assembly:
    """The nonempty weight blocks of a model up to a weight cutoff: their `weights`, ascending,
    and `multiplicity`, from `model.multiplicity` alone.

    The block contexts, with their dense slot actions, are built on first
    access to `contexts`, which `torsion` never makes.  The assembly owns the
    per-frame fiber tables and shares them with every context and its sector
    stacks.
    """

    def __init__(self, model: ModelManifold, max_weight: int):
        if max_weight < 0:
            raise ParameterError("max_weight must be >= 0")
        self.model = model
        self.max_weight = max_weight
        self._tables: Dict = {}
        self._cache: Dict = {}  # the memo of `rumin_rows`
        counts = [model.multiplicity(m) for m in range(max_weight + 1)]
        self.weights: List[int] = [m for m, r in enumerate(counts) if r]
        self.multiplicity: Tuple[int, ...] = tuple(r for r in counts if r)

    @functools.cached_property
    def contexts(self) -> List[BlockContext]:
        """The block context of every weight in `weights`, built on first access."""
        return [BlockContext(self.model.frame, self.model.block(m), self._tables) for m in self.weights]

    def visit(self) -> Iterator[BlockContext]:
        """The contexts in weight order; each one's block memo is cleared once the caller moves on."""
        for ctx in self.contexts:
            try:
                yield ctx
            finally:
                ctx._cache.clear()

    @property
    def n(self) -> int:
        return self.model.frame.n

    @property
    def degrees(self) -> range:
        return range(self.model.frame.dim + 1)

    def spectral_cutoff(self) -> float:
        """`spectral_cutoff(self.model, self.max_weight)`."""
        return spectral_cutoff(self.model, self.max_weight)

    @functools.cached_property
    def sector_stacks(self):
        """The `sectors.SectorStacks` of every weight of the assembly, on its fiber tables."""
        from .sectors import SectorStacks  # imported on first use, so `import ruminlab.cli` stays cheap

        return SectorStacks(self.model.frame, self.weights, self._tables)

    @_block_memo
    def rumin_rows(self, k: int, tol: float = 1e-9) -> Tuple[Tuple[JointEigenspaces, Optional[tuple]], ...]:
        """Per weight, (joint (Delta, i L_T) eigenspaces, half-Laplacian sector blocks and scale or
        None) of the degree-k Rumin Laplacian: the `delta-rn` rows of `sector_stacks`, solved over
        every weight at once by `sectors.solve_rows`, as `rumin spectrum` solves them."""
        from .sectors import solve_rows

        rows, _ = self.sector_stacks.spectrum_sectors("delta-rn", k)
        return tuple(zip(solve_rows(rows, tol), (halves for _, halves in rows)))


def spectral_cutoff(model: ModelManifold, max_weight: int) -> float:
    """Smallest positive Rumin eigenvalue of the blocks above `max_weight`; the truncated
    spectrum is exact strictly below this value.

    On weight m >= 1 the smallest positive Rumin eigenvalue is m^2 in every
    degree (the end slots of the closed-form spectrum), so the cutoff is m1^2
    for the first omitted weight m1 with a nonempty block.  Once m >= p - 1 the
    slots cover a full residue class, so the search ends within p + 1 steps.
    """
    m = max_weight + 1
    while not allowed_weight_slots(m, model.p, model.character):
        m += 1
    return float(m * m)


# -- spectra -------------------------------------------------------------------


@dataclass(slots=True)  # a table at high weight holds 10^5 or more entries
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


@dataclass(frozen=True)
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


def _scaled_stack(mats: Sequence[np.ndarray]) -> np.ndarray:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    scale = max(1.0, max(max_abs(m) for m in mats))
    return np.vstack(mats) / scale


def joint_kernel(mats: Sequence[np.ndarray], tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the common kernel of several psd matrices."""
    return _null_basis(_scaled_stack(mats), tol)


def joint_kernel_dim(mats: Sequence[np.ndarray], tol: float = 1e-9) -> int:
    """Dimension of `joint_kernel(mats, tol)`, from the singular values alone."""
    stack = _scaled_stack(mats)
    if stack.size == 0:
        return stack.shape[1]
    s = np.linalg.svd(stack, compute_uv=False)
    return stack.shape[1] - int(np.sum(s > tol * max(1.0, s[0])))


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
        return [c for c in self.sorted_checks() if not c.passed]

    def sorted_checks(self) -> List[Check]:
        return sorted(self.checks, key=lambda c: c.name)

    def check_rows(self) -> List[dict]:
        """The serialized checks, ordered by name, as every report prints them."""
        return [
            {
                "name": c.name,
                "passed": c.passed,
                "residual": util.fmt_float(c.residual),
                "tolerance": util.fmt_float(c.tolerance),
                "detail": c.detail,
            }
            for c in self.sorted_checks()
        ]

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "kind": "verification",
                "name": self.name,
                "parameters": self.parameters,
                "passed": self.passed,
                "checks": self.check_rows(),
            },
            sort_keys=True,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "status", "residual", "tolerance", "detail"])
        for row in self.check_rows():
            status = "pass" if row["passed"] else "fail"
            writer.writerow([row["name"], status, row["residual"], row["tolerance"], row["detail"]])
        return buf.getvalue()


# -- simultaneous diagonalization -------------------------------------------------


@dataclass(frozen=True)
class QComponent:
    lambda10: float
    lambda01: float
    basis: np.ndarray  # columns, orthonormal, in Rumin-space coordinates

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass
class ReebSectors:
    """A Hermitian operator cut into the Reeb sectors of its basis, without the dense matrix.

    `tau` is the diagonal of the Reeb operator.  `index[g]` lists the basis
    vectors of every sector of one size s as a (sectors, s) array, in
    ascending tau, with sizes ascending over g; `blocks[g]` holds the
    (sectors, s, s) sector submatrices of the operator.
    """

    tau: np.ndarray
    index: Tuple[np.ndarray, ...]
    blocks: Tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.tau.size


def _reeb_sectors(a: np.ndarray, b: np.ndarray, tol: float) -> ReebSectors:
    """The Reeb sectors of a Hermitian `a` that commutes with the Reeb operator `b` = i L_T.

    `b` must be diagonal in the block basis; a Reeb sector is the set of basis
    vectors sharing one diagonal value tau.
    """
    tau = np.real(np.diag(b)).copy()  # a view of the diagonal would keep the dense `b` alive
    off = max_abs(b - np.diag(np.diag(b)))
    if off > tol:
        raise InternalConsistencyError(f"Reeb operator is not diagonal (off-diagonal {off:.3e})")
    index = ()
    if tau.size:
        by_tau = np.argsort(tau, kind="stable")
        ascending = tau[by_tau]
        starts = np.flatnonzero(np.append(True, ascending[1:] - ascending[:-1] > tol * max(1.0, max_abs(tau))))
        sizes = np.append(starts[1:], tau.size) - starts  # sector i is by_tau[starts[i]:][:sizes[i]]
        index = tuple(by_tau[starts[sizes == s][:, None] + np.arange(s)] for s in sorted(set(sizes.tolist())))
    comm = max_abs(a * (tau[None, :] - tau[:, None]))  # entrywise [a, b]
    if comm > 1e-9 * max(1.0, max_abs(a)):
        raise InternalConsistencyError(f"operator does not commute with the Reeb derivative ({comm:.3e})")
    return ReebSectors(tau, index, tuple(a[idx[:, :, None], idx[:, None, :]] for idx in index))


@dataclass
class JointEigenspaces:
    """Joint (Delta, i L_T) eigenspaces of one `ReebSectors`, kept sector-local.

    `vectors[g]` is the (sectors, s, s) stack of sector eigenvectors of size
    group g.  Their columns, taken group by group, sector by sector, are put
    in component order by `order`; component i is the run of columns
    `bounds[i]:bounds[i + 1]`, with Delta cluster mean `delta[i]` and Reeb
    value `tau[i]`.
    """

    sectors: ReebSectors
    vectors: Tuple[np.ndarray, ...]
    order: np.ndarray
    bounds: Tuple[int, ...]
    delta: Tuple[float, ...]
    tau: Tuple[float, ...]

    @property
    def counts(self) -> List[int]:
        return [hi - lo for lo, hi in zip(self.bounds, self.bounds[1:])]

    def components(self) -> List[tuple]:
        """(Delta, tau, basis) per component, each basis a run of columns of one dense matrix."""
        dim = self.sectors.dim
        vecs = np.zeros((dim, dim), dtype=complex)
        col = 0
        for idx, q in zip(self.sectors.index, self.vectors):
            cols = np.arange(col, col + idx.size).reshape(idx.shape)
            vecs[idx[:, :, None], cols[:, None, :]] = q
            col += idx.size
        vecs = vecs[:, self.order]
        return [(d, t, vecs[:, lo:hi]) for d, t, lo, hi in zip(self.delta, self.tau, self.bounds, self.bounds[1:])]

    def columns(self, stacks: Sequence[np.ndarray], fill=0) -> np.ndarray:
        """Per-group (sectors, s, s) stacks whose columns follow the eigenvectors, as one
        (s_max, dim) array in component order; shorter sectors are padded with `fill`."""
        width = max((idx.shape[1] for idx in self.sectors.index), default=0)
        out = np.full((width, self.sectors.dim), fill, dtype=np.result_type(fill, *stacks))
        col = 0
        for stack in stacks:
            sectors, size, _ = stack.shape
            out[:size, col : col + sectors * size] = stack.transpose(1, 0, 2).reshape(size, -1)
            col += sectors * size
        return out[:, self.order]

    def basis_index(self) -> np.ndarray:
        """`columns` of the basis-vector index of every eigenvector entry, -1 as padding."""
        return self.columns([np.repeat(idx[:, :, None], idx.shape[1], axis=2) for idx in self.sectors.index], -1)


def _solve_reeb_sectors(sectors: Sequence[ReebSectors], tol: float) -> List[JointEigenspaces]:
    """Joint eigenspaces of every operator in `sectors`, from one stacked `eigh` per sector size.

    Each sector is diagonalized on its own, so the eigenpairs of one operator
    do not depend on the others in the stack.  Delta is clustered per
    operator; the cluster mean is taken over all of its sectors.
    """
    groups: Dict[int, list] = {}  # sector size -> (operator, size group) of every stack of that size
    for i, sec in enumerate(sectors):
        for g, idx in enumerate(sec.index):
            groups.setdefault(idx.shape[1], []).append((i, g))
    solved = [[None] * len(sec.index) for sec in sectors]  # per operator and size group: (w, q)
    for parts in groups.values():
        stacks = [sectors[i].blocks[g] for i, g in parts]
        w, q = np.linalg.eigh(stacks[0] if len(stacks) == 1 else np.concatenate(stacks))
        lo = 0
        for (i, g), stack in zip(parts, stacks):
            solved[i][g] = (w[lo : lo + len(stack)], q[lo : lo + len(stack)])
            lo += len(stack)
    return [_cluster_joint(sec, pairs, tol) for sec, pairs in zip(sectors, solved)]


def _cluster_joint(sectors: ReebSectors, solved: Sequence[tuple], tol: float) -> JointEigenspaces:
    """Components of one operator from its per-group sector eigenpairs, ordered by Delta
    cluster, then by tau."""
    dim = sectors.dim
    # column c is an eigenvector of one sector, with eigenvalue vals[c]
    vals, taus = np.empty(dim), np.empty(dim)
    col = 0
    for idx, (w, _) in zip(sectors.index, solved):
        vals[col : col + idx.size] = w.ravel()
        taus[col : col + idx.size] = np.repeat(sectors.tau[idx].sum(axis=1) / idx.shape[1], idx.shape[1])  # sector mean
        col += idx.size
    by_val = np.argsort(vals, kind="stable")
    clusters = util.cluster_values(vals[by_val], tol * max(1.0, max_abs(vals)))
    cluster = np.empty(dim, dtype=int)
    cluster[by_val] = np.repeat(np.arange(len(clusters)), [count for _, count in clusters])
    # one component per (Delta cluster, sector) pair, as a run of columns
    order = np.lexsort((taus, cluster))
    c, t = cluster[order], taus[order]
    bounds = (0, *(np.flatnonzero((c[1:] != c[:-1]) | (t[1:] != t[:-1])) + 1).tolist(), dim) if dim else (0,)
    return JointEigenspaces(
        sectors,
        tuple(q for _, q in solved),
        order,
        bounds,
        tuple(float(clusters[c[lo]][0]) for lo in bounds[:-1]),
        tuple(float(t[lo]) for lo in bounds[:-1]),
    )


def _sequential_joint_eigenspaces(
    pairs: Sequence[Tuple[np.ndarray, np.ndarray]], tol: float
) -> List[JointEigenspaces]:
    """Joint eigenspaces of many pairs of a Hermitian `a` and the Reeb operator `b` = i L_T.

    `b` is diagonal in the block basis, and `a` commutes with it, so `a` is
    block diagonal over the Reeb sectors and is diagonalized sector by sector;
    the sectors of every pair share one stacked `eigh` per sector size.
    Returns, per pair, its components ordered by Delta cluster (Delta is the
    cluster mean over the pair's sectors), then by tau.
    """
    return _solve_reeb_sectors([_reeb_sectors(a, b, tol) for a, b in pairs], tol)


def sector_half_laplacian_pairs(joint: JointEigenspaces, halves, tol: float = 1e-9):
    """(lambda10, lambda01) on each component of `joint`, a joint (Delta, i L_T) eigenspace
    below the middle degree, from the half-Laplacian sector blocks and scale `halves` of the
    same operator (a row of `SectorStacks.spectrum_sectors`).

    Each half Laplacian must act on a component as its Rayleigh quotient; there
    sqrt(Delta) and i L_T are the sum and difference of the two half Laplacians.
    """
    blocks, scale = halves
    vectors, counts = joint.columns(joint.vectors), joint.counts
    starts = np.cumsum([0] + counts[:-1])
    pairs = []
    for half in blocks:
        image = joint.columns([m @ q for m, q in zip(half, joint.vectors)])
        ray = np.add.reduceat(np.real(np.sum(vectors.conj() * image, axis=0)), starts) / counts
        if max_abs(image - vectors * np.repeat(ray, counts)) > 10 * tol * scale:
            raise InternalConsistencyError("half Laplacians are not scalar on a joint eigenspace")
        pairs.append(ray)
    return [(util.round_sig(max(l10, 0.0)), util.round_sig(max(l01, 0.0))) for l10, l01 in zip(*pairs)]


def q_decomposition(asm: Assembly, weight: int, k: int, tol: float = 1e-9) -> Tuple[QComponent, ...]:
    """Simultaneous eigenspaces of the two half Laplacians on the degree-k Rumin space of the
    weight block, from its row of `asm.rumin_rows(k, tol)`: the joint (Delta, i L_T)
    components in their order, each with its (lambda10, lambda01) and a dense basis in the
    block's Rumin-space coordinates."""
    if k > asm.n - 1:
        raise ValueError("the simultaneous decomposition is defined below middle degree")
    joint, halves = asm.rumin_rows(k, tol)[asm.weights.index(weight)]
    pairs = sector_half_laplacian_pairs(joint, halves, tol)
    return tuple(QComponent(l10, l01, basis) for (l10, l01), (_, _, basis) in zip(pairs, joint.components()))


def low_degree_components(asm: Assembly, ctx: BlockContext) -> List[Tuple[QComponent, ...]]:
    """`q_decomposition` of the block of `ctx` in every degree below the middle, the components
    that `check_eigenvalue_identity` and `check_middle_degree` read."""
    return [q_decomposition(asm, ctx.block.weight, k) for k in range(ctx.n)]


# -- cohomology rank oracles ----------------------------------------------------


def rumin_cohomology_dims(asm: Assembly) -> List[int]:
    """dim H^k from the ranks of the Rumin differentials on the Reeb sectors (independent oracle)."""
    return list(asm.sector_stacks.cohomology_dims("rumin", asm.multiplicity))


def de_rham_cohomology_dims(asm: Assembly) -> List[int]:
    return list(asm.sector_stacks.cohomology_dims("de_rham", asm.multiplicity))


# -- verification drivers ----------------------------------------------------------


def _over_contexts(asm: Assembly, name: str, params: dict, check, *args) -> VerificationReport:
    """Report `name` of `check(ctx, report, *args)` run on every context of `asm`."""
    report = VerificationReport(name, {"model": asm.model.describe(), "max_weight": asm.max_weight, **params})
    for ctx in asm.contexts:
        check(ctx, report, *args)
    return report


def verify_complex_property(
    asm: Assembly, t_samples=(0.0, 0.37, 1.0, 2.0), tol: float = 1e-12
) -> VerificationReport:
    """d^2 = 0 for the de Rham, rescaled Rumin and deformed differentials."""
    params = {"tol": tol, "t_samples": list(t_samples)}
    return _over_contexts(asm, "complex_property", params, check_complex_property, t_samples, tol)


def check_complex_property(
    ctx: BlockContext, report: VerificationReport, t_samples=(0.0, 0.37, 1.0, 2.0), tol: float = 1e-12
):
    """The checks of `verify_complex_property` on one block, added to `report`."""
    lbl = ctx.block.label
    for k in range(ctx.Dmax):
        report.add(f"d.d[{lbl}]k={k}", max_abs(ctx.d_full(k + 1) @ ctx.d_full(k)), tol)
        up = ctx.rumin_d(k + 1).matrix if k + 1 < ctx.Dmax else None
        dn = ctx.rumin_d(k).matrix
        if up is not None:
            report.add(f"dN.dN[{lbl}]k={k}", max_abs(up @ dn), tol)
    for t in t_samples:
        # each d_t is a left and a right factor: build it once, drop it before the next t
        dt = [ctx.dt_full(j, t) for j in range(ctx.Dmax + 1)]
        for k in range(ctx.Dmax):
            report.add(f"dt.dt[{lbl}]k={k},t={t}", max_abs(dt[k + 1] @ dt[k]), tol)
        del dt


def _hdim(ctx: BlockContext, d: int) -> int:
    if d < 0 or d > ctx.Dmax:
        return 0
    return ctx.horizontal_space(d).dim


@_block_memo
def _horizontal_del(ctx: BlockContext, k: int, anti: bool) -> np.ndarray:
    """Split half of d_b as a map of horizontal spaces; zero out of range."""
    if k < 0 or k > 2 * ctx.n - 1:
        return np.zeros((_hdim(ctx, k + 1), _hdim(ctx, k)), dtype=complex)
    src, tgt = ctx.horizontal_space(k), ctx.horizontal_space(k + 1)
    return ctx.compress(ctx.del_full(k, anti=anti), src, tgt).matrix


@_block_memo
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
    return _over_contexts(asm, "sasakian_identities", {"tol": tol}, check_sasakian_identities, tol)


def check_sasakian_identities(ctx: BlockContext, report: VerificationReport, tol: float = 1e-11):
    """The checks of `verify_sasakian_identities` on one block, added to `report`."""
    n = ctx.n
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
        root = ctx.sqrt_laplacian_rn(k)
        report.add(f"sqrt_splits[{lbl}]k={k}", max_abs(root - lap10 - lap01), tol)
        ilt = 1j * ctx.lie_reeb_rumin(k).matrix
        report.add(f"reeb_is_half_difference[{lbl}]k={k}", max_abs(ilt - (lap01 - lap10)), tol)
        report.add(f"half_laplacians_commute[{lbl}]k={k}", max_abs(lap10 @ lap01 - lap01 @ lap10), tol)
    d0m = ctx.middle_operator("factored").matrix
    d1m = ctx.middle_operator("kahler").matrix
    report.add(f"middle_operator_two_forms[{lbl}]", max_abs(d0m - d1m), tol)


def verify_hodge_block_matrix(asm: Assembly, tol: float = 1e-12) -> VerificationReport:
    """The full-space Laplacian equals its horizontal/vertical block matrix."""
    return _over_contexts(asm, "hodge_block_matrix", {"tol": tol}, check_hodge_block_matrix, tol)


def check_hodge_block_matrix(ctx: BlockContext, report: VerificationReport, tol: float = 1e-12):
    """The checks of `verify_hodge_block_matrix` on one block, added to `report`."""
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


@_block_memo
def _harmonic_basis(ctx: BlockContext, k: int, operator: str) -> KernelBasis:
    """Kernel basis of the degree-k "de_rham" or "rumin" Laplacian."""
    return kernel(ctx.laplacian_de_rham(k) if operator == "de_rham" else ctx.laplacian_rn(k))


def harmonic_bases(asm: Assembly, operator: str = "de_rham") -> Dict[Tuple[str, int], KernelBasis]:
    """Kernel bases per (block, degree) of the chosen Laplacian, "de_rham" or "rumin"."""
    if operator not in ("de_rham", "rumin"):
        raise ValueError(f"unknown operator {operator!r}; choose de_rham or rumin")
    return {
        (ctx.block.label, k): _harmonic_basis(ctx, k, operator)
        for ctx in asm.contexts
        for k in range(ctx.Dmax + 1)
    }


def verify_kernel_coincidence(asm: Assembly, angle_tol: float = 1e-8, tol: float = 1e-10) -> VerificationReport:
    """Subspace equality of the two harmonic spaces plus the textbook-step residuals."""
    dims = Counter()
    params = {"angle_tol": angle_tol, "tol": tol}
    report = _over_contexts(asm, "kernel_coincidence", params, check_kernel_coincidence, dims, angle_tol, tol)
    rank_oracle_checks(report, dims, asm)
    report.parameters["kernel_dims"] = [dims["kernel", "rumin", k] for k in asm.degrees]
    return report


def check_kernel_coincidence(
    ctx: BlockContext, report: VerificationReport, dims: Counter, angle_tol: float = 1e-8, tol: float = 1e-10
):
    """The per-block checks of `verify_kernel_coincidence`, added to `report`.

    Adds the block's share r * dim of the harmonic kernel dimensions to
    `dims["kernel", complex, k]`, for `rank_oracle_checks` to compare with the
    rank oracle once every block is counted.
    """
    n = ctx.n
    lbl = ctx.block.label
    r = ctx.block.multiplicity
    for k in range(ctx.Dmax + 1):
        ker_dr = _harmonic_basis(ctx, k, "de_rham")
        ker_rn = _harmonic_basis(ctx, k, "rumin")
        dims["kernel", "rumin", k] += r * ker_rn.dim
        dims["kernel", "de_rham", k] += r * ker_dr.dim
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


def rank_oracle_checks(report: VerificationReport, dims: Counter, asm: Assembly):
    """Per degree, dim H^k from the rank oracle against the harmonic kernel dimension in `dims`,
    summed over the blocks of `asm`."""
    oracle = {"rumin": rumin_cohomology_dims(asm), "de_rham": de_rham_cohomology_dims(asm)}
    for k in asm.degrees:
        for complex_name in ("rumin", "de_rham"):
            rank, kernel_dim = oracle[complex_name][k], dims["kernel", complex_name, k]
            report.add(
                f"rank_oracle_{complex_name}_k={k}", abs(rank - kernel_dim), 0.0, f"rank={rank} kernel={kernel_dim}"
            )


def verify_primitivity(asm: Assembly, tol: float = 1e-10) -> VerificationReport:
    """Every harmonic form is primitive in low degree, coprimitive above, J-invariantly."""
    return _over_contexts(asm, "primitivity", {"tol": tol}, check_primitivity, tol)


def check_primitivity(ctx: BlockContext, report: VerificationReport, tol: float = 1e-10):
    """The checks of `verify_primitivity` on one block, added to `report`."""
    n = ctx.n
    lbl = ctx.block.label
    for k in range(ctx.Dmax + 1):
        ker = _harmonic_basis(ctx, k, "de_rham")
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


def verify_deformation_family(asm: Assembly, t_samples=(0.1, 1.0, 10.0), tol: float = 1e-10) -> VerificationReport:
    """Harmonic forms are killed piecewise and exhaust every deformed kernel."""
    if any(t <= 0 for t in t_samples):
        raise ValueError("t samples must be positive")
    params = {"t_samples": list(t_samples), "tol": tol}
    return _over_contexts(asm, "deformation_family", params, check_deformation_family, t_samples, tol)


def check_deformation_family(
    ctx: BlockContext, report: VerificationReport, t_samples=(0.1, 1.0, 10.0), tol: float = 1e-10
):
    """The checks of `verify_deformation_family` on one block, added to `report`; every t must be positive."""
    lbl = ctx.block.label
    r = ctx.block.multiplicity
    # d_t(j) is a factor of degrees j and j+1, so build it once per block; None pads out of range
    dts = [[None, *(ctx.dt_full(j, t) for j in range(ctx.Dmax)), None] for t in t_samples]
    for k in range(ctx.Dmax + 1):
        ker = _harmonic_basis(ctx, k, "de_rham")
        laps = [_hodge_sum(ctx.space(k, "full"), dt[k + 1], dt[k], "deformed Laplacian").matrix for dt in dts]
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
            for t, lap in zip(t_samples, laps):
                report.add(f"deformed_kills_harmonic[{lbl}]k={k},t={t}", max_abs(lap @ phi), tol)
        inter = joint_kernel_dim(laps)
        report.add(
            f"intersection_dim[{lbl}]k={k}",
            r * abs(inter - ker.dim),
            0.0,
            f"intersection={r * inter} harmonic={r * ker.dim}",
        )


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
    The per-vector checks of the W corner W (x) C^r have one entry `...v={i}`
    per slot vector of W, with detail `multiplicity={r}`.
    """
    check = lambda ctx, report: check_eigenvalue_identity(ctx, report, low_degree_components(asm, ctx), tol_rel, tol)
    return _over_contexts(asm, "eigenvalue_identity", {"tol_rel": tol_rel, "tol": tol}, check)


def check_eigenvalue_identity(
    ctx: BlockContext, report: VerificationReport, components: Sequence, tol_rel: float = 1e-9, tol: float = 1e-10
):
    """The checks of `verify_eigenvalue_identity` on one block, added to `report`; `components`
    is the block's `low_degree_components`."""
    n = ctx.n
    lbl = ctx.block.label
    r = ctx.block.multiplicity
    comps = components[n - 1]
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
    dd = dmid.conj().T @ dmid
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
            # (A (x) I)(w (x) e_j) = (Aw) (x) e_j: each slot vector w stands for its r copies in W (x) C^r
            for check, resid in residuals:
                report.add(f"{check}[{lbl}]l=({l10:.6g},{l01:.6g})v={s_idx}", resid, tol_rel, f"multiplicity={r}")
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


def verify_middle_degree(asm: Assembly, tol: float = 1e-10) -> VerificationReport:
    """Second-order identities on the coexact middle subspace.

    On ker of both split codifferentials the Laplacian equals the square of
    the Reeb derivative and of the middle operator; its Reeb eigenspaces carry
    eigenvalue nu^2; and the one-sided components obey the same square law.
    """
    check = lambda ctx, report: check_middle_degree(ctx, report, low_degree_components(asm, ctx), tol)
    return _over_contexts(asm, "middle_degree", {"tol": tol}, check)


def check_middle_degree(ctx: BlockContext, report: VerificationReport, components: Sequence, tol: float = 1e-10):
    """The checks of `verify_middle_degree` on one block, added to `report`; `components` is the
    block's `low_degree_components`."""
    n = ctx.n
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
    for k, comps in enumerate(components):
        lap_k = ctx.laplacian_rn(k).matrix
        ltk = ctx.lie_reeb_rumin(k).matrix
        worst = 0.0
        for cpt in comps:
            if (cpt.lambda10 <= tol) != (cpt.lambda01 <= tol):
                worst = max(worst, max_abs((lap_k + ltk @ ltk) @ cpt.basis))
        report.add(f"one_sided_laplacian_reeb_square[{lbl}]k={k}", worst, tol)
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


def verify_star_symmetry(asm: Assembly, tol: float = 1e-10) -> VerificationReport:
    """The star operator intertwines the Rumin Laplacians of mirror degrees."""
    return _over_contexts(asm, "star_symmetry", {"tol": tol}, check_star_symmetry, tol)


def check_star_symmetry(ctx: BlockContext, report: VerificationReport, tol: float = 1e-10):
    """The checks of `verify_star_symmetry` on one block, added to `report`."""
    lbl = ctx.block.label
    for k in range(ctx.Dmax + 1):
        star = ctx.rumin_star(k).matrix
        a = ctx.laplacian_rn(k).matrix
        b = ctx.laplacian_rn(ctx.Dmax - k).matrix
        report.add(f"star_intertwines[{lbl}]k={k}", max_abs(star @ a - b @ star), tol)
        report.add(f"star_isometry[{lbl}]k={k}", max_abs(star.conj().T @ star - np.eye(star.shape[1])), tol)
