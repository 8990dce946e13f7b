"""Per-block eigenanalysis and the executable theorem suite.

Operators on a fixed block are exact finite matrices, so a truncated Rumin
spectrum is the exact spectrum below the smallest positive eigenvalue of the
omitted blocks.  That cutoff is known in closed form, m1^2 for the first
omitted weight m1 with a nonempty block, and is reported alongside every
table; it bounds the Rumin spectrum only.  All verifications reduce to
residual norms of matrix identities and to subspace comparisons through
principal angles, with one report entry per named check.

Joint (Delta, i L_T) eigenspaces have one solver and one result type,
`rows.JointRows`: one degree over every row at once, held as columns.  i
L_T is diagonal with integer entries in the block basis, so a Laplacian, which
commutes with it, is block diagonal over the Reeb sectors (basis vectors
sharing one Reeb eigenvalue).  Every route lays the sectors out as one
zero-padded stack, a `sectors.RowStack`, and `rows.solve_rows` diagonalizes
the sectors of every row with one stacked `eigh` per sector size and clusters
Delta on every row in one pass.  The Rumin Laplacian reaches it on one route:
`Assembly.rumin_rows(k)`, memoized by degree alone, solves the `delta-rn` rows
of `sectors.SectorStacks` for every weight at once, the one solve of degree
k <= n in a run, which `torsion` and the thm1 and sec4 suites read.  The
half-Laplacian pair below the middle degree (`SectorStacks.half_laplacians`)
is not part of it; its Rayleigh quotients on the sector eigenvectors give
(lambda10, lambda01) (`JointRows.half_pairs`).  `q_decomposition` reads the
dense basis of one row's components (`JointRows.components(row)`), and
`_sequential_joint_eigenspaces` cuts dense (Laplacian, i L_T) pairs with
`_reeb_sectors` into the same padded layout for the same solver, one row per
pair; only the tests call it, as the dense reference.

Every suite `verify_<suite>(asm)` runs its body `suites.check_<suite>(asm,
report, ...)` on `Assembly.sector_stacks`, the operators of every weight on its
Reeb sectors at once; `cli.run_suite` calls the same `verify_*` functions, whose
`tol` defaults (the eigenvalue law's `tol_rel`) state each suite's residual
bound, which `--tol` overrides, and whose fixed bounds are the constants below
(`ANGLE_TOL`, `LAW_ZERO_TOL`, `COMPLEX_T_SAMPLES`, `KERNEL_RELATIVE_TOL`).  So
the library and the command line share one route, and the quantities that
several suites read are memoized with the assembly or its stacks.  No suite
builds a block context.  The rank oracle (`rumin_cohomology_dims`,
`de_rham_cohomology_dims`) reads the singular values of the same stacks.  The
dense block contexts (`Assembly.contexts`) serve `harmonic_bases` and the
tests, whose dense per-block suite bodies (`tests/dense_reference.py`) are the
reference for the sector route.

A `VerificationReport` holds its checks as four parallel columns, `names`,
`residuals`, `tolerances` and `details`, appended family by family: a suite
adds the checks of one family (one name pattern over every weight or
component) with one `add_family` call, with a residual array and one
tolerance.  `passed` is one comparison over the columns, and `failed()` lists
the positions of the failed checks, in name order.

Every report is written by `util.write_rows`, the one row writer.  A report
names its row order and its fields, each a column and the kind of cell it
becomes (`_SPECTRUM_CELLS`; a check's derived `passed` or `status`): a
`SpectrumTable` by degree, block label and eigenvalue, a `VerificationReport`
by check name (stable, so equal names keep their insertion order).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import util
from .model import ModelManifold, ParameterError
from .operators import (
    BlockContext,
    BlockOperator,
    InternalConsistencyError,
    _block_memo,
    assert_hermitian,
    hermitize,
    max_abs,
    _null_basis,
)

KERNEL_RELATIVE_TOL = 1e-9  # a Laplacian eigenvalue is zero within this share of the weight's largest
ANGLE_TOL = 1e-8  # thm1: largest principal-angle sine between the two harmonic spaces
LAW_ZERO_TOL = 1e-10  # sec4 eigenvalue law: a half-Laplacian value or image norm is zero at most this
COMPLEX_T_SAMPLES = (0.0, 0.37, 1.0, 2.0)  # the deformation parameters t of the d_t.d_t checks


# -- assemblies ---------------------------------------------------------------


class Assembly:
    """The nonempty weight blocks of a model up to a weight cutoff: their `weights`, ascending,
    and `multiplicity`, from `model.multiplicity` alone.

    The block contexts, with their dense slot actions, are built on first
    access to `contexts`, which `verify`, `torsion` and `spectrum` never make.
    The contexts and the sector stacks read the fiber tables of the model's
    frame, which live for the whole process (`operators.frame_tables`); the
    assembly keeps only what depends on its weights.
    """

    def __init__(self, model: ModelManifold, max_weight: int):
        if max_weight < 0:
            raise ParameterError("max_weight must be >= 0")
        self.model = model
        self.max_weight = max_weight
        self._cache: Dict = {}  # the memo of `rumin_rows` and of the suite quantities that read it
        counts = [model.multiplicity(m) for m in range(max_weight + 1)]
        self.weights: List[int] = [m for m, r in enumerate(counts) if r]
        self.multiplicity: Tuple[int, ...] = tuple(r for r in counts if r)

    @functools.cached_property
    def contexts(self) -> List[BlockContext]:
        """The block context of every weight in `weights`, built on first access."""
        return [BlockContext(self.model.frame, self.model.block(m)) for m in self.weights]

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
        """The `sectors.SectorStacks` of every weight of the assembly."""
        from .sectors import SectorStacks  # imported on first use, so `import ruminlab.cli` stays cheap

        return SectorStacks(self.model.frame, self.weights)

    @_block_memo
    def rumin_rows(self, k: int):
        """The joint (Delta, i L_T) eigenspaces of the degree-k Rumin Laplacian on every weight, a
        `rows.JointRows` with one row per weight: the `delta-rn` rows of `sector_stacks`, solved
        over every weight at once by `rows.solve_rows`, as `spectrum` solves them; memoized by k."""
        from .rows import solve_rows

        return solve_rows(self.sector_stacks.spectrum_rows("delta-rn", k))


def spectral_cutoff(model: ModelManifold, max_weight: int) -> float:
    """Smallest positive Rumin eigenvalue of the blocks above `max_weight`; the truncated
    spectrum is exact strictly below this value.

    On weight m >= 1 the smallest positive Rumin eigenvalue is m^2 in every
    degree (the end slots of the closed-form spectrum), so the cutoff is m1^2
    for the first omitted weight m1 with a nonempty block.  Weight m has a slot
    (v = 2k - m of `model.allowed_weight_slots`) exactly when some v = l (mod p)
    of the parity of m has |v| <= m; the least such |v| per parity gives m1.
    """
    p, a = model.p, model.character % model.p
    # the least |v| of each parity of v = a + j p: for odd p, odd j gives the parity other than a's
    thresholds = (min(a, 2 * p - a), p - a) if p % 2 else (min(a, p - a),)
    m1 = min(b + (b - t) % 2 for t in thresholds for b in [max(max_weight + 1, t)])
    return float(m1 * m1)


# -- spectra -------------------------------------------------------------------


SPECTRUM_FIELDS = ("degree", "block", "eigenvalue", "multiplicity", "nu", "lambda10", "lambda01", "bidegree")
_SPECTRUM_TYPES = (int, str, float, int, float, float, float, object)
_SPECTRUM_CELLS = ("raw", "label", "optional", "raw", "optional", "optional", "optional", "label")  # `util._cells`


def entry_columns() -> Dict[str, np.ndarray]:
    """The empty columns of a `SpectrumTable`: NaN in `nu`, `lambda10` and `lambda01` stands for
    None, and `bidegree` holds str or None."""
    return {name: np.array([], dtype=kind) for name, kind in zip(SPECTRUM_FIELDS, _SPECTRUM_TYPES)}


@dataclass
class SpectrumTable:
    """A spectrum table, held as numpy columns (`SPECTRUM_FIELDS`, see `entry_columns`).

    The rows are written ordered by degree, block label as text, eigenvalue
    and multiplicity; ties keep the order in which the rows were added.
    """

    operator: str
    model: dict
    max_weight: int
    cutoff: Optional[float] = None
    columns: Dict[str, np.ndarray] = field(default_factory=entry_columns)

    def _rows(self, doc: Optional[dict] = None) -> Iterator[str]:
        """The text of the rows in parts, `util.write_rows` of the columns: JSON as `doc["entries"]`,
        or CSV without `doc`, which leaves out `bidegree`, the last field."""
        c = self.columns
        order = np.lexsort((c["multiplicity"], c["eigenvalue"], c["block"], c["degree"]))
        fields = [(name, kind, c[name]) for name, kind in zip(SPECTRUM_FIELDS, _SPECTRUM_CELLS)]
        yield from util.write_rows(order, fields[:-1] if doc is None else fields, doc, "entries")

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "kind": "spectrum",
            "operator": self.operator,
            "model": self.model,
            "max_weight": self.max_weight,
            "cutoff": None if self.cutoff is None else util.fmt_float(self.cutoff),
        }
        return "".join(self._rows(doc))

    def to_csv(self) -> str:
        return "".join(self._rows())


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
class VerificationReport:
    """Named checks as parallel columns in the order they were added (see the module notes).  A
    check passes when its residual is at most its tolerance, so a NaN residual fails."""

    name: str
    parameters: dict = field(default_factory=dict)
    names: List[str] = field(default_factory=list)
    residuals: List[float] = field(default_factory=list)
    tolerances: List[float] = field(default_factory=list)
    details: List[str] = field(default_factory=list)

    def add(self, name: str, residual: float, tolerance: float, detail: str = ""):
        self.add_family([name], [residual], tolerance, [detail])

    def add_family(self, names: List[str], residuals, tolerance: float, details: Optional[List[str]] = None):
        """One check per name, in order, with the residuals given (an array or a list of
        numbers), one tolerance, and one detail per check (empty when `details` is None)."""
        residuals = np.asarray(residuals, dtype=float).tolist()
        if len(residuals) != len(names) or not (details is None or len(details) == len(names)):
            raise ValueError("a check family needs one residual and one detail per name")
        self.names += names
        self.residuals += residuals
        self.tolerances += [float(tolerance)] * len(names)
        self.details += [""] * len(names) if details is None else details

    def extend(self, other: "VerificationReport"):
        for column in ("names", "residuals", "tolerances", "details"):
            getattr(self, column).extend(getattr(other, column))

    @property
    def passed(self) -> bool:
        return all(map(float.__le__, self.residuals, self.tolerances))

    def failed(self) -> List[int]:
        """The positions of the failed checks in the columns, ordered by name."""
        ok = map(float.__le__, self.residuals, self.tolerances)
        return sorted([i for i, good in enumerate(ok) if not good], key=self.names.__getitem__)

    def _rows(self, doc: Optional[dict] = None) -> Iterator[str]:
        """The text of the checks in parts, `util.write_rows` of the columns ordered by name (stable,
        so equal names keep their insertion order): the CSV rows {check, status, residual,
        tolerance, detail}, or with `doc` the JSON rows {name, passed, residual, tolerance,
        detail} as `doc["checks"]`."""
        order = np.array(sorted(range(len(self.names)), key=self.names.__getitem__), dtype=np.intp)
        residuals, tolerances = np.array(self.residuals, dtype=float), np.array(self.tolerances, dtype=float)
        passed = residuals <= tolerances
        names, details = np.array(self.names, dtype=object), np.array(self.details, dtype=object)
        fields = [("residual", "float", residuals), ("tolerance", "float", tolerances), ("detail", "label", details)]
        if doc is None:
            fields = [("check", "text", names), ("status", "raw", np.where(passed, "pass", "fail")), *fields]
        else:
            fields += [("name", "text", names), ("passed", "raw", np.where(passed, "true", "false"))]
        yield from util.write_rows(order, fields, doc, "checks")

    def dumps_with_checks(self, doc: dict) -> str:
        """`json.dumps(doc, sort_keys=True)` with these checks as `doc["checks"]`, one row
        {name, passed, residual, tolerance, detail} per check, ordered by name."""
        return "".join(self._rows(doc))

    def to_json(self) -> str:
        doc = {"schema": 1, "kind": "verification", "name": self.name, "parameters": self.parameters}
        return self.dumps_with_checks({**doc, "passed": self.passed})

    def to_csv(self) -> str:
        return "".join(self._rows())


# -- simultaneous diagonalization -------------------------------------------------


@dataclass(frozen=True)
class QComponent:
    lambda10: float
    lambda01: float
    basis: np.ndarray  # columns, orthonormal, in Rumin-space coordinates

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _reeb_sectors(pairs: Sequence[Tuple[np.ndarray, np.ndarray]], tol: float):
    """Hermitian operators `a` that commute with the Reeb operator `b` = i L_T, one row per pair
    (a, b), cut into their Reeb sectors: a `sectors.RowStack`.

    `b` must be diagonal in the block basis; a Reeb sector is a set of basis
    vectors sharing one diagonal value tau (within tol), and its tau is their
    mean.  The sectors of a row run by ascending tau, and the positions of a
    sector by tau, then by basis index.
    """
    from .sectors import RowStack

    sectors, dims = [], []  # (row, a, tau, basis positions) of every sector, by row, then ascending tau
    for row, (a, b) in enumerate(pairs):
        tau = np.real(np.diag(b))
        off = max_abs(b - np.diag(np.diag(b)))
        if off > tol:
            raise InternalConsistencyError(f"Reeb operator is not diagonal (off-diagonal {off:.3e})")
        by_tau = np.argsort(tau, kind="stable")
        steps = np.flatnonzero(np.diff(tau[by_tau]) > tol * max(1.0, max_abs(tau))) + 1
        comm = max_abs(a * (tau[None, :] - tau[:, None]))  # entrywise [a, b]
        if comm > 1e-9 * max(1.0, max_abs(a)):
            raise InternalConsistencyError(f"operator does not commute with the Reeb derivative ({comm:.3e})")
        sectors += [(row, a, tau, idx) for idx in np.split(by_tau, steps) if idx.size]
        dims.append(tau.size)
    f = max((idx.size for *_, idx in sectors), default=0)
    stack = np.zeros((f, f, len(sectors)), dtype=complex)
    owner, means = np.zeros(len(sectors), dtype=int), np.zeros(len(sectors))
    valid, index = np.zeros((f, len(sectors)), dtype=bool), np.zeros((f, len(sectors)), dtype=int)
    for s, (row, a, tau, idx) in enumerate(sectors):
        n = idx.size
        owner[s], means[s] = row, tau[idx].sum() / n
        valid[:n, s], index[:n, s] = True, idx
        stack[:n, :n, s] = a[np.ix_(idx, idx)]
    return RowStack(stack, owner, means, valid, index, np.array(dims, dtype=int))


def _sequential_joint_eigenspaces(pairs: Sequence[Tuple[np.ndarray, np.ndarray]], tol: float):
    """Joint eigenspaces of many pairs of a Hermitian `a` and the Reeb operator `b` = i L_T: the
    `rows.JointRows` of one `rows.solve_rows`, with row r for pair r.

    `b` is diagonal in the block basis, and `a` commutes with it, so `a` is
    block diagonal over the Reeb sectors and is diagonalized sector by sector.
    The components of a row run by Delta cluster (Delta is the cluster mean
    over the pair's sectors), then by tau.
    """
    from .rows import solve_rows

    return solve_rows(_reeb_sectors(pairs, tol))


def q_decomposition(asm: Assembly, weight: int, k: int) -> Tuple[QComponent, ...]:
    """Simultaneous eigenspaces of the two half Laplacians on the degree-k Rumin space of the
    weight block, from its row of `asm.rumin_rows(k)`: the joint (Delta, i L_T)
    components in their order, each with its (lambda10, lambda01) from the half-Laplacian
    pair of the assembly's stacks and a dense basis in the block's Rumin-space coordinates."""
    halves = asm.sector_stacks.half_laplacians(k)  # raises from the middle degree on
    joint = asm.rumin_rows(k)
    row = asm.weights.index(weight)
    lo, hi = joint.row_components(row)
    l10, l01 = joint.half_pairs(halves)
    comps = joint.components(row)
    return tuple(QComponent(a, b, basis) for a, b, (_, _, basis) in zip(l10[lo:hi], l01[lo:hi], comps))


# -- cohomology rank oracles ----------------------------------------------------


def rumin_cohomology_dims(asm: Assembly) -> List[int]:
    """dim H^k from the ranks of the Rumin differentials on the Reeb sectors (independent oracle)."""
    return list(asm.sector_stacks.cohomology_dims("rumin", asm.multiplicity))


def de_rham_cohomology_dims(asm: Assembly) -> List[int]:
    return list(asm.sector_stacks.cohomology_dims("de_rham", asm.multiplicity))


@_block_memo
def _harmonic_basis(ctx: BlockContext, k: int, operator: str) -> KernelBasis:
    """Kernel basis of the degree-k "de_rham" or "rumin" Laplacian."""
    return kernel(ctx.laplacian_de_rham(k) if operator == "de_rham" else ctx.laplacian_rn(k))


def harmonic_bases(asm: Assembly, operator: str = "de_rham") -> Dict[Tuple[str, int], KernelBasis]:
    """Kernel bases per (block, degree) of the chosen Laplacian, "de_rham" or "rumin", from the
    dense block contexts."""
    if operator not in ("de_rham", "rumin"):
        raise ValueError(f"unknown operator {operator!r}; choose de_rham or rumin")
    return {
        (ctx.block.label, k): _harmonic_basis(ctx, k, operator)
        for ctx in asm.contexts
        for k in range(ctx.Dmax + 1)
    }


# -- verification drivers ----------------------------------------------------------


def _run_suite(asm: Assembly, name: str, params: dict, body: str, *args) -> VerificationReport:
    """Report `name` of the sector body `suites.<body>(asm, report, *args)`.  The suites read
    every first-order stack many times, so the assembly's stacks keep them from here on."""
    from . import suites  # imported on first use, like the sector stacks it reads

    asm.sector_stacks.keep_first_order()
    report = VerificationReport(name, {"model": asm.model.describe(), "max_weight": asm.max_weight, **params})
    getattr(suites, body)(asm, report, *args)
    return report


def verify_complex_property(asm: Assembly, tol: float = 1e-12) -> VerificationReport:
    """d^2 = 0 for the de Rham, rescaled Rumin and deformed differentials (d_t at every t of
    COMPLEX_T_SAMPLES)."""
    params = {"tol": tol, "t_samples": list(COMPLEX_T_SAMPLES)}
    return _run_suite(asm, "complex_property", params, "check_complex_property", tol)


def verify_sasakian_identities(asm: Assembly, tol: float = 1e-11) -> VerificationReport:
    """Commutation framework of the split differentials on a Sasakian frame.

    Covers the four metric commutator identities relating the split halves to
    the Lefschetz pair, the vanishing graded commutators, their projected
    analogues on the Rumin spaces, the commuting half Laplacians, and the
    agreement of the two assemblies of the middle operator.
    """
    return _run_suite(asm, "sasakian_identities", {"tol": tol}, "check_sasakian_identities", tol)


def verify_hodge_block_matrix(asm: Assembly, tol: float = 1e-12) -> VerificationReport:
    """The full-space Laplacian equals its horizontal/vertical block matrix."""
    return _run_suite(asm, "hodge_block_matrix", {"tol": tol}, "check_hodge_block_matrix", tol)


def verify_kernel_coincidence(asm: Assembly, tol: float = 1e-10) -> VerificationReport:
    """Subspace equality of the two harmonic spaces (principal angles within ANGLE_TOL) plus the
    textbook-step residuals."""
    dims = Counter()
    params = {"angle_tol": ANGLE_TOL, "tol": tol}
    report = _run_suite(asm, "kernel_coincidence", params, "check_kernel_coincidence", dims, tol)
    rank_oracle_checks(report, dims, asm)
    report.parameters["kernel_dims"] = [dims["kernel", "rumin", k] for k in asm.degrees]
    return report


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
    return _run_suite(asm, "primitivity", {"tol": tol}, "check_primitivity", tol)


def verify_deformation_family(asm: Assembly, t_samples=(0.1, 1.0, 10.0), tol: float = 1e-10) -> VerificationReport:
    """Harmonic forms are killed piecewise and exhaust every deformed kernel."""
    if any(t <= 0 for t in t_samples):
        raise ValueError("t samples must be positive")
    params = {"t_samples": list(t_samples), "tol": tol}
    return _run_suite(asm, "deformation_family", params, "check_deformation_family", t_samples, tol)


def verify_eigenvalue_identity(asm: Assembly, tol_rel: float = 1e-9) -> VerificationReport:
    """The squared-sum law on the image of the split differentials.

    Checks, per block: every positive eigenvalue below middle degree matches
    (lambda10 + lambda01)^2 of its simultaneous eigenspace; the middle-degree
    positive spectrum over the image of the split differentials is predicted
    by the same law; the normalized image / orthogonal-complement vectors of
    each bi-positive component satisfy the second-order eigenvalue formula;
    the corner maps are bijections; and the restricted operator is positive.
    The per-vector checks of the W corner W (x) C^r have one entry `...v={i}`
    per slot vector of W, with detail `multiplicity={r}`.  A value at most
    LAW_ZERO_TOL counts as zero.
    """
    params = {"tol_rel": tol_rel, "tol": LAW_ZERO_TOL}
    return _run_suite(asm, "eigenvalue_identity", params, "check_eigenvalue_identity", tol_rel)


def verify_middle_degree(asm: Assembly, tol: float = 1e-10) -> VerificationReport:
    """Second-order identities on the coexact middle subspace.

    On ker of both split codifferentials the Laplacian equals the square of
    the Reeb derivative and of the middle operator; its Reeb eigenspaces carry
    eigenvalue nu^2; and the one-sided components obey the same square law.
    """
    return _run_suite(asm, "middle_degree", {"tol": tol}, "check_middle_degree", tol)


def verify_star_symmetry(asm: Assembly, tol: float = 1e-10) -> VerificationReport:
    """The star operator intertwines the Rumin Laplacians of mirror degrees."""
    return _run_suite(asm, "star_symmetry", {"tol": tol}, "check_star_symmetry", tol)
