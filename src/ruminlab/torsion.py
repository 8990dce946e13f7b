"""The Reeb decomposition of the torsion function and its zeta partial sums.

The torsion function is the weighted alternating sum

    kappa(s) = sum_{k=0..n} (-1)^(k+1) (n+1-k) zeta(Delta^k)(s)

over the low half of the complex.  Per block the positive spectrum splits by
the signs of the half-Laplacian pair (box, boxbar) = (sqrt(Delta) +- i L_T)/2
into a harmonic part, two one-sided parts on which Delta = -L_T^2 exactly,
and a bi-positive part.  The one-sided parts reproduce the spectrum degree by
degree only when the bi-positive part is empty; in general the bi-positive
eigenvalues cancel across degrees under the alternating weights (q copies
below the middle degree meet 2q copies in it for n = 1), so the theorem-level
statement is the weighted multiset identity, which this module checks exactly,
alongside the literal per-degree comparison, which it reports honestly.

Each piece needs only Delta and the Reeb value tau of a joint (Delta, i L_T)
eigenspace, and its dimension.  `reeb_decomposition` takes them from the route
of `rumin spectrum --op delta-rn`: per degree k <= n it reads
`Assembly.rumin_rows`, the Rumin Laplacian of every weight cut into Reeb
sectors and solved together, as sec4 does, so its slices are that table's
entries, and it builds no block context.  The kernel dimensions are compared
with the rank oracle `rumin_cohomology_dims`, which reads the same stacks.
`close_reeb_report` folds the classified pieces of every block into the
per-degree zeta partial sums (`TorsionReport.zetas`) and the two routes to
kappa (`kappa_from_spectrum`, `kappa_from_reeb`).

The box checks compare operators that are built independently.  Below the
middle degree box = Delta_delbar and boxbar = Delta_del come from the split
Rumin differentials; on every sector their sum must be sqrt(Delta), from the
Laplacian's eigenpairs, their difference must be i L_T = tau, and they must
commute.  In the middle degree box and boxbar are defined as
(sqrt(Delta) +- i L_T)/2, so there only their positivity is a statement:
`boxes_psd` asks (sqrt(Delta) +- tau)/2 >= 0 on every component in every
degree.

Only partial zeta sums at s >= 2 are produced; analytic continuation to s = 0
is out of scope and the derivative at 0 is never claimed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import util
from .model import block_label
from .operators import max_abs
from .spectral import Assembly, JointEigenspaces, VerificationReport, rumin_cohomology_dims

PAIR_TOL = 1e-9
# Equal eigenvalues from different blocks and degrees agree only up to the
# backward error of a dense Hermitian solve, about eps * ||Delta||, and the
# Rumin eigenvalues of weight m grow like m^4: at m = 40 the measured gap is
# 7e-10 at Delta ~ 7e5, already close to PAIR_TOL, and at m = 60 it is 2.8e-9
# at Delta ~ 3e6.  Clustering therefore also merges within
# RELATIVE_PAIR_TOL * |Delta|, which leaves about 100x headroom at both
# weights; distinct eigenvalues are integers, so they never merge.  The bound
# is PAIR_TOL itself up to |Delta| = 1e4, which covers every weight <= 12.
RELATIVE_PAIR_TOL = 1e-13
ESTIMATE_CAVEAT = (
    "partial sums only: the derivative at s = 0 requires analytic continuation "
    "and is not computed"
)


def kappa_weights(n: int) -> List[int]:
    """Alternating degree weights of the torsion function, degrees 0..n."""
    return [(-1) ** (k + 1) * (n + 1 - k) for k in range(n + 1)]


# -- Reeb decomposition ------------------------------------------------------------

PIECES = ("harmonic", "reeb_plus", "reeb_minus", "bi_positive")  # classification labels


@dataclass
class ReebSlice:
    """One joint (Delta, i L_T) eigenspace of a block in one degree."""

    block: str
    degree: int
    delta: float
    nu: float
    mult: int
    piece: str


def _cluster_multiset(pairs: Sequence[Tuple[float, float]], tol: float) -> List[Tuple[float, float]]:
    """Merge (value, count) pairs whose values agree within max(tol, RELATIVE_PAIR_TOL |value|)."""
    out: List[List[float]] = []
    for v, c in sorted(pairs):
        if out and abs(v - out[-1][0]) <= max(tol, RELATIVE_PAIR_TOL * abs(v)):
            out[-1][1] += c
        else:
            out.append([v, c])
    return [(v, c) for v, c in out]


def _multisets_match(a, b, tol: float) -> Tuple[bool, float]:
    """Compare clustered (value, count) multisets; returns (match, max count gap)."""
    merged = _cluster_multiset([(v, c) for v, c in a] + [(v, -c) for v, c in b], tol)
    worst = max((abs(c) for _, c in merged), default=0.0)
    return worst < 0.5, worst


@dataclass
class TorsionReport:
    model: dict
    max_weight: int
    s_grid: List[float]
    weights: List[int]
    cutoff: float
    kappa_from_spectrum: Dict[float, float] = field(default_factory=dict)
    kappa_from_reeb: Dict[float, float] = field(default_factory=dict)
    zetas: Dict[Tuple[int, float], float] = field(default_factory=dict)
    kernel_dims: List[int] = field(default_factory=list)
    cohomology_dims: List[int] = field(default_factory=list)
    slices: List[ReebSlice] = field(default_factory=list)
    per_degree_outcomes: Dict[Tuple[str, int], bool] = field(default_factory=dict)
    weighted_match: bool = True
    checks: VerificationReport = field(default_factory=lambda: VerificationReport("reeb_decomposition"))
    estimate_only: bool = False
    caveat: str = ""
    pair_tol: float = PAIR_TOL

    @property
    def per_degree_match(self) -> bool:
        return all(self.per_degree_outcomes.values())

    @property
    def passed(self) -> bool:
        return self.checks.passed

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "kind": "torsion",
            "model": self.model,
            "max_weight": self.max_weight,
            "cutoff": util.fmt_float(self.cutoff),
            "weights": self.weights,
            "s_grid": [util.fmt_float(s) for s in self.s_grid],
            "kappa_from_spectrum": {
                util.fmt_float(s): util.fmt_float(v) for s, v in self.kappa_from_spectrum.items()
            },
            "kappa_from_reeb": {
                util.fmt_float(s): util.fmt_float(v) for s, v in self.kappa_from_reeb.items()
            },
            "zeta_partials": {
                f"k={k},s={util.fmt_float(s)}": util.fmt_float(v)
                for (k, s), v in sorted(self.zetas.items())
            },
            "kernel_dims": self.kernel_dims,
            "cohomology_dims": self.cohomology_dims,
            "per_degree_match": self.per_degree_match,
            "per_degree_outcomes": {
                f"{b}:k={k}": ok for (b, k), ok in sorted(self.per_degree_outcomes.items())
            },
            "weighted_match": self.weighted_match,
            "passed": self.passed,
            "estimate_only": self.estimate_only,
            "caveat": self.caveat,
            "checks": self.checks.check_rows(),
        }
        return json.dumps(doc, sort_keys=True)

    def pairs_csv(self) -> str:
        """Matched eigenvalue pairs: spectrum value, piece, Reeb eigenvalue."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["block", "degree", "lambda", "piece", "nu", "multiplicity"])
        for sl in sorted(self.slices, key=lambda s: (s.block, s.degree, s.delta, s.nu)):
            writer.writerow(
                [
                    sl.block,
                    sl.degree,
                    util.fmt_float(sl.delta),
                    sl.piece,
                    util.fmt_float(sl.nu),
                    sl.mult,
                ]
            )
        return buf.getvalue()


def reeb_decomposition(
    asm: Assembly, s_grid: Sequence[float] = (2.0, 3.0, 4.0), pair_tol: float = PAIR_TOL
) -> TorsionReport:
    """Split every low-degree spectrum along the half-Laplacian pair and compare.

    Produces: the per-degree comparison of the positive spectrum against the
    two one-sided Reeb pieces (diagnostic; fails whenever the bi-positive part
    is nonempty), the weighted multiset identity (the theorem-level statement,
    gated), the kernel-dimension bookkeeping against the rank oracle, and the
    torsion-function partial sums computed from both sides.
    """
    n = asm.n
    for s in s_grid:
        if s < 2.0:
            raise ValueError("partial sums are only reported for s >= 2")
    report = TorsionReport(
        model=asm.model.describe(),
        max_weight=asm.max_weight,
        s_grid=list(s_grid),
        weights=kappa_weights(n),
        cutoff=asm.spectral_cutoff(),
        cohomology_dims=rumin_cohomology_dims(asm)[: n + 1],
        pair_tol=pair_tol,
    )
    report.checks.parameters = {"model": asm.model.describe(), "max_weight": asm.max_weight, "pair_tol": pair_tol}
    for k in range(n + 1):
        for m, r, (joint, halves) in zip(asm.weights, asm.multiplicity, asm.rumin_rows(k, pair_tol)):
            _add_reeb_slices(report, block_label(m), r, k, joint, halves)
    close_reeb_report(report)
    return report


def _add_reeb_slices(report: TorsionReport, lbl: str, multiplicity: int, k: int, joint: JointEigenspaces, halves):
    """The Reeb slices of block `lbl` (with its multiplicity) in degree k, from its joint
    eigenspaces, with their box checks and per-degree comparison; `halves` are the block's
    half-Laplacian sector blocks below the middle degree (None in it)."""
    checks, pair_tol = report.checks, report.pair_tol
    if halves is not None:
        (boxbar, box), _ = halves  # (Delta_del, Delta_delbar)
        sums = differences = commutators = 0.0
        for b, bb, root, idx in zip(box, boxbar, _sector_roots(joint), joint.sectors.index):
            reeb = joint.sectors.tau[idx][:, :, None] * np.eye(idx.shape[1])  # i L_T on each sector
            sums = max(sums, max_abs(b + bb - root))
            differences = max(differences, max_abs(b - bb - reeb))
            commutators = max(commutators, max_abs(b @ bb - bb @ b))
        checks.add(f"boxes_sum_to_root[{lbl}]k={k}", sums, 1e-10)
        checks.add(f"boxes_differ_by_reeb[{lbl}]k={k}", differences, 1e-10)
        checks.add(f"boxes_commute[{lbl}]k={k}", commutators, 1e-9)
    # the largest |entry| of the Laplacian, which is block diagonal over the Reeb sectors
    zero = pair_tol * max(1.0, max((max_abs(b) for b in joint.sectors.blocks), default=0.0))
    slices = []
    lowest = math.inf  # the smallest eigenvalue of box and boxbar
    for delta, tau, count in zip(joint.delta, joint.tau, joint.counts):
        delta = max(delta, 0.0)
        root = math.sqrt(delta)
        box = 0.5 * (root + tau)
        boxbar = 0.5 * (root - tau)
        lowest = min(lowest, box, boxbar)
        if delta <= zero:
            piece = "harmonic"
        elif box <= zero:
            piece = "reeb_plus"  # ker box ∩ im boxbar
        elif boxbar <= zero:
            piece = "reeb_minus"  # im box ∩ ker boxbar
        else:
            piece = "bi_positive"
        # L_T acts by i*nu; never -0.0
        slices.append(ReebSlice(lbl, k, delta, 0.0 - tau, multiplicity * count, piece))
    checks.add(f"boxes_psd[{lbl}]k={k}", max(0.0, -lowest), 1e-9)
    report.slices.extend(slices)
    spectrum = [(sl.delta, sl.mult) for sl in slices if sl.piece != "harmonic"]
    one_sided_slices = [sl for sl in slices if sl.piece in ("reeb_plus", "reeb_minus")]
    one_sided = [(sl.nu ** 2, sl.mult) for sl in one_sided_slices]
    # Delta = -L_T^2 exactly on the one-sided pieces
    worst = max((abs(sl.delta - sl.nu ** 2) / max(1.0, sl.delta) for sl in one_sided_slices), default=0.0)
    checks.add(f"one_sided_reeb_square[{lbl}]k={k}", worst, pair_tol)
    ok, _gap = _multisets_match(
        _cluster_multiset(spectrum, pair_tol), _cluster_multiset(one_sided, pair_tol), pair_tol
    )
    report.per_degree_outcomes[(lbl, k)] = ok


def _sector_roots(joint: JointEigenspaces) -> List[np.ndarray]:
    """sqrt(Delta) on every sector of `joint`, from its sector eigenpairs: per size group, the
    (sectors, s, s) stack q diag(sqrt(Delta)) q^*."""
    root = np.empty(joint.sectors.dim)
    root[joint.order] = np.repeat(np.sqrt(np.maximum(joint.delta, 0.0)), joint.counts)
    stacks, col = [], 0
    for q in joint.vectors:
        sectors, size, _ = q.shape
        scaled = q * root[col : col + sectors * size].reshape(sectors, 1, size)
        stacks.append(scaled @ q.conj().transpose(0, 2, 1))
        col += sectors * size
    return stacks


def close_reeb_report(report: TorsionReport):
    """The checks and sums of `reeb_decomposition` over the slices of every block added."""
    checks, pair_tol, weights = report.checks, report.pair_tol, report.weights
    n = len(weights) - 1
    # the spectrum with weight w_k against the one-sided Reeb squares with weight -w_k
    weighted_entries: List[Tuple[float, float]] = []
    report.kernel_dims = [0] * (n + 1)
    for sl in report.slices:
        w = weights[sl.degree]
        if sl.piece == "harmonic":
            report.kernel_dims[sl.degree] += sl.mult
            continue
        weighted_entries.append((sl.delta, w * sl.mult))
        if sl.piece in ("reeb_plus", "reeb_minus"):
            weighted_entries.append((sl.nu ** 2, -w * sl.mult))

    merged = _cluster_multiset(weighted_entries, pair_tol)
    worst_net = max((abs(c) for _, c in merged), default=0.0)
    report.weighted_match = worst_net < 0.5
    checks.add(
        "weighted_multiset_identity",
        worst_net,
        0.5,
        "bi-positive parts must cancel under the alternating weights",
    )

    # kernel dimensions against the rank oracle
    for k in range(n + 1):
        checks.add(
            f"kernel_dim_is_cohomology_k={k}",
            abs(report.kernel_dims[k] - report.cohomology_dims[k]),
            0.0,
            f"kernel={report.kernel_dims[k]} rank_oracle={report.cohomology_dims[k]}",
        )

    # torsion-function partial sums from both sides
    for s in report.s_grid:
        lhs = 0.0
        rhs = 0.0
        for k in range(n + 1):
            zk = sum(
                sl.mult * sl.delta ** (-s)
                for sl in report.slices
                if sl.degree == k and sl.piece != "harmonic"
            )
            report.zetas[(k, float(s))] = zk
            lhs += weights[k] * zk
            rhs += weights[k] * sum(
                sl.mult * (sl.nu ** 2) ** (-s)
                for sl in report.slices
                if sl.degree == k and sl.piece in ("reeb_plus", "reeb_minus")
            )
        report.kappa_from_spectrum[float(s)] = lhs
        report.kappa_from_reeb[float(s)] = rhs
        checks.add(f"kappa_two_routes_s={util.fmt_float(s)}", abs(lhs - rhs), 1e-9)


def torsion_estimate(asm: Assembly, s_grid: Sequence[float] = (2.0, 3.0, 4.0)) -> TorsionReport:
    """Partial torsion-function values on a grid; estimate only, never a torsion value."""
    report = reeb_decomposition(asm, s_grid=s_grid)
    report.estimate_only = True
    report.caveat = ESTIMATE_CAVEAT
    return report
