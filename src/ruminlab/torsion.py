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
rows, and it builds no block context.  Its clusters and zero tests read the
fixed `PAIR_TOL` and `RELATIVE_PAIR_TOL`.  The pieces, box checks and
per-degree comparisons of every block are computed on the columns of those
rows at once, and the slices are held as columns too (`TorsionReport.columns`,
built by `slice_columns`).  The kernel dimensions are compared with the rank
oracle `rumin_cohomology_dims`, which reads the same stacks.
`close_reeb_report` folds the classified slices into the per-degree zeta
partial sums (`TorsionReport.zetas`) and the two routes to kappa
(`kappa_from_spectrum`, `kappa_from_reeb`).  The report is written by
`util.write_rows`, the writer of every report: its JSON document with the rows
of its checks (`VerificationReport.dumps_with_checks`), and the slices as CSV
(`TorsionReport.pairs_csv`), with piece names for the `piece` indices.

The box checks compare operators that are built independently.  Below the
middle degree box = Delta_delbar and boxbar = Delta_del come from the split
Rumin differentials, as zero-padded stacks over the sectors of every weight
(`sectors.SectorStacks.half_laplacians`, which sec4 reads too); on every
sector their sum must be sqrt(Delta), from the padded eigenvectors of the
Laplacian's solve, their difference must be i L_T = tau, and they must
commute.  The products run group by group on the valid sector blocks
(`JointRows.sector_blocks`), so the padding enters none of them.  In the
middle degree box and boxbar are defined as (sqrt(Delta) +- i L_T)/2, so
there only their positivity is a statement: `boxes_psd` asks
(sqrt(Delta) +- tau)/2 >= 0 on every component in every degree.

Only partial zeta sums at s >= 2 are produced; analytic continuation to s = 0
is out of scope and the derivative at 0 is never claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import util
from .model import block_label
from .spectral import Assembly, VerificationReport, rumin_cohomology_dims

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


def _multiset_clusters(segment, values, counts):
    """Per segment, merge (value, count) pairs whose values agree with a cluster's first value
    within max(PAIR_TOL, RELATIVE_PAIR_TOL |value|): (segment, first value, summed count) per
    cluster."""
    from .rows import cluster_starts

    segment, values, counts = np.asarray(segment, dtype=int), np.asarray(values, dtype=float), np.asarray(counts)
    order = np.lexsort((values, segment))
    segment, values, counts = segment[order], values[order], counts[order]
    start = cluster_starts(segment, values, np.maximum(PAIR_TOL, RELATIVE_PAIR_TOL * np.abs(values)))
    first = np.flatnonzero(start)
    summed = np.add.reduceat(counts, first) if first.size else counts[:0]
    return segment[first], values[first], summed


def _cluster_multiset(pairs: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge (value, count) pairs whose values agree within max(PAIR_TOL, RELATIVE_PAIR_TOL |value|)."""
    values, counts = zip(*pairs) if pairs else ((), ())
    _, values, counts = _multiset_clusters(np.zeros(len(values), dtype=int), values, counts)
    return list(zip(values.tolist(), counts.tolist()))


def _multisets_match(a, b) -> Tuple[bool, float]:
    """Compare clustered (value, count) multisets; returns (match, max count gap)."""
    merged = _cluster_multiset([(v, c) for v, c in a] + [(v, -c) for v, c in b])
    worst = max((abs(c) for _, c in merged), default=0.0)
    return worst < 0.5, worst


SLICE_FIELDS = ("block", "degree", "delta", "nu", "mult", "piece")


def slice_columns(block=(), degree=(), delta=(), nu=(), mult=(), piece=()) -> Dict[str, np.ndarray]:
    """Slices as numpy columns; `piece` is an index into PIECES."""
    return {
        "block": np.asarray(block, dtype=str),
        "degree": np.asarray(degree, dtype=int),
        "delta": np.asarray(delta, dtype=float),
        "nu": np.asarray(nu, dtype=float),
        "mult": np.asarray(mult, dtype=int),
        "piece": np.asarray(piece, dtype=int),
    }


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
    columns: Dict[str, np.ndarray] = field(default_factory=slice_columns)  # the slices, `SLICE_FIELDS`
    per_degree_outcomes: Dict[Tuple[str, int], bool] = field(default_factory=dict)
    weighted_match: bool = True
    checks: VerificationReport = field(default_factory=lambda: VerificationReport("reeb_decomposition"))
    estimate_only: bool = False
    caveat: str = ""

    def _add_columns(self, **columns):
        self.columns = {name: np.concatenate([self.columns[name], columns[name]]) for name in SLICE_FIELDS}

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
        }
        return self.checks.dumps_with_checks(doc)

    def pairs_csv(self) -> str:
        """Matched eigenvalue pairs: spectrum value, piece, Reeb eigenvalue."""
        c = self.columns
        order = np.lexsort((c["nu"], c["delta"], c["degree"], c["block"]))
        pieces = np.array(PIECES, dtype=object)[c["piece"]]
        fields = [("block", "label", c["block"]), ("degree", "raw", c["degree"]), ("lambda", "float", c["delta"])]
        fields += [("piece", "label", pieces), ("nu", "float", c["nu"]), ("multiplicity", "raw", c["mult"])]
        return "".join(util.write_rows(order, fields))


def reeb_decomposition(asm: Assembly, s_grid: Sequence[float] = (2.0, 3.0, 4.0)) -> TorsionReport:
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
    )
    report.checks.parameters = {"model": asm.model.describe(), "max_weight": asm.max_weight, "pair_tol": PAIR_TOL}
    labels = [block_label(m) for m in asm.weights]
    for k in range(n + 1):
        halves = asm.sector_stacks.half_laplacians(k) if k < n else None
        _add_reeb_slices(report, labels, asm.multiplicity, k, asm.rumin_rows(k), halves)
    close_reeb_report(report)
    return report


def _add_reeb_slices(report: TorsionReport, labels: Sequence[str], multiplicity: Sequence[int], k: int, joint, halves):
    """The Reeb slices of every block in degree k, from the joint eigenspaces `joint` of its
    degree-k Rumin rows (a `rows.JointRows`, one row per block, with the labels and
    multiplicities given), with their box checks and per-degree comparisons.  Below the middle
    degree `halves` is the half-Laplacian pair of the degree (`SectorStacks.half_laplacians`),
    whose box sum, difference and commutator are checked on every sector; None in the middle."""
    from .sectors import _per_row

    checks = report.checks
    rows, owner, tau = joint.rows, joint.owner, joint.tau
    starts = rows.starts
    if halves is not None:
        component, roots = joint.column_component(), np.sqrt(np.maximum(joint.delta, 0.0))
        boxes = np.zeros((3, rows.tau.size))  # per sector: sum, difference and commutator residuals
        for sel, cols, q, (boxbar, box) in joint.sector_blocks(*halves[:2]):  # (Delta_del, Delta_delbar)
            root = roots[component[cols]][:, None, :]
            sqrt_delta = (q * root) @ q.transpose(0, 2, 1)  # q diag(sqrt(Delta)) q^T on each real sector
            reeb = rows.tau[sel][:, None, None] * np.eye(q.shape[1])  # i L_T on each sector
            for out, resid in zip(boxes, (box + boxbar - sqrt_delta, box - boxbar - reeb, box @ boxbar - boxbar @ box)):
                out[sel] = np.abs(resid).max(axis=(1, 2))
        boxes = [_per_row(b, starts, np.maximum) for b in boxes]
    # the largest |entry| of the Laplacian, which is block diagonal over the Reeb sectors
    zero = PAIR_TOL * np.maximum(1.0, _per_row(np.abs(rows.stack), starts, np.maximum))
    delta = np.where(0.0 > joint.delta, 0.0, joint.delta)
    root = np.sqrt(delta)
    box, boxbar = 0.5 * (root + tau), 0.5 * (root - tau)
    z = zero[owner]
    # harmonic; reeb_plus: ker box ∩ im boxbar; reeb_minus: im box ∩ ker boxbar; bi_positive
    piece = np.where(delta <= z, 0, np.where(box <= z, 1, np.where(boxbar <= z, 2, 3)))
    lowest = np.full(len(labels), np.inf)  # the smallest eigenvalue of box and boxbar
    np.minimum.at(lowest, owner, np.minimum(box, boxbar))
    nu = 0.0 - tau  # L_T acts by i*nu; never -0.0
    mult = np.asarray(multiplicity, dtype=int)[owner] * joint.count
    one_sided = (piece == 1) | (piece == 2)
    # Delta = -L_T^2 exactly on the one-sided pieces
    square = np.zeros(len(labels))
    np.maximum.at(square, owner[one_sided], (np.abs(delta - nu**2) / np.maximum(1.0, delta))[one_sided])
    # per block: the positive spectrum against the one-sided Reeb squares
    positive = piece != 0
    spectrum = _multiset_clusters(owner[positive], delta[positive], mult[positive])
    reeb = _multiset_clusters(owner[one_sided], nu[one_sided] ** 2, mult[one_sided])
    blocks, values, counts = (np.concatenate([x, y]) for x, y in zip(spectrum, (reeb[0], reeb[1], -reeb[2])))
    row, _, gap = _multiset_clusters(blocks, values, counts)
    worst = np.zeros(len(labels), dtype=int)
    np.maximum.at(worst, row, np.abs(gap))
    family = lambda name: [f"{name}[{lbl}]k={k}" for lbl in labels]
    if halves is not None:
        checks.add_family(family("boxes_sum_to_root"), boxes[0], 1e-10)
        checks.add_family(family("boxes_differ_by_reeb"), boxes[1], 1e-10)
        checks.add_family(family("boxes_commute"), boxes[2], 1e-9)
    checks.add_family(family("boxes_psd"), np.where(-lowest > 0.0, -lowest, 0.0), 1e-9)  # max(0.0, -lowest)
    checks.add_family(family("one_sided_reeb_square"), square, PAIR_TOL)
    report.per_degree_outcomes.update(zip([(lbl, k) for lbl in labels], (worst < 0.5).tolist()))
    report._add_columns(
        block=np.asarray(labels, dtype=str)[owner], degree=np.full(owner.size, k), delta=delta, nu=nu, mult=mult, piece=piece
    )


def close_reeb_report(report: TorsionReport):
    """The checks and sums of `reeb_decomposition` over the slices of every block added."""
    checks, weights = report.checks, report.weights
    n = len(weights) - 1
    c = report.columns
    degree, delta, nu, mult = c["degree"], c["delta"], c["nu"], c["mult"]
    harmonic = c["piece"] == 0
    one_sided = (c["piece"] == 1) | (c["piece"] == 2)
    kernel_dims = np.zeros(n + 1, dtype=int)
    np.add.at(kernel_dims, degree[harmonic], mult[harmonic])
    report.kernel_dims = kernel_dims.tolist()

    # the spectrum with weight w_k against the one-sided Reeb squares with weight -w_k
    weighted = np.asarray(weights, dtype=int)[degree] * mult
    values = np.concatenate([delta[~harmonic], nu[one_sided] ** 2])
    counts = np.concatenate([weighted[~harmonic], -weighted[one_sided]])
    _, _, net = _multiset_clusters(np.zeros(values.size, dtype=int), values, counts)
    worst_net = int(np.abs(net).max()) if net.size else 0.0
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

    # torsion-function partial sums from both sides, each summed term by term in slice order
    positive = [(mult[at].tolist(), delta[at].tolist()) for at in (~harmonic & (degree == k) for k in range(n + 1))]
    reeb = [(mult[at].tolist(), nu[at].tolist()) for at in (one_sided & (degree == k) for k in range(n + 1))]
    for s in report.s_grid:
        lhs = 0.0
        rhs = 0.0
        for k in range(n + 1):
            zk = sum([m * d ** (-s) for m, d in zip(*positive[k])])
            report.zetas[(k, float(s))] = zk
            lhs += weights[k] * zk
            rhs += weights[k] * sum([m * (v**2) ** (-s) for m, v in zip(*reeb[k])])
        report.kappa_from_spectrum[float(s)] = lhs
        report.kappa_from_reeb[float(s)] = rhs
        checks.add(f"kappa_two_routes_s={util.fmt_float(s)}", abs(lhs - rhs), 1e-9)


def torsion_estimate(asm: Assembly, s_grid: Sequence[float] = (2.0, 3.0, 4.0)) -> TorsionReport:
    """Partial torsion-function values on a grid; estimate only, never a torsion value."""
    report = reeb_decomposition(asm, s_grid=s_grid)
    report.estimate_only = True
    report.caveat = ESTIMATE_CAVEAT
    return report
