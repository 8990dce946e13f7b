"""Spectral zeta bookkeeping and the Reeb decomposition of the torsion function.

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

Only partial zeta sums at s >= 2 are produced; analytic continuation to s = 0
is out of scope and the derivative at 0 is never claimed.
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
from .operators import BlockContext, hermitize, max_abs, sqrtm_psd
from .spectral import (
    Assembly,
    VerificationReport,
    _sequential_joint_eigenspaces,
    rumin_cohomology_dims,
)

PAIR_TOL = 1e-9
ESTIMATE_CAVEAT = (
    "partial sums only: the derivative at s = 0 requires analytic continuation "
    "and is not computed"
)


# -- zeta series -----------------------------------------------------------------


@dataclass
class ZetaSeries:
    """Positive eigenvalue multiset of one operator, exact below the cutoff."""

    label: str
    eigenvalues: List[Tuple[float, int]] = field(default_factory=list)
    cutoff: Optional[float] = None

    def partial(self, s: float) -> float:
        return zeta_partial(self, s)


def zeta_partial(series: ZetaSeries, s: float) -> float:
    """Partial zeta sum over the stored multiset; 0 on an empty multiset."""
    if s <= 0:
        raise ValueError("partial zeta sums require s > 0")
    total = 0.0
    for lam, mult in series.eigenvalues:
        if lam <= 0:
            raise ValueError("zeta multisets contain positive eigenvalues only")
        total += mult * lam ** (-s)
    return total


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


def _classify_block_degree(ctx: BlockContext, k: int, tol: float = PAIR_TOL) -> List[ReebSlice]:
    lap = hermitize(ctx.laplacian_rn(k).matrix, 1e-9)
    ilt = hermitize(1j * ctx.lie_reeb_rumin(k).matrix, 1e-9)
    zero = tol * max(1.0, max_abs(lap))
    out: List[ReebSlice] = []
    for delta, tau, basis in _sequential_joint_eigenspaces(lap, ilt, tol):
        delta = max(delta, 0.0)
        nu = 0.0 - tau  # L_T acts by i*nu; never -0.0
        root = math.sqrt(delta)
        box = 0.5 * (root + tau)
        boxbar = 0.5 * (root - tau)
        if delta <= zero:
            piece = "harmonic"
        elif box <= zero:
            piece = "reeb_plus"  # ker box ∩ im boxbar
        elif boxbar <= zero:
            piece = "reeb_minus"  # im box ∩ ker boxbar
        else:
            piece = "bi_positive"
        out.append(ReebSlice(ctx.block.label, k, delta, nu, ctx.block.multiplicity * basis.shape[1], piece))
    return out


def _cluster_multiset(pairs: Sequence[Tuple[float, float]], tol: float) -> List[Tuple[float, float]]:
    """Merge (value, count) pairs whose values agree within tol."""
    out: List[List[float]] = []
    for v, c in sorted(pairs):
        if out and abs(v - out[-1][0]) <= tol:
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
            "checks": json.loads(self.checks.to_json())["checks"],
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
    weights = kappa_weights(n)
    for s in s_grid:
        if s < 2.0:
            raise ValueError("partial sums are only reported for s >= 2")
    report = TorsionReport(
        model=asm.model.describe(),
        max_weight=asm.max_weight,
        s_grid=list(s_grid),
        weights=weights,
        cutoff=asm.spectral_cutoff(),
    )
    checks = report.checks
    checks.parameters = {"model": asm.model.describe(), "max_weight": asm.max_weight, "pair_tol": pair_tol}

    kernel_dims = [0] * (n + 1)
    weighted_entries: List[Tuple[float, float]] = []
    for ctx in asm.contexts:
        lbl = ctx.block.label
        # half-Laplacian structure checks
        for k in range(n + 1):
            box, boxbar = ctx.box_operators(k)
            root = sqrtm_psd(ctx.laplacian_rn(k).matrix)
            ilt = 1j * ctx.lie_reeb_rumin(k).matrix
            checks.add(f"boxes_sum_to_root[{lbl}]k={k}", max_abs(box.matrix + boxbar.matrix - root), 1e-10)
            checks.add(f"boxes_differ_by_reeb[{lbl}]k={k}", max_abs(box.matrix - boxbar.matrix - ilt), 1e-10)
            checks.add(
                f"boxes_commute[{lbl}]k={k}",
                max_abs(box.matrix @ boxbar.matrix - boxbar.matrix @ box.matrix),
                1e-9,
            )
            wmin = float(np.min(np.linalg.eigvalsh(box.matrix))) if box.matrix.size else 0.0
            wbmin = float(np.min(np.linalg.eigvalsh(boxbar.matrix))) if boxbar.matrix.size else 0.0
            checks.add(f"boxes_psd[{lbl}]k={k}", max(0.0, -min(wmin, wbmin)), 1e-9)
        for k in range(n + 1):
            slices = _classify_block_degree(ctx, k, pair_tol)
            report.slices.extend(slices)
            spectrum = [(sl.delta, sl.mult) for sl in slices if sl.piece != "harmonic"]
            one_sided = [
                (sl.nu ** 2, sl.mult) for sl in slices if sl.piece in ("reeb_plus", "reeb_minus")
            ]
            kernel_dims[k] += sum(sl.mult for sl in slices if sl.piece == "harmonic")
            # Delta = -L_T^2 exactly on the one-sided pieces
            worst = max(
                (
                    abs(sl.delta - sl.nu ** 2) / max(1.0, sl.delta)
                    for sl in slices
                    if sl.piece in ("reeb_plus", "reeb_minus")
                ),
                default=0.0,
            )
            checks.add(f"one_sided_reeb_square[{lbl}]k={k}", worst, pair_tol)
            ok, _gap = _multisets_match(
                _cluster_multiset(spectrum, pair_tol), _cluster_multiset(one_sided, pair_tol), pair_tol
            )
            report.per_degree_outcomes[(lbl, k)] = ok
            w = weights[k]
            weighted_entries += [(v, w * c) for v, c in spectrum]
            weighted_entries += [(v, -w * c) for v, c in one_sided]

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
    report.kernel_dims = kernel_dims
    report.cohomology_dims = rumin_cohomology_dims(asm)[: n + 1]
    for k in range(n + 1):
        checks.add(
            f"kernel_dim_is_cohomology_k={k}",
            abs(kernel_dims[k] - report.cohomology_dims[k]),
            0.0,
            f"kernel={kernel_dims[k]} rank_oracle={report.cohomology_dims[k]}",
        )

    # torsion-function partial sums from both sides
    for s in s_grid:
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
    checks.checks.sort(key=lambda c: c.name)
    return report


def kappa_partial(asm: Assembly, s: float) -> float:
    """Weighted alternating partial sum of the low-degree zeta functions."""
    if s < 2.0:
        raise ValueError("partial sums are only reported for s >= 2")
    n = asm.n
    weights = kappa_weights(n)
    total = 0.0
    for ctx in asm.contexts:
        for k in range(n + 1):
            w = np.linalg.eigvalsh(hermitize(ctx.laplacian_rn(k).matrix, 1e-9))
            scale = max(1.0, float(w[-1]) if w.size else 1.0)
            pos = w[w > PAIR_TOL * scale]
            total += weights[k] * ctx.block.multiplicity * float(np.sum(pos ** (-s)))
    return total


def block_zeta_series(asm: Assembly, degree: int) -> ZetaSeries:
    """Positive Rumin spectrum of one degree over all retained blocks."""
    pairs: List[Tuple[float, int]] = []
    for ctx in asm.contexts:
        w = np.linalg.eigvalsh(hermitize(ctx.laplacian_rn(degree).matrix, 1e-9))
        scale = max(1.0, float(w[-1]) if w.size else 1.0)
        pairs += [(float(v), ctx.block.multiplicity) for v in w if v > PAIR_TOL * scale]
    return ZetaSeries(
        label=f"delta_rn_k{degree}", eigenvalues=_cluster_multiset(pairs, PAIR_TOL),
        cutoff=asm.spectral_cutoff(),
    )


def torsion_estimate(asm: Assembly, s_grid: Sequence[float] = (2.0, 3.0, 4.0)) -> TorsionReport:
    """Partial torsion-function values on a grid; estimate only, never a torsion value."""
    report = reeb_decomposition(asm, s_grid=s_grid)
    report.estimate_only = True
    report.caveat = ESTIMATE_CAVEAT
    return report
