"""Dense references for the Reeb-sector routes, from `BlockContext`.

`rumin spectrum`, the Reeb decomposition of `rumin torsion`, the joint
eigenspaces of the sec4 suite (`q_decomposition`) and the rank oracle build
their operators on the Reeb sectors of every weight at once
(`ruminlab.sectors`).  The tests compare them with the dense block matrices
here: the (Laplacian, i L_T) pairs of the `spectrum` operators, the dense
joint eigenspaces of the Rumin Laplacian of one block
(`rumin_joint_eigenspaces`, cut by `spectral._reeb_sectors`), its dense half
Laplacians on the same sectors (`half_laplacian_sectors`), the simultaneous
eigenspaces that both give (`dense_q_decomposition`), the dense Reeb
classification of every block and the dense SVD rank of every block
differential.
"""

import math
from typing import List

import numpy as np

from ruminlab.operators import InternalConsistencyError, hermitize, max_abs
from ruminlab.spectral import QComponent, _sequential_joint_eigenspaces, sector_half_laplacian_pairs
from ruminlab.torsion import (
    PAIR_TOL,
    ReebSlice,
    TorsionReport,
    _cluster_multiset,
    _multisets_match,
    close_reeb_report,
    kappa_weights,
)

SPECTRUM_OPS = ("delta-rn", "delta-dr", "delta-t", "delta-b")


def spectrum_degrees(op: str) -> range:
    """The degrees of the `spectrum` operator `op` on a 3-manifold."""
    return range(3) if op == "delta-b" else range(4)


def operator_pair(ctx, op: str, degree: int, t: float):
    """Hermitized (Laplacian, i L_T) of the `spectrum` operator `op` in one degree."""
    if op == "delta-rn":
        lap = ctx.laplacian_rn(degree).matrix
        ilt = 1j * ctx.lie_reeb_rumin(degree).matrix
    elif op == "delta-dr":
        lap = ctx.laplacian_de_rham(degree).matrix
        ilt = 1j * ctx.lie_reeb_full(degree)
    elif op == "delta-t":
        lap = ctx.laplacian_t(degree, t).matrix
        ilt = 1j * ctx.lie_reeb_full(degree)
    elif op == "delta-b":
        lap = ctx.laplacian_b(degree).matrix
        sp = ctx.horizontal_space(degree)
        ilt = 1j * ctx.compress(ctx.lie_reeb_full(degree), sp, sp).matrix
    else:
        raise KeyError(op)
    return hermitize(lap, 1e-9), hermitize(ilt, 1e-9)


def rumin_joint_eigenspaces(ctx, k: int, tol: float = 1e-9):
    """Joint eigenspaces of the dense degree-k Rumin Laplacian of one block and i L_T."""
    return _sequential_joint_eigenspaces([operator_pair(ctx, "delta-rn", k, 1.0)], tol)[0]


def half_laplacian_sectors(ctx, k: int, sectors):
    """The hermitized dense half Laplacians (Delta_del, Delta_delbar) of degree k below the middle
    degree, after checking that they commute, cut into the Reeb sectors `sectors` of the degree-k
    Rumin Laplacian: (their sector blocks, their common scale)."""
    if k > ctx.n - 1:
        raise ValueError("the simultaneous decomposition is defined below middle degree")
    a = hermitize(ctx.rumin_del_laplacian(k).matrix, 1e-9)
    b = hermitize(ctx.rumin_del_laplacian(k, anti=True).matrix, 1e-9)
    scale = max(1.0, max_abs(a), max_abs(b))
    if max_abs(a @ b - b @ a) > 1e-10 * scale:
        raise InternalConsistencyError("half Laplacians do not commute")
    if sectors.dim != ctx.rumin_space(k).dim:
        raise InternalConsistencyError("simultaneous eigenspaces do not exhaust the space")
    cut = lambda m: tuple(m[idx[:, :, None], idx[:, None, :]] for idx in sectors.index)
    return (cut(a), cut(b)), scale


def dense_q_decomposition(ctx, k: int, tol: float = 1e-9):
    """`spectral.q_decomposition` of the block of `ctx` through the dense route."""
    joint = rumin_joint_eigenspaces(ctx, k, tol)
    pairs = sector_half_laplacian_pairs(joint, half_laplacian_sectors(ctx, k, joint.sectors), tol)
    return tuple(QComponent(l10, l01, basis) for (l10, l01), (_, _, basis) in zip(pairs, joint.components()))


def dense_rank(m: np.ndarray, tol: float = 1e-8) -> int:
    """The number of singular values above tol * max(1, the largest)."""
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))


def dense_cohomology_dims(asm, complex_name: str) -> List[int]:
    """dim H^k of the "rumin" or "de_rham" complex: the sum over blocks of
    r (dim_k - rank d_k - rank d_{k-1}), every rank that of the dense block differential."""

    def rank(ctx, k):
        if k < 0 or k >= ctx.Dmax:
            return 0
        return dense_rank(ctx.rumin_d(k).matrix if complex_name == "rumin" else ctx.d_full(k))

    dims = [0] * len(asm.degrees)
    for ctx in asm.contexts:
        for k in asm.degrees:
            dim_k = ctx.rumin_space(k).dim if complex_name == "rumin" else ctx.full_dim(k)
            dims[k] += ctx.block.multiplicity * (dim_k - rank(ctx, k) - rank(ctx, k - 1))
    return dims


def dense_reeb_decomposition(asm, s_grid=(2.0, 3.0, 4.0), pair_tol: float = PAIR_TOL) -> TorsionReport:
    """`torsion.reeb_decomposition` through the dense block route: the slices, per-degree
    outcomes, rank-oracle dims and sums, without the box checks."""
    n = asm.n
    report = TorsionReport(
        model=asm.model.describe(),
        max_weight=asm.max_weight,
        s_grid=list(s_grid),
        weights=kappa_weights(n),
        cutoff=asm.spectral_cutoff(),
        cohomology_dims=dense_cohomology_dims(asm, "rumin")[: n + 1],
        pair_tol=pair_tol,
    )
    for ctx in asm.contexts:
        lbl = ctx.block.label
        for k in range(n + 1):
            joint = rumin_joint_eigenspaces(ctx, k, pair_tol)
            zero = pair_tol * max(1.0, max((max_abs(b) for b in joint.sectors.blocks), default=0.0))
            slices = []
            for delta, tau, count in zip(joint.delta, joint.tau, joint.counts):
                delta = max(delta, 0.0)
                root = math.sqrt(delta)
                if delta <= zero:
                    piece = "harmonic"
                elif 0.5 * (root + tau) <= zero:
                    piece = "reeb_plus"
                elif 0.5 * (root - tau) <= zero:
                    piece = "reeb_minus"
                else:
                    piece = "bi_positive"
                slices.append(ReebSlice(lbl, k, delta, 0.0 - tau, ctx.block.multiplicity * count, piece))
            report.slices.extend(slices)
            spectrum = [(sl.delta, sl.mult) for sl in slices if sl.piece != "harmonic"]
            one_sided = [(sl.nu**2, sl.mult) for sl in slices if sl.piece in ("reeb_plus", "reeb_minus")]
            report.per_degree_outcomes[(lbl, k)], _ = _multisets_match(
                _cluster_multiset(spectrum, pair_tol), _cluster_multiset(one_sided, pair_tol), pair_tol
            )
    close_reeb_report(report)
    return report
