"""Dense references for the Reeb-sector routes, from `BlockContext`.

`rumin spectrum`, the Reeb decomposition of `rumin torsion`, the joint
eigenspaces of the sec4 suite (`q_decomposition`), the rank oracle and every
`verify` suite build their operators on the Reeb sectors of every weight at
once (`ruminlab.sectors`, `ruminlab.suites`).  The tests compare them with the
dense block matrices here: the (Laplacian, i L_T) pairs of the `spectrum`
operators, the dense joint eigenspaces of the Rumin Laplacian of one block
(`rumin_joint_eigenspaces`, cut by `spectral._reeb_sectors`), its dense half
Laplacians (`dense_half_laplacians`, also cut into the same sectors by
`half_laplacian_sectors`), the simultaneous eigenspaces that both give, with
the Rayleigh quotients of the dense half Laplacians (`dense_q_decomposition`), the dense Reeb
classification of every block, the dense SVD rank of every block
differential, and the per-block suite bodies `check_<suite>(ctx, report, ...)`
that `verify` ran on the dense weight blocks, one block at a time
(`dense_run_suite`).
"""

import inspect
import math
from collections import Counter
from typing import List, Sequence, Tuple

import numpy as np

from ruminlab import spectral
from ruminlab.operators import (
    BlockContext,
    InternalConsistencyError,
    _block_memo,
    _hodge_sum,
    _null_basis,
    hermitize,
    max_abs,
)
from ruminlab.util import round_sig
from ruminlab.spectral import (
    Assembly,
    QComponent,
    VerificationReport,
    _harmonic_basis,
    _sequential_joint_eigenspaces,
    joint_kernel,
    joint_kernel_dim,
    principal_sines,
    q_decomposition,
    rank_oracle_checks,
)
from ruminlab.torsion import (
    PAIR_TOL,
    PIECES,
    SLICE_FIELDS,
    TorsionReport,
    _cluster_multiset,
    _multisets_match,
    close_reeb_report,
    kappa_weights,
    slice_columns,
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
    """Joint eigenspaces of the dense degree-k Rumin Laplacian of one block and i L_T: a
    `rows.JointRows` whose one row is that block."""
    return _sequential_joint_eigenspaces([operator_pair(ctx, "delta-rn", k, 1.0)], tol)


def dense_half_laplacians(ctx, k: int):
    """The hermitized dense half Laplacians (Delta_del, Delta_delbar) of degree k below the middle
    degree, after checking that they commute, and their common scale max(1, max |entry|)."""
    if k > ctx.n - 1:
        raise ValueError("the simultaneous decomposition is defined below middle degree")
    a = hermitize(ctx.rumin_del_laplacian(k).matrix, 1e-9)
    b = hermitize(ctx.rumin_del_laplacian(k, anti=True).matrix, 1e-9)
    scale = max(1.0, max_abs(a), max_abs(b))
    if max_abs(a @ b - b @ a) > 1e-10 * scale:
        raise InternalConsistencyError("half Laplacians do not commute")
    return a, b, scale


def half_laplacian_sectors(ctx, k: int, sectors):
    """The dense half Laplacians of degree k cut into the Reeb sectors `sectors` of the degree-k
    Rumin Laplacian (the one-row `RowStack` of `spectral._reeb_sectors`): (their zero-padded
    sector stacks; their common scale)."""
    a, b, scale = dense_half_laplacians(ctx, k)
    if sectors.dims[0] != ctx.rumin_space(k).dim:
        raise InternalConsistencyError("simultaneous eigenspaces do not exhaust the space")
    both = sectors.valid[:, None, :] & sectors.valid[None, :, :]
    cut = lambda m: np.where(both, m[sectors.index[:, None, :], sectors.index[None, :, :]], 0)
    return (cut(a), cut(b)), scale


def round_as_library(x: float) -> float:
    """`util.round_sig` of x as a numpy float, which is how the library rounds (lambda10,
    lambda01) (`rows.round_sig_values`): numpy scales by 10^d and rounds half to even, while
    `round` of a Python float rounds its exact binary value, and the two differ on some values."""
    return round_sig(np.float64(x))


def dense_q_decomposition(ctx, k: int, tol: float = 1e-9):
    """`spectral.q_decomposition` of the block of `ctx` through the dense route: the joint
    eigenspaces of the dense Rumin Laplacian, each with the Rayleigh quotients of the dense half
    Laplacians on its basis, which must act on it as scalars."""
    joint = rumin_joint_eigenspaces(ctx, k, tol)
    a, b, scale = dense_half_laplacians(ctx, k)
    out = []
    for _, _, basis in joint.components(0):
        pair = []
        for half in (a, b):
            image = half @ basis
            ray = float(np.real(np.trace(basis.conj().T @ image))) / basis.shape[1]
            if max_abs(image - ray * basis) > 10 * tol * scale:
                raise InternalConsistencyError("half Laplacians are not scalar on a joint eigenspace")
            pair.append(round_as_library(max(ray, 0.0)))
        out.append(QComponent(*pair, basis))
    return tuple(out)


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


def dense_reeb_decomposition(asm, s_grid=(2.0, 3.0, 4.0)) -> TorsionReport:
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
    )
    columns = {name: [] for name in SLICE_FIELDS}  # the slices of every block and degree
    harmonic, one_sided = PIECES.index("harmonic"), (PIECES.index("reeb_plus"), PIECES.index("reeb_minus"))
    for ctx in asm.contexts:
        lbl = ctx.block.label
        for k in range(n + 1):
            lap, ilt = operator_pair(ctx, "delta-rn", k, 1.0)
            joint = _sequential_joint_eigenspaces([(lap, ilt)], PAIR_TOL)
            # the largest |entry| of a psd matrix is on its diagonal, inside a Reeb sector
            zero = PAIR_TOL * max(1.0, max_abs(lap))
            delta = [max(d, 0.0) for d in joint.delta.tolist()]
            nu = [0.0 - tau for tau in joint.tau.tolist()]
            mult = (ctx.block.multiplicity * joint.count).tolist()
            piece = []
            for d, tau in zip(delta, joint.tau.tolist()):
                root = math.sqrt(d)
                if d <= zero:
                    name = "harmonic"
                elif 0.5 * (root + tau) <= zero:
                    name = "reeb_plus"
                elif 0.5 * (root - tau) <= zero:
                    name = "reeb_minus"
                else:
                    name = "bi_positive"
                piece.append(PIECES.index(name))
            for name, values in zip(SLICE_FIELDS, ([lbl] * len(delta), [k] * len(delta), delta, nu, mult, piece)):
                columns[name] += values
            spectrum = [(d, m) for d, m, p in zip(delta, mult, piece) if p != harmonic]
            reeb = [(v**2, m) for v, m, p in zip(nu, mult, piece) if p in one_sided]
            match, _ = _multisets_match(_cluster_multiset(spectrum), _cluster_multiset(reeb))
            report.per_degree_outcomes[(lbl, k)] = match
    report.columns = slice_columns(*columns.values())
    close_reeb_report(report)
    return report


# -- the suites on the dense weight blocks --------------------------------------------


def dense_run_suite(asm: Assembly, suite: str, cfg, keep_memos: bool = False) -> VerificationReport:
    """The report of `cli.run_suite` through the dense per-block bodies below, one block at a
    time: every selected body runs on a context, whose memo is cleared before the next block
    unless `keep_memos`; the rank oracle and the torsion checks are those of the library."""
    from ruminlab import torsion

    tol = cfg.tol
    params = {"model": asm.model.describe(), "max_weight": asm.max_weight, "tol": tol}
    report = VerificationReport(f"suite:{suite}", params)
    default = lambda fn, name: inspect.signature(fn).parameters[name].default  # stated once, in `spectral`
    residual_tol = lambda fn, name="tol": default(fn, name) if tol is None else tol  # what `--tol` overrides
    # the fixed bounds, which `--tol` does not override, are the constants of `spectral`
    selected = lambda name: suite in (name, "all")
    dims = Counter()  # harmonic kernel dimensions of thm1, for the rank oracle
    for ctx in asm.contexts:
        try:
            if selected("thm1"):
                thm1_tol = residual_tol(spectral.verify_kernel_coincidence)
                check_kernel_coincidence(ctx, report, dims, spectral.ANGLE_TOL, thm1_tol)
            if selected("cor2"):
                check_primitivity(ctx, report, tol=residual_tol(spectral.verify_primitivity))
            if selected("cor3"):
                cor3_tol = residual_tol(spectral.verify_deformation_family)
                check_deformation_family(ctx, report, tuple(cfg.t_samples), tol=cor3_tol)
            if selected("sec4"):
                components = low_degree_components(asm, ctx)
                check_sasakian_identities(ctx, report, tol=residual_tol(spectral.verify_sasakian_identities))
                law_tol = residual_tol(spectral.verify_eigenvalue_identity, "tol_rel")
                check_eigenvalue_identity(ctx, report, components, law_tol, spectral.LAW_ZERO_TOL)
                check_middle_degree(ctx, report, components, tol=residual_tol(spectral.verify_middle_degree))
            if suite == "all":
                complex_tol = residual_tol(spectral.verify_complex_property)
                check_complex_property(ctx, report, spectral.COMPLEX_T_SAMPLES, complex_tol)
                check_hodge_block_matrix(ctx, report, tol=residual_tol(spectral.verify_hodge_block_matrix))
                check_star_symmetry(ctx, report, tol=residual_tol(spectral.verify_star_symmetry))
        finally:
            if not keep_memos:
                ctx._cache.clear()
    if selected("thm1"):
        rank_oracle_checks(report, dims, asm)
    if selected("thm5"):
        report.extend(torsion.reeb_decomposition(asm, s_grid=cfg.s_grid).checks)
    return report


def low_degree_components(asm: Assembly, ctx: BlockContext) -> List[Tuple[QComponent, ...]]:
    """`q_decomposition` of the block of `ctx` in every degree below the middle, the components
    that `check_eigenvalue_identity` and `check_middle_degree` read."""
    return [q_decomposition(asm, ctx.block.weight, k) for k in range(ctx.n)]


def check_complex_property(
    ctx: BlockContext, report: VerificationReport, t_samples: Sequence[float], tol: float
):
    """The checks of `spectral.verify_complex_property` on one block, added to `report`."""
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


def check_sasakian_identities(ctx: BlockContext, report: VerificationReport, tol: float):
    """The checks of `spectral.verify_sasakian_identities` on one block, added to `report`."""
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


def check_hodge_block_matrix(ctx: BlockContext, report: VerificationReport, tol: float):
    """The checks of `spectral.verify_hodge_block_matrix` on one block, added to `report`."""
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


def check_kernel_coincidence(
    ctx: BlockContext, report: VerificationReport, dims: Counter, angle_tol: float, tol: float
):
    """The per-block checks of `spectral.verify_kernel_coincidence`, added to `report`.

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


def check_primitivity(ctx: BlockContext, report: VerificationReport, tol: float):
    """The checks of `spectral.verify_primitivity` on one block, added to `report`."""
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


def check_deformation_family(
    ctx: BlockContext, report: VerificationReport, t_samples: Sequence[float], tol: float
):
    """The checks of `spectral.verify_deformation_family` on one block, added to `report`; every t must be positive."""
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


def check_eigenvalue_identity(
    ctx: BlockContext, report: VerificationReport, components: Sequence, tol_rel: float, tol: float
):
    """The checks of `spectral.verify_eigenvalue_identity` on one block, added to `report`; `components`
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


def check_middle_degree(ctx: BlockContext, report: VerificationReport, components: Sequence, tol: float):
    """The checks of `spectral.verify_middle_degree` on one block, added to `report`; `components` is the
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


def check_star_symmetry(ctx: BlockContext, report: VerificationReport, tol: float):
    """The checks of `spectral.verify_star_symmetry` on one block, added to `report`."""
    lbl = ctx.block.label
    for k in range(ctx.Dmax + 1):
        star = ctx.rumin_star(k).matrix
        a = ctx.laplacian_rn(k).matrix
        b = ctx.laplacian_rn(ctx.Dmax - k).matrix
        report.add(f"star_intertwines[{lbl}]k={k}", max_abs(star @ a - b @ star), tol)
        report.add(f"star_isometry[{lbl}]k={k}", max_abs(star.conj().T @ star - np.eye(star.shape[1])), tol)
