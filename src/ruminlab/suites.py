"""The verification suites of `rumin verify` on the Reeb-sector stacks of every weight at once.

Every identity that a suite checks is one between operators that commute with
the Reeb field, so it holds on a weight block exactly when it holds on every
Reeb sector of that block.  The bodies here are the suites of `spectral` as
batched expressions on `Assembly.sector_stacks` (`sectors.SectorStacks`): a
residual max |entry| of a block is the largest over the block's sectors
(`SectorStacks._weight_max`), and a Frobenius norm or a dimension sums over
them (`SectorStacks.per_weight`).

Every stack is real, and its operator is its phase, 1 or i, times it (see
`sectors`): a product multiplies the phases, so the square of an operator of
phase i is minus the square of its stack, and its adjoint is minus the
transpose (`_t`).  Each identity is written on the stacks with those signs;
where only the magnitude of a residual is read, a sign common to all its
terms is dropped.  The fiber tables lift with the phases of
`sectors.FIBER_PHASE`; J mixes both phases and is applied as its real and
imaginary parts.  Every degree outside the complex is the zero space (see
`sectors`), so each identity is written once for every degree: a term that
reaches past an end of the complex is a product through an empty stack, and
zero.

The subspace steps that need vectors (harmonic kernels, images, null spaces and
intersections) are real stacked per-sector `eigh` and SVD calls, one per group
of sectors with equally many valid rows and columns (`SectorStacks.groups`), on
the valid blocks only.  Where only a rank is read (the cor3 joint kernels, the
sec4 corners), `SectorStacks.ranks` decides it from `sectors.singular_values`
of the padded blocks, which also give the largest principal sines of thm1.  A
subspace is a `SectorBasis`: orthonormal columns on every sector, zero where
unused.  Each relative cut takes its scale from the largest eigenvalue or
singular value over the weight's sectors, the scale of the dense weight block;
`_svd_basis` counts its singular values with `SectorStacks.value_ranks`, as
`ranks` does.  Each Laplacian is solved once per run, by its reader: the Rumin
Laplacian of degree k <= n by `Assembly.rumin_rows(k)`, every other one by
`_kernel`, which keeps only its kernel (the de Rham kernels, shared by thm1,
cor2 and cor3: `_harmonic`).

The sec4 components are the joint (Delta, i L_T) eigenspaces of
`Assembly.rumin_rows(n - 1)`, as `torsion` solves them, each with its sector
(`JointRows.sector`), split by the pair `SectorStacks.half_laplacians` that
sec4's half-Laplacian families read; thm1 reads the solve alone.  For n = 1
(the only frames with function blocks) the degree-0 Rumin space has one fiber
vector, so every component is one sector vector and each bi-positive W corner
is that vector or none: the per-vector sec4 families take all corners at once.

Quantities that several suites read are memoized with `_block_memo`, with
the stacks or the assembly, next to the first-order stacks and Laplacians
that `SectorStacks` keeps once `spectral._run_suite` has called
`keep_first_order`, so `verify --suite all` builds each once; a value read
once (a lifted fiber table, the Rumin square root, a Rumin kernel, the Kahler
middle operator) is not kept, and the factored middle operator is kept only as
`SectorStacks.rumin_d(n)`.  The fixed bounds of thm1, of the sec4 law and of
the complex suite's d_t samples are constants of `spectral`.
Each check family reaches the report in one `VerificationReport.add_family`
call (`_add`: one name per weight, its `{lbl}` replaced by the block label),
with no loop over weights; the per-component families of sec4 name each
component `[{lbl}]l=(lambda10, lambda01)` and keep component order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .model import block_label
from .operators import InternalConsistencyError, _block_memo
from .sectors import SectorStacks, _eigh, _gather, _gram, _hermitized, _product, _scatter, _t, singular_values
from .spectral import ANGLE_TOL, COMPLEX_T_SAMPLES, KERNEL_RELATIVE_TOL, LAW_ZERO_TOL, Assembly, VerificationReport

# -- subspaces on the sectors -------------------------------------------------------


@dataclass(frozen=True)
class SectorBasis:
    """Orthonormal vectors of a subspace of one graded space on every sector: column j of
    `vectors[:, :, s]` is a basis vector of sector s where `used[j, s]`, and zero elsewhere."""

    vectors: np.ndarray  # (f, c, S)
    used: np.ndarray  # (c, S)


def _svd_basis(stacks: SectorStacks, stack: np.ndarray, rows, cols, tol: float, image: bool) -> SectorBasis:
    """On every sector of a map with valid rows `rows` and columns `cols`: the left singular
    vectors whose singular value exceeds tol * max(1, the largest singular value of the weight)
    (`image`, as the dense `_image_basis` of `tests/dense_reference.py`), or the right singular
    vectors of the rest, the null space (as `operators._null_basis`)."""
    groups, values = [], np.zeros((rows.shape[1], min(rows.shape[0], cols.shape[0])))
    for sel, ri, ci in stacks.groups(rows, cols):
        r, c = ri.shape[1], ci.shape[1]
        if r and c:
            u, s, vh = np.linalg.svd(_gather(stack, sel, ri, ci))
            values[sel, : s.shape[1]] = s
        else:
            eye = lambda size: np.broadcast_to(np.eye(size), (sel.size, size, size))
            u, vh = eye(r), eye(c)
        groups.append((sel, ri, ci, u, vh))
    ranks = stacks.value_ranks(values, tol)
    f = rows.shape[0] if image else cols.shape[0]
    vectors, used = np.zeros((f, f, rows.shape[1])), np.zeros((f, rows.shape[1]), dtype=bool)
    for sel, ri, ci, u, vh in groups:
        if image:
            keep = np.arange(ri.shape[1])[None, :] < ranks[sel][:, None]
            _scatter(vectors, sel, ri, u * keep[:, None, :])
        else:
            keep = np.arange(ci.shape[1])[None, :] >= ranks[sel][:, None]
            _scatter(vectors, sel, ci, vh.transpose(0, 2, 1) * keep[:, None, :])
        used[: keep.shape[1], sel] = keep.T
    return SectorBasis(vectors, used)


def _identity(valid: np.ndarray) -> np.ndarray:
    """The identity of a graded space on every sector: 1 on its valid positions."""
    return np.eye(valid.shape[0])[:, :, None] * valid[None, :, :]


def _scaled_stack(stacks: SectorStacks, mats: Sequence[np.ndarray]) -> np.ndarray:
    """`spectral._scaled_stack` on every weight: the stacks one above the other, divided by
    max(1, their largest entry on the weight)."""
    scale = np.maximum(1.0, np.max([stacks._weight_max(m) for m in mats], axis=0))
    return np.concatenate(mats) / scale[stacks.owner]


def _intersection(stacks: SectorStacks, bases: Sequence[SectorBasis], valid: np.ndarray):
    """The dense `_subspace_intersection` of `tests/dense_reference.py` on every sector: the
    joint null space of the projectors onto the complements."""
    mats = [_identity(valid) - _product(b.vectors, _t(b.vectors)) for b in bases]
    return _svd_basis(stacks, _scaled_stack(stacks, mats), np.concatenate([valid] * len(mats)), valid, 1e-9, False)


def _principal_sines(stacks: SectorStacks, u: SectorBasis, v: SectorBasis) -> np.ndarray:
    """`spectral.principal_sines` of two subspaces on every weight."""
    du, dv = stacks.per_weight(u.used), stacks.per_weight(v.used)
    top = np.zeros(u.used.shape[1])
    for a, b in ((u.vectors, v.vectors), (v.vectors, u.vectors)):
        r = b - _product(a, _t(a), b)
        if r.any():  # a zero stack has norm 0 on every sector; its SVDs would only confirm that
            top = np.maximum(top, singular_values(r).max(axis=1))
    return np.where(du != dv, 1.0, np.where(du == 0, 0.0, stacks.per_weight(top, np.maximum)))


def _joint_kernel_dims(stacks: SectorStacks, mats: Sequence[np.ndarray], valid: np.ndarray):
    """`spectral.joint_kernel_dim` on every weight: the valid columns less the `ranks`."""
    return stacks.per_weight(valid.sum(axis=0) - stacks.ranks(_scaled_stack(stacks, mats), 1e-9))


def _norms(stacks: SectorStacks, *parts: np.ndarray) -> np.ndarray:
    """The Frobenius norm on every weight of the stack with these real parts (real, imaginary)."""
    return np.sqrt(stacks.per_weight(sum(np.sum(part**2, axis=(0, 1)) for part in parts)))


# -- shared quantities ----------------------------------------------------------------


def _fiber(stacks: SectorStacks, name: str, k: int, k_out: int, imag: bool = False) -> np.ndarray:
    """The fiber table `name` of degree k, lifted between the full spaces of degrees k and k_out, as
    a real stack of phase `sectors.FIBER_PHASE[name]` (J, `jact`, mixes both: its real part, or its
    imaginary part if `imag`).  Not kept: a `verify` run reads each lift once, and a lift is one
    multiply per entry of its plan."""
    return stacks._stack(name, k, (k_out, "imag" if imag else "real") if name == "jact" else k_out)


def _kernel(asm: Assembly, op: str, k: int) -> SectorBasis:
    """The kernel of the degree-k Laplacian `op` on every sector, cut as `spectral._harmonic_basis`
    cuts it; for delta-rn in k <= n from the eigenpairs of `Assembly.rumin_rows(k)`."""
    stacks = asm.sector_stacks
    if op == "delta-rn" and k <= stacks.n:
        joint = asm.rumin_rows(k)
        w, q, used = joint.values, joint.vectors, joint.used
    else:
        valid = stacks.space(k, "rumin" if op == "delta-rn" else "full").valid
        w, q, used = _eigh(stacks.laplacian(op, k), valid, stacks.groups(valid, valid))
    cut = KERNEL_RELATIVE_TOL * np.maximum(1.0, stacks._weight_max(w))
    keep = used & (np.abs(w) <= cut[stacks.owner])
    return SectorBasis(np.where(keep[None], q, 0), keep)


@_block_memo
def _harmonic(asm: Assembly, k: int) -> SectorBasis:
    """The de Rham harmonic kernel of degree k (`_kernel`), which thm1, cor2 and cor3 read."""
    return _kernel(asm, "delta-dr", k)


@_block_memo
def _horizontal_del(stacks: SectorStacks, k: int, anti: bool) -> np.ndarray:
    """Split half of d_b as a map of horizontal spaces."""
    return stacks._compress(stacks.split_db(k, anti), (k + 1, "horizontal"), (k, "horizontal"))


@_block_memo
def _horizontal_lefschetz(stacks: SectorStacks, k: int) -> np.ndarray:
    """Lefschetz wedge H^k -> H^{k+2}."""
    return stacks._compress(_fiber(stacks, "lef", k, k + 2), (k + 2, "horizontal"), (k, "horizontal"))


def _horizontal_reeb(stacks: SectorStacks, k: int) -> np.ndarray:
    """L_T compressed to the horizontal k-forms."""
    return stacks._compress(stacks.lie_reeb(k), (k, "horizontal"), (k, "horizontal"))


def _sqrt_rumin_laplacian(asm: Assembly, k: int) -> np.ndarray:
    """The psd square root of the degree-k Rumin Laplacian (k < n), as `operators.sqrtm_psd`, from
    the eigenpairs of `Assembly.rumin_rows(k)`; read once per run, so not kept."""
    stacks, joint = asm.sector_stacks, asm.rumin_rows(k)
    w, q = joint.values, joint.vectors
    low, high = stacks.per_weight(w, np.minimum), stacks._weight_max(w)
    if np.any(low < -1e-10 * np.maximum(1.0, high)):
        raise InternalConsistencyError("matrix is not positive semidefinite")
    return _product(q * np.sqrt(np.clip(w, 0.0, None))[None], _t(q))


@_block_memo
def _low_components(asm: Assembly):
    """The joint (Delta, i L_T) components of the degree-(n-1) Rumin rows, weight by weight in the
    order of `q_decomposition`: (weight index, sector, lambda10, lambda01) arrays.  Each component
    must be one sector vector."""
    joint = asm.rumin_rows(asm.n - 1)
    if np.any(joint.count != 1):
        raise InternalConsistencyError("a degree-(n-1) joint eigenspace is not one sector vector")
    return (joint.owner, joint.sector, *joint.half_pairs(asm.sector_stacks.half_laplacians(asm.n - 1)))


# -- the suites ----------------------------------------------------------------------


@_block_memo
def _labels(stacks: SectorStacks) -> Tuple[str, ...]:
    return tuple(block_label(m) for m in stacks.weights.tolist())


def _add(report: VerificationReport, name: str, stacks: SectorStacks, values, tol: float, where=None, details=None):
    """One family of checks in one `add_family` call: per weight, `name` with its `{lbl}` replaced
    by the block label, its residual in `values` and its detail in `details` (or none); on the
    weights where `where` holds, if given."""
    head, tail = name.split("{lbl}")
    labels = _labels(stacks)
    if where is not None:
        keep = np.flatnonzero(where)
        kept = keep.tolist()
        labels, values = [labels[i] for i in kept], np.asarray(values, dtype=float)[keep]
        details = None if details is None else [details[i] for i in kept]
    report.add_family([f"{head}{lbl}{tail}" for lbl in labels], values, tol, details)


def check_complex_property(asm: Assembly, report: VerificationReport, tol: float):
    """The checks of `spectral.verify_complex_property`, added to `report`."""
    stacks = asm.sector_stacks
    wmax = stacks._weight_max
    d = [stacks.d(j) for j in range(stacks.Dmax + 1)]
    for k in range(stacks.Dmax):
        _add(report, f"d.d[{{lbl}}]k={k}", stacks, wmax(_product(d[k + 1], d[k])), tol)
        if k + 1 < stacks.Dmax:
            _add(report, f"dN.dN[{{lbl}}]k={k}", stacks, wmax(_product(stacks.rumin_d(k + 1), stacks.rumin_d(k))), tol)
    for t in COMPLEX_T_SAMPLES:
        # each d_t is a left and a right factor: build it once, drop it before the next t
        dt = [stacks.dt(j, t) for j in range(stacks.Dmax + 1)]
        for k in range(stacks.Dmax):
            _add(report, f"dt.dt[{{lbl}}]k={k},t={t}", stacks, wmax(_product(dt[k + 1], dt[k])), tol)
        del dt


def check_hodge_block_matrix(asm: Assembly, report: VerificationReport, tol: float):
    """The checks of `spectral.verify_hodge_block_matrix`, added to `report`."""
    stacks = asm.sector_stacks
    for k in range(stacks.Dmax + 1):
        full = stacks.laplacian("delta-dr", k)
        approx = np.zeros_like(full)
        eh = stacks.embed(k, "horizontal")
        lt = _horizontal_reeb(stacks, k)
        lam = _horizontal_lefschetz(stacks, k - 2)
        top = stacks.laplacian("delta-b", k) + _product(lt, lt) + _product(lam, _t(lam))  # L_T^2 = -lt lt
        approx += _product(eh, top, _t(eh))
        ev = _product(_fiber(stacks, "theta", k - 1, k), stacks.embed(k - 1, "horizontal"))
        lt = _horizontal_reeb(stacks, k - 1)
        lef = _horizontal_lefschetz(stacks, k - 1)
        bot = stacks.laplacian("delta-b", k - 1) + _product(lt, lt) + _product(_t(lef), lef)
        approx += _product(ev, bot, _t(ev))
        dl = _horizontal_del(stacks, k - 1, False)
        dlb = _horizontal_del(stacks, k - 1, True)
        approx += _product(eh, dlb - dl, _t(ev))  # i del - i delbar
        approx += _product(ev, _t(dlb - dl), _t(eh))  # its adjoint
        _add(report, f"hodge_block_matrix[{{lbl}}]k={k}", stacks, stacks._weight_max(full - approx), tol)


def check_star_symmetry(asm: Assembly, report: VerificationReport, tol: float):
    """The checks of `spectral.verify_star_symmetry`, added to `report`."""
    stacks = asm.sector_stacks
    wmax = stacks._weight_max
    top = stacks.Dmax
    mirror = "star does not map the Rumin space to its mirror"
    for k in range(top + 1):
        star = stacks._compress_invariant(_fiber(stacks, "star", k, top - k), (top - k, "rumin"), (k, "rumin"), mirror)
        a, b = stacks.laplacian("delta-rn", k), stacks.laplacian("delta-rn", top - k)
        eye = _identity(stacks.space(k, "rumin").valid)
        _add(report, f"star_intertwines[{{lbl}}]k={k}", stacks, wmax(_product(star, a) - _product(b, star)), tol)
        _add(report, f"star_isometry[{{lbl}}]k={k}", stacks, wmax(_product(_t(star), star) - eye), tol)


def check_kernel_coincidence(asm: Assembly, report: VerificationReport, dims: Counter, tol: float):
    """The per-block checks of `spectral.verify_kernel_coincidence`, added to `report`.

    Adds r * dim of every block's harmonic kernels to `dims["kernel", complex, k]`, for
    `rank_oracle_checks` to compare with the rank oracle.
    """
    stacks = asm.sector_stacks
    wmax = stacks._weight_max
    r = np.array(asm.multiplicity, dtype=int)
    for k in range(stacks.Dmax + 1):
        ker_dr, ker_rn = _harmonic(asm, k), _kernel(asm, "delta-rn", k)
        dim_dr, dim_rn = r * stacks.per_weight(ker_dr.used), r * stacks.per_weight(ker_rn.used)
        dims["kernel", "rumin", k] += int(dim_rn.sum())
        dims["kernel", "de_rham", k] += int(dim_dr.sum())
        phi = _product(stacks.embed(k, "rumin"), ker_rn.vectors)  # harmonic vectors inside the full space
        angles = _principal_sines(stacks, ker_dr, SectorBasis(phi, ker_rn.used))
        details = [f"de_rham={a} rumin={b}" for a, b in zip(dim_dr.tolist(), dim_rn.tolist())]
        _add(report, f"kernel_dims_match[{{lbl}}]k={k}", stacks, np.abs(dim_dr - dim_rn), 0.0, details=details)
        _add(report, f"kernel_subspace_angle[{{lbl}}]k={k}", stacks, angles, ANGLE_TOL)
        if k > stacks.n or not dim_dr.any():
            continue
        horizontal = stacks.embed(k, "horizontal")
        steps = (
            ("step_db_adjoint", wmax(_product(_t(stacks.db(k - 1)), phi))),
            ("step_trace_db", wmax(_product(_fiber(stacks, "lam", k + 1, k - 1), stacks.db(k), phi))),
            ("step_horizontal_laplacian", wmax(_product(stacks.laplacian("delta-b", k), _t(horizontal), phi))),
            ("step_reeb_derivative", wmax(_product(stacks.lie_reeb(k), phi))),
        )
        for name, values in steps:
            _add(report, f"{name}[{{lbl}}]k={k}", stacks, values, tol, dim_dr > 0)


def check_primitivity(asm: Assembly, report: VerificationReport, tol: float):
    """The checks of `spectral.verify_primitivity`, added to `report`."""
    stacks = asm.sector_stacks
    wmax = stacks._weight_max
    n = stacks.n
    r = np.array(asm.multiplicity, dtype=float)
    for k in range(stacks.Dmax + 1):
        ker = _harmonic(asm, k)
        harmonic = stacks.per_weight(ker.used) > 0
        if not harmonic.any():
            continue
        phi = ker.vectors
        rows = []
        if k <= n:
            rows.append(("interior_reeb_vanishes", wmax(_product(_fiber(stacks, "iota", k, k - 1), phi))))
            rows.append(("trace_vanishes", wmax(_product(_fiber(stacks, "lam", k, k - 2), phi))))
        if k >= n + 1:
            rows.append(("theta_wedge_vanishes", wmax(_product(_fiber(stacks, "theta", k, k + 1), phi))))
            rows.append(("lefschetz_vanishes", wmax(_product(_fiber(stacks, "lef", k, k + 2), phi))))
        jphi = [_product(_fiber(stacks, "jact", k, k, imag), phi) for imag in (False, True)]  # J phi, re and im
        lap_jphi = [_product(stacks.laplacian("delta-dr", k), part) for part in jphi]
        rows.append(("j_preserves_harmonics", wmax(np.hypot(*lap_jphi))))
        # Frobenius norms over the r copies of the slot carry a factor sqrt(r)
        rows.append(("j_is_isometry_on_harmonics", np.sqrt(r) * np.abs(_norms(stacks, *jphi) - _norms(stacks, phi))))
        for name, values in rows:
            _add(report, f"{name}[{{lbl}}]k={k}", stacks, values, tol, harmonic)


def check_deformation_family(asm: Assembly, report: VerificationReport, t_samples: Sequence[float], tol: float):
    """The checks of `spectral.verify_deformation_family`, added to `report`; every t must be positive."""
    stacks = asm.sector_stacks
    wmax = stacks._weight_max
    top = stacks.Dmax
    r = np.array(asm.multiplicity, dtype=int)
    # d_t(j) is a factor of degrees j and j+1, so build it once; dt[j + 1] is d_t(j)
    dts = [[stacks.dt(j, t) for j in range(-1, top + 1)] for t in t_samples]
    for k in range(top + 1):
        ker = _harmonic(asm, k)
        dim = stacks.per_weight(ker.used)
        laps = [_hermitized(_gram(dt[k + 1], dt[k]), "deformed Laplacian") for dt in dts]
        if dim.any():
            phi = ker.vectors
            rows = []
            for nm in ("d0", "db", "dT") if k < top else ():
                rows.append((f"piecewise_{nm}[{{lbl}}]k={k}", _product(getattr(stacks, nm)(k), phi)))
            for nm in ("d0", "db", "dT") if k > 0 else ():
                down = getattr(stacks, nm)(k - 1)
                rows.append((f"piecewise_{nm}_adjoint[{{lbl}}]k={k}", _product(_t(down), phi)))
            for t, lap in zip(t_samples, laps):
                rows.append((f"deformed_kills_harmonic[{{lbl}}]k={k},t={t}", _product(lap, phi)))
            for name, value in rows:
                _add(report, name, stacks, wmax(value), tol, dim > 0)
        inter, harmonic = r * _joint_kernel_dims(stacks, laps, stacks.space(k).valid), r * dim
        details = [f"intersection={a} harmonic={b}" for a, b in zip(inter.tolist(), harmonic.tolist())]
        _add(report, f"intersection_dim[{{lbl}}]k={k}", stacks, np.abs(inter - harmonic), 0.0, details=details)


def check_sasakian_identities(asm: Assembly, report: VerificationReport, tol: float):
    """The checks of `spectral.verify_sasakian_identities`, added to `report`."""
    stacks = asm.sector_stacks
    wmax = stacks._weight_max
    n = stacks.n
    dl = lambda q: _horizontal_del(stacks, q, False)
    dlb = lambda q: _horizontal_del(stacks, q, True)
    lef = lambda q: _horizontal_lefschetz(stacks, q)
    lam = lambda q: _t(_horizontal_lefschetz(stacks, q - 2))  # minus the stack of Lambda
    for q in range(0, 2 * n + 1):
        # metric adjoints of the split halves via Lefschetz commutators: the stacks (up to sign) of
        # del* - i[Lambda, delbar], delbar* + i[Lambda, del], del - i[L, delbar*], delbar + i[L, del*]
        r1 = _t(dl(q - 1)) + _product(lam(q + 1), dlb(q)) - _product(dlb(q - 2), lam(q))
        r2 = _t(dlb(q - 1)) - _product(lam(q + 1), dl(q)) + _product(dl(q - 2), lam(q))
        r3 = dl(q) - _product(lef(q - 1), _t(dlb(q - 1))) + _product(_t(dlb(q + 1)), lef(q))
        r4 = dlb(q) + _product(lef(q - 1), _t(dl(q - 1))) - _product(_t(dl(q + 1)), lef(q))
        # graded commutators of the split halves vanish
        anti1 = _product(dl(q - 1), _t(dlb(q - 1))) + _product(_t(dlb(q)), dl(q))
        anti2 = _product(dlb(q - 1), _t(dl(q - 1))) + _product(_t(dl(q)), dlb(q))
        for name, value in (
            ("adjoint_del", r1), ("adjoint_delbar", r2), ("del_from_lefschetz", r3),
            ("delbar_from_lefschetz", r4), ("graded_del_delbar", anti1), ("graded_delbar_del", anti2),
        ):
            _add(report, f"{name}[{{lbl}}]q={q}", stacks, wmax(value), tol)
    # projected halves on the Rumin spaces, degrees <= n
    for k in range(0, n + 1):
        anti = _product(_t(stacks.rumin_del(k, True)), stacks.rumin_del(k, False))
        anti = anti + _product(stacks.rumin_del(k - 1, False), _t(stacks.rumin_del(k - 1, True)))
        _add(report, f"graded_rumin_halves[{{lbl}}]k={k}", stacks, wmax(anti), tol)
    for k in range(0, n):
        lap10, lap01, _ = stacks.half_laplacians(k)
        root = _sqrt_rumin_laplacian(asm, k)
        ilt = -stacks.lie_reeb_rumin(k)  # i L_T
        _add(report, f"sqrt_splits[{{lbl}}]k={k}", stacks, wmax(root - lap10 - lap01), tol)
        _add(report, f"reeb_is_half_difference[{{lbl}}]k={k}", stacks, wmax(ilt - (lap01 - lap10)), tol)
        commute = _product(lap10, lap01) - _product(lap01, lap10)
        _add(report, f"half_laplacians_commute[{{lbl}}]k={k}", stacks, wmax(commute), tol)
    two_forms = stacks.rumin_d(n) - stacks.middle_operator("kahler")  # rumin_d(n) is the factored form
    _add(report, "middle_operator_two_forms[{lbl}]", stacks, wmax(two_forms), tol)


def _column_norms(vectors: np.ndarray) -> np.ndarray:
    """The norm of every column of a real (f, N) array."""
    return np.sqrt(np.sum(vectors**2, axis=0))


def check_eigenvalue_identity(asm: Assembly, report: VerificationReport, tol_rel: float):
    """The checks of `spectral.verify_eigenvalue_identity`, added to `report`, with the components
    of `_low_components`; a value at most `spectral.LAW_ZERO_TOL` counts as zero."""
    stacks = asm.sector_stacks
    n = stacks.n
    labels = _labels(stacks)
    owner, sector, l10, l01 = _low_components(asm)
    lam = (l10 + l01) ** 2
    # law below the middle degree: each component is one sector vector, on which Delta is its entry
    lap_low = stacks.laplacian("delta-rn", n - 1)[0, 0, sector]
    law = np.zeros(len(labels))
    np.maximum.at(law, owner, np.abs(lap_low - lam) / np.maximum(1.0, lam))
    _add(report, "law_below_middle[{lbl}]", stacks, law, tol_rel)

    up, upb = stacks.rumin_del(n - 1, False), stacks.rumin_del(n - 1, True)
    low, mid = stacks.space(n - 1, "rumin").valid, stacks.space(n, "rumin").valid
    lap_mid = stacks.laplacian("delta-rn", n)
    dmid = stacks.rumin_d(n)
    dd = _product(_t(dmid), dmid)
    ilt_mid = -stacks.lie_reeb_rumin(n)  # i L_T
    img = _svd_basis(stacks, np.concatenate([up, upb], axis=1), mid, np.concatenate([low, low]), 1e-9, image=True)
    sub = _hermitized(_product(_t(img.vectors), lap_mid, img.vectors), "operator")
    w, _, used = _eigh(sub, img.used, stacks.groups(img.used, img.used))

    def by_weight(values, at):
        """The values sorted by (weight `at`, value), their weights, and the count on every weight."""
        order = np.lexsort((values, at))
        return values[order], at[order], np.bincount(at, minlength=len(labels))

    # the restricted eigenvalues, and the predicted multiset: lam once for each positive half of its
    # component; a weight without restricted eigenvalues has no check
    values, at, size = by_weight(w[used], np.broadcast_to(stacks.owner, w.shape)[used])
    counts = np.where(l10 > LAW_ZERO_TOL, 1, 0) + np.where(l01 > LAW_ZERO_TOL, 1, 0)
    predicted, predicted_at, predicted_size = by_weight(np.repeat(lam, counts), np.repeat(owner, counts))
    has, same = size > 0, size == predicted_size
    r = np.asarray(asm.multiplicity, dtype=int)
    details = [f"predicted={a} actual={b}" for a, b in zip((r * predicted_size).tolist(), (r * size).tolist())]
    miss = r * np.abs(predicted_size - size)
    _add(report, "law_middle_multiplicity[{lbl}]", stacks, miss, 0.0, has & ~same, details)
    # where the sizes agree, the two sorted lists pair up value by value
    got, want = values[same[at]], predicted[same[predicted_at]]
    law = np.zeros(len(labels))
    np.maximum.at(law, at[same[at]], np.abs(want - got) / np.maximum(1.0, np.abs(want)))
    _add(report, "law_middle_values[{lbl}]", stacks, law, tol_rel, has & same)
    lowest = np.zeros(len(labels))
    lowest[has] = values[(np.cumsum(size) - size)[has]]  # the first value of each weight
    details = [f"min_eigenvalue={x:.6g}" for x in lowest.tolist()]
    _add(report, "restricted_positivity[{lbl}]", stacks, np.where(lowest > LAW_ZERO_TOL, 0.0, 1.0), 0.5, has, details)

    # normalized-pair analysis: a one-sided corner is its component's sector vector, a bi-positive
    # W corner that vector when both adjoint images contain it; dpsi and dbpsi are -i times the
    # images, a factor that no residual below reads
    in_up, in_upb = stacks.ranks(_t(up), 1e-9) > 0, stacks.ranks(_t(upb), 1e-9) > 0
    dpsi, dbpsi = up[:, 0, sector], upb[:, 0, sector]
    n10, n01 = _column_norms(dpsi), _column_norms(dbpsi)
    bi = (l10 > LAW_ZERO_TOL) & (l01 > LAW_ZERO_TOL)
    corner = bi & in_up[sector] & in_upb[sector]
    with np.errstate(divide="ignore", invalid="ignore"):
        # only the columns of W corners are read below
        psi10, psi01 = dpsi / n10, dbpsi / n01
        vplus = np.sqrt(l10) * psi10 + np.sqrt(l01) * psi01
        vminus = np.sqrt(l01) * psi10 - np.sqrt(l10) * psi01
        lam_t = -np.einsum("is,ijs,js->s", vminus, ilt_mid[:, :, sector], vminus) / np.sum(vminus**2, axis=0)
        a_const, b_const = lam_t - 2 * l10, lam_t + 2 * l01
        target = (a_const**2 * l01 + b_const**2 * l10) / (l10 + l01)
        apply = lambda mat, v: np.einsum("ijs,js->is", mat[:, :, sector], v)
        worst = lambda v: np.max(np.abs(v), axis=0)
        residuals = (
            ("norm_sq_is_lambda10", np.abs(n10**2 - l10) / np.maximum(1.0, l10)),
            ("norm_sq_is_lambda01", np.abs(n01**2 - l01) / np.maximum(1.0, l01)),
            ("image_eigenvalue", worst(apply(lap_mid, vplus) - lam * vplus) / np.maximum(1.0, lam)),
            ("complement_eigenvalue", worst(apply(lap_mid, vminus) - lam * vminus) / np.maximum(1.0, lam)),
            ("middle_formula", worst(apply(dd, vminus) - target * vminus) / np.maximum(1.0, np.abs(target))),
            ("middle_formula_value", np.abs(target - (lam_t**2 + 4 * l10 * l01)) / np.maximum(1.0, np.abs(target))),
            ("reeb_tag", np.abs(lam_t - (l10 - l01)) / np.maximum(1.0, np.abs(lam_t))),
        )
    # one family per kind of corner check, each over its components in component order
    low10, low01 = l10 <= LAW_ZERO_TOL, l01 <= LAW_ZERO_TOL
    tags = [f"[{labels[i]}]l=({a:.6g},{b:.6g})" for i, a, b in zip(owner.tolist(), l10.tolist(), l01.tolist())]
    r = r[owner]
    del_rank, delbar_rank = n10 > LAW_ZERO_TOL, n01 > LAW_ZERO_TOL
    family = lambda name, at, suffix="": [f"{name}{tags[i]}{suffix}" for i in at.tolist()]
    pairs = lambda fmt, a, b: [fmt.format(x, y) for x, y in zip(a.tolist(), b.tolist())]
    # one-sided corners: the surviving map is a bijection
    one = np.flatnonzero((low10 | low01) & ~(low10 & low01))
    rank = np.where(l10 > LAW_ZERO_TOL, del_rank, delbar_rank)[one]
    details = pairs("rank={} dim={}", r[one] * rank, r[one])
    report.add_family(family("corner_bijective_one_sided", one), np.where(rank, 0.0, 1.0), 0.5, details)
    both = np.flatnonzero(~(low10 | low01))
    w_dim = corner[both].astype(int)
    details = pairs("w={} q={}", r[both] * w_dim, r[both])
    report.add_family(family("w_corner_dim", both), r[both] * np.abs(w_dim - 1), 0.0, details)
    # (A (x) I)(w (x) e_j) = (Aw) (x) e_j: each slot vector w stands for its r copies in W (x) C^r
    corners = both[w_dim == 1]
    details = [f"multiplicity={x}" for x in r[corners].tolist()]
    for name, values in residuals:
        report.add_family(family(name, corners, "v=0"), values[corners], tol_rel, details)
    # corner bijections out of the W corner
    for ranks, nm in ((del_rank, "del"), (delbar_rank, "delbar")):
        rank = ranks[both] * w_dim
        details = pairs("rank={} dim={}", r[both] * rank, r[both] * w_dim)
        report.add_family(family(f"corner_bijective_{nm}", both), np.where(rank == w_dim, 0.0, 1.0), 0.5, details)


def check_middle_degree(asm: Assembly, report: VerificationReport, tol: float):
    """The checks of `spectral.verify_middle_degree`, added to `report`, with the components of
    `_low_components`."""
    stacks = asm.sector_stacks
    wmax = stacks._weight_max
    n = stacks.n
    up, upb = stacks.rumin_del(n - 1, False), stacks.rumin_del(n - 1, True)
    low, mid = stacks.space(n - 1, "rumin").valid, stacks.space(n, "rumin").valid
    lap_mid = stacks.laplacian("delta-rn", n)
    lt = stacks.lie_reeb_rumin(n)
    square = lap_mid - _product(lt, lt)  # Delta + L_T^2, with L_T of phase i
    codifferentials = np.concatenate([_t(up), _t(upb)])  # minus the stacks of their adjoints
    coexact = _svd_basis(stacks, codifferentials, np.concatenate([low, low]), mid, 1e-10, image=False)
    has = stacks.per_weight(coexact.used) > 0
    if has.any():
        c = coexact.vectors
        dmid = stacks.rumin_d(n)
        dd = _product(_t(dmid), dmid)
        _add(report, "coexact_reeb_square[{lbl}]", stacks, wmax(_product(square, c)), tol, has)
        _add(report, "coexact_middle_square[{lbl}]", stacks, wmax(_product(dd - _product(lt, lt), c)), tol, has)
        _add(report, "coexact_two_routes[{lbl}]", stacks, wmax(_product(lap_mid - dd, c)), tol, has)
        # Reeb eigenspace slices carry nu^2
        sub = _hermitized(-_product(_t(c), lt, c), "operator")  # i L_T on the coexact space
        w, q, used = _eigh(sub, coexact.used, stacks.groups(coexact.used, coexact.used))
        vec = _product(c, q)
        nu2 = w**2
        resid = np.max(np.abs(_product(lap_mid, vec) - nu2[None] * vec), axis=0) / np.maximum(1.0, nu2)
        _add(report, "reeb_slices_square[{lbl}]", stacks, stacks._weight_max(np.where(used, resid, 0.0)), tol, has)
    # one-sided kernels of the half Laplacians below the middle degree; each component is one sector vector
    owner, sector, l10, l01 = _low_components(asm)
    lap_low, lt_low = stacks.laplacian("delta-rn", n - 1), stacks.lie_reeb_rumin(n - 1)
    values = np.abs((lap_low - _product(lt_low, lt_low))[0, 0, sector])
    worst = np.zeros(stacks.weights.size)
    np.maximum.at(worst, owner, np.where((l10 <= tol) != (l01 <= tol), values, 0.0))
    _add(report, f"one_sided_laplacian_reeb_square[{{lbl}}]k={n - 1}", stacks, worst, tol)
    # middle-degree one-sided images
    for anti in (False, True):
        img = _svd_basis(stacks, upb if anti else up, mid, low, 1e-9, image=True)
        ker_other = _svd_basis(stacks, stacks.half_laplacian(n, not anti), mid, mid, 1e-10, image=False)
        sect = _intersection(stacks, [img, ker_other], mid)
        name = f"one_sided_middle_reeb_square[{{lbl}}]anti={anti}"
        _add(report, name, stacks, wmax(_product(square, sect.vectors)), tol, stacks.per_weight(sect.used) > 0)
