"""Reeb-sector stacks: the `spectrum` operators of every weight block at once.

On weight m a graded space is (fiber basis) (x) W_m, with basis vector
i*(m+1) + b for fiber vector i and slot b, as in `operators`.  The Reeb
operator i L_T is diagonal there: fiber vector i has an integer Reeb weight
rho_i (i L_T of the coframe rotation) and slot b adds m - 2b, so the basis
vector lies in the Reeb sector tau = rho_i + m - 2b, and fiber vector i sits in
slot b = (rho_i + m - tau)/2 of sector tau.  A sector holds at most one slot of
each fiber vector, so its operator block is at most f x f, with f <= 3.

Every operator of the calculus is a short sum of fiber (x) slot terms F (x) A,
where A is the identity or a ladder operator J_z, J_plus, J_minus of W_m (each
frame field acts as c_z J_z + c_plus J_plus + c_minus J_minus,
`model.field_ladder_coefficients`).  A term keeps the sectors exactly when F
couples only fiber vectors whose weights differ by twice the slot shift of A
(0, +1 or -1); an off-sector coefficient above `LEAK_TOL` raises.
`SectorStacks` lays out the sectors (m, tau) of every nonempty weight m <= M
once and holds each operator as one zero-padded (f_out, f_in, S) stack over
all S sectors, the sector axis last.  A term is one multiply-add of its fiber
table with a slot table of ladder radicands (`_slot_table`); products,
adjoints and compressions onto subspaces (fiber basis (x) I, the bases of
`BlockContext.space`, in the same column order) are one `einsum` each.

Every stack is real (`float64`), and its operator is a fixed phase, 1 or i,
times it: i for the first-order operators (d, d0, dT, d_b, d_t, the split
halves of d_b, L_T and its Rumin compression, the Rumin differentials and
halves, and the middle operator), 1 for the embeddings and the (half)
Laplacians.  A product multiplies the phases (i * i = -1 flips the sign of
the stack), and the adjoint of a stack of phase i is minus its transpose
(`_t`), so A* A has the stack A^T A for either phase.  `_stack` checks the
phase of every term: an entry of the other phase above `LEAK_TOL` raises, as
an off-sector entry does.  So every solve runs in real arithmetic.

`spectrum_rows` gives one degree of a `spectrum` Laplacian as a `RowStack`,
which `rows.solve_rows` solves over every weight together.  `_eigh`
diagonalizes a stack with one stacked `eigh` per group of equally large
sectors (`_groups`, built once per pair of masks by `SectorStacks.groups`),
on the valid blocks only, so the zero padding never enters a decomposition.
The sector blocks keep the checks of the dense route at the same tolerances:
hermiticity, Reeb invariance of the Rumin space, the middle operator's target
space, the half-Laplacian commutator, and exhaustion of every space by its
sectors.  `cohomology_dims` is the rank oracle of `verify --suite thm1` and
`torsion`.  Every `verify` suite reads these stacks too (`suites`).  Tier-1
compares every stack, and every suite report, with the dense `BlockContext`
route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import FrameStructure, field_ladder_coefficients, ladder_radicands
from .operators import (
    BlockContext,
    InternalConsistencyError,
    StructuralError,
    _block_memo,
    _frozen,
    _memo_in,
    max_abs,
    phase_part,
    rescale_coefficient,
)

LEAK_TOL = 1e-12  # largest off-sector or wrong-phase coefficient of a fiber (x) slot term
FACTORS = ("z", "+", "-")  # the ladder factors, in the order of `field_ladder_coefficients`
SHIFT = {"1": 0, "z": 0, "+": 1, "-": -1}  # slot shift b_out - b_in of each slot factor
SPECTRUM_FLAVOR = {"delta-rn": "rumin", "delta-dr": "full", "delta-t": "full", "delta-b": "horizontal"}


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an integer array (`np.unique` imports `numpy.ma`: +0.85 MB of RSS)."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class _NoMemo(dict):
    """A memo that keeps nothing: every lookup misses and every store is dropped."""

    def __setitem__(self, key, value):
        pass


_first_order_memo = _memo_in("_first_order")  # kept in the stacks' memo once `keep_first_order` is called


def _t(stack: np.ndarray) -> np.ndarray:
    """The transpose of every block: the adjoint of a stack of phase 1, minus that of phase i."""
    return stack.transpose(1, 0, 2)


def _product(*stacks: np.ndarray) -> np.ndarray:
    """The blockwise matrix product of stacks."""
    return reduce(lambda a, b: np.einsum("ijs,jks->iks", a, b), stacks)


def _groups(rows: np.ndarray, cols: np.ndarray):
    """The sectors grouped by their numbers (r, c) of valid rows and columns, from (f_out, S) and
    (f_in, S) masks: per group, (sectors, the (n, r) row positions, the (n, c) column positions),
    positions ascending."""
    nr, nc = rows.sum(axis=0), cols.sum(axis=0)
    prow = np.argsort(~rows, axis=0, kind="stable")  # the valid positions of a sector first
    pcol = np.argsort(~cols, axis=0, kind="stable")
    key = nr * (cols.shape[0] + 1) + nc
    out = []
    for value in _distinct(key):
        sel = np.flatnonzero(key == value)
        out.append((sel, prow[: nr[sel[0]], sel].T, pcol[: nc[sel[0]], sel].T))
    return out


def _gather(stack: np.ndarray, sel, ri, ci) -> np.ndarray:
    """The (n, r, c) valid blocks of a group of `_groups`."""
    return stack[ri[:, :, None], ci[:, None, :], sel[:, None, None]]


def _scatter(out: np.ndarray, sel, ri, values: np.ndarray):
    """Write (n, r, c) blocks into rows `ri` and columns 0..c-1 of `out`."""
    cols = np.arange(values.shape[2])
    out[ri[:, :, None], cols[None, None, :], sel[:, None, None]] = values


def _eigh(stack: np.ndarray, valid: np.ndarray, groups):
    """Eigenpairs of the Hermitian sector blocks of `stack` on the valid positions `valid` (f, S),
    one stacked `eigh` per group of `groups` (`_groups(valid, valid)`): eigenvalues (f, S)
    ascending from row 0 and zero beyond the sector's size, eigenvectors (f, f, S) of the stack's
    dtype in the same columns, and the (f, S) mask of the columns in use."""
    f, sectors = valid.shape
    w, used = np.zeros((f, sectors)), np.zeros((f, sectors), dtype=bool)
    q = np.zeros((f, f, sectors), dtype=stack.dtype)
    for sel, pos, _ in groups:
        size = pos.shape[1]
        if size:
            vals, vecs = np.linalg.eigh(_gather(stack, sel, pos, pos))
            w[:size, sel], used[:size, sel] = vals.T, True
            _scatter(q, sel, pos, vecs)
    return w, q, used


def _max_per_row(stack: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """max |entry| of a stack (sector axis last) over the sectors starts[w]:starts[w + 1] of each row w."""
    if not stack.size:
        return np.zeros(starts.size - 1)
    per_sector = np.abs(stack).reshape(-1, stack.shape[-1]).max(axis=0)
    return np.maximum.reduceat(per_sector, starts[:-1])


def _gram(up, down, mat=0.0):
    """mat + up* up + down down* for stacks up and down of one phase (as A* A has the stack A^T A
    for either phase); None leaves a term out."""
    if up is not None:
        mat = mat + _product(_t(up), up)
    if down is not None:
        mat = mat + _product(down, _t(down))
    return mat


def _hermitized(stack: np.ndarray, what: str, tol: float = 1e-9) -> np.ndarray:
    """`operators.hermitize` of every block of a real stack."""
    if max_abs(stack - _t(stack)) > tol:
        raise InternalConsistencyError(f"{what} is not Hermitian within {tol}")
    return 0.5 * (stack + _t(stack))


@dataclass(frozen=True)
class RowStack:
    """A Hermitian operator of one degree on the Reeb sectors of every row (a weight block, or one
    dense pair of `spectral._reeb_sectors`), as one zero-padded (f, f, S) stack.  The sectors of
    row w are `starts[w]:starts[w + 1]`, by ascending tau; position i of sector s is in use where
    `valid[i, s]`, with basis index `index[i, s]` in its row.  Below the middle degree of the
    Rumin complex, `halves` holds the half-Laplacian stacks (Delta_del, Delta_delbar) and their
    scale max(1, max |entry|) per row.  `groups` is `_groups(valid, valid)`, built unless given."""

    stack: np.ndarray  # (f, f, S)
    owner: np.ndarray  # (S,) the row of each sector
    tau: np.ndarray  # (S,) its Reeb value
    valid: np.ndarray  # (f, S)
    index: np.ndarray  # (f, S)
    dims: np.ndarray  # (W,) the dimension of each row
    halves: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    groups: Optional[Sequence[tuple]] = None

    def __post_init__(self):
        if self.groups is None:
            object.__setattr__(self, "groups", _groups(self.valid, self.valid))

    @property
    def starts(self) -> np.ndarray:
        return np.searchsorted(self.owner, np.arange(self.dims.size + 1))


@dataclass(frozen=True)
class SectorSpace:
    """A graded space over the sectors: the Reeb weights of its fiber basis, and their slots."""

    rho: np.ndarray  # (f,) integer Reeb weights
    slot: np.ndarray  # (f, S) slot b of each fiber vector in each sector
    valid: np.ndarray  # (f, S) whether that slot exists, 0 <= b <= m

    @property
    def dim(self) -> int:
        return self.rho.size


class SectorStacks:
    """The operators of `rumin spectrum`, the Reeb decomposition and the rank oracle on the Reeb
    sectors of every weight in `weights` (ascending, without repeats), as real stacks.

    Sectors are ordered by weight, then by ascending tau; `m`, `tau` and `owner` (the position of
    the sector's weight in `weights`) are (S,) arrays, and the sectors of weights[w] are
    `starts[w]:starts[w + 1]`.  The fiber tables are those of the frame for the whole process
    (`BlockContext`), or the private `tables` if given.  The layout (the spaces, their Reeb weights
    and the `groups` of each pair of masks), the embeddings and the stacks that more than one
    degree reads (d_b, the Rumin differentials, the middle operator) are memoized per instance.
    The first-order stacks, the slot tables, the Laplacians and their eigensolves (`eigh`) are
    rebuilt on every call, which keeps the peak memory of `spectrum` and `torsion` low, until
    `keep_first_order` is called, as the `verify` suites do: then each is built once and kept.
    """

    def __init__(self, frame: FrameStructure, weights: Sequence[int], tables: Optional[Dict] = None):
        self.fibers = BlockContext(frame, None, tables)  # the fiber tables depend on the frame alone
        self.frame = frame
        self.n, self.Dmax = frame.n, frame.dim
        self.weights = np.asarray(weights, dtype=int)
        self.ladder = field_ladder_coefficients()
        self._cache: Dict = {}
        self._first_order: Dict = _NoMemo()
        # every (m, tau) that a full-space basis vector of some degree reaches
        rho = _distinct(np.concatenate([self._reeb_weights(k, "full") for k in range(self.Dmax + 1)]))
        slots = np.concatenate([np.arange(m + 1) for m in self.weights]) if self.weights.size else np.zeros(0, int)
        ms = np.repeat(self.weights, self.weights + 1)
        top = int(self.weights.max(initial=0))
        low, span = int(rho.min()) - top, int(rho.max() - rho.min()) + 2 * top + 1
        keys = _distinct((ms * span)[:, None] + (rho[None, :] + (ms - 2 * slots)[:, None] - low))
        self.m, self.tau = keys // span, keys % span + low
        self.owner = np.searchsorted(self.weights, self.m)
        self.starts = np.searchsorted(self.owner, np.arange(self.weights.size + 1))

    # -- spaces -------------------------------------------------------------------

    @_block_memo
    def _reeb_weights(self, k: int, flavor: str) -> np.ndarray:
        """The integer Reeb weight of every fiber vector of the degree-k space `flavor`."""
        fib = self.fibers.space_fiber(k, flavor)
        w = np.real(np.sum(fib.conj() * ((1j * self.fibers._fiber("rot", k)) @ fib), axis=0))
        rho = np.rint(w).astype(int)
        if max_abs(w - rho) > LEAK_TOL:
            raise InternalConsistencyError(f"a degree-{k} {flavor} fiber vector has no integer Reeb weight")
        return rho

    @_block_memo
    def space(self, k: int, flavor: str = "full") -> SectorSpace:
        rho = self._reeb_weights(k, flavor)
        twice = rho[:, None] + (self.m - self.tau)[None, :]  # 2b
        valid = (twice % 2 == 0) & (twice >= 0) & (twice <= 2 * self.m)
        if self.m.size:
            count = np.add.reduceat(valid.sum(axis=0), self.starts[:-1])
            if np.any(count != rho.size * (self.weights + 1)):
                raise InternalConsistencyError(f"Reeb sectors do not exhaust the degree-{k} {flavor} space")
        return SectorSpace(rho, twice // 2, valid)

    def groups(self, rows: np.ndarray, cols: np.ndarray):
        """`_groups(rows, cols)` of two (f, S) masks, built once per pair of masks."""
        key = ("SectorStacks.groups", (rows.tobytes(), cols.tobytes()))  # S is fixed, so the bytes give f
        if key not in self._cache:
            self._cache[key] = _frozen(_groups(rows, cols))
        return self._cache[key]

    @_first_order_memo
    def _slot_table(self, k: int, flavor: str, factor: str) -> np.ndarray:
        """The slot factor at (slot b + shift, slot b) for the slot b of every fiber vector of the
        degree-k space `flavor` in every sector, zero where b does not exist: (f, S).  Slot b + shift
        is missing only where the factor vanishes (J_plus on b = m, J_minus on b = 0), so this table
        masks every block of a term that keeps its sectors."""
        space, m = self.space(k, flavor), self.m
        if factor in ("1", "z"):
            values = np.ones(space.slot.shape) if factor == "1" else (2 * space.slot - m) / 2
        else:
            plus, minus = ladder_radicands(m, space.slot)
            values = np.sqrt(np.maximum(plus if factor == "+" else minus, 0))
        return np.where(space.valid, values, 0.0)

    def _stack(self, terms, out: Tuple[int, str], inn: Tuple[int, str], phase: complex = 1) -> np.ndarray:
        """The sum of fiber (x) slot terms (F, factor), F in the fiber bases of the spaces `out` and
        `inn` ((k, flavor) keys), divided by its `phase` (1 or 1j), as a real (f_out, f_in, S)
        stack; raises when a term couples two sectors or has an entry of the other phase."""
        rho_out, rho_in = self.space(*out).rho, self.space(*inn).rho
        stack = np.zeros((rho_out.size, rho_in.size, self.m.size))
        for fib, factor in terms:
            keep = rho_out[:, None] - rho_in[None, :] == 2 * SHIFT[factor]
            leak = max_abs(fib[~keep])
            if leak > LEAK_TOL:
                raise InternalConsistencyError(f"a fiber (x) {factor} term leaves its Reeb sector ({leak:.3e})")
            real = phase_part(fib, phase, f"a fiber (x) {factor} term", LEAK_TOL)
            stack += np.where(keep, real, 0.0)[:, :, None] * self._slot_table(*inn, factor)[None, :, :]
        return stack

    def _fiber_op(self, fib: np.ndarray, k_out: int, k_in: int, phase: complex = 1) -> np.ndarray:
        """fib (x) I between the full spaces of degrees k_in and k_out, divided by its phase."""
        return self._stack([(fib, "1")], (k_out, "full"), (k_in, "full"), phase)

    @_block_memo
    def embed(self, k: int, flavor: str) -> np.ndarray:
        """The isometry of the degree-k space `flavor` into the full space."""
        return self._stack([(self.fibers.space_fiber(k, flavor), "1")], (k, "full"), (k, flavor))

    def _compress(self, stack: np.ndarray, out: Tuple[int, str], inn: Tuple[int, str]) -> np.ndarray:
        return _product(_t(self.embed(*out)), stack, self.embed(*inn))

    def _compress_invariant(self, stack: np.ndarray, out: Tuple[int, str], inn: Tuple[int, str], what: str):
        """`_compress` of a full-space stack that must map the space `inn` into `out`, as
        `BlockContext._compress_invariant`."""
        op = self._compress(stack, out, inn)
        resid = max_abs(_product(stack, self.embed(*inn)) - _product(self.embed(*out), op))
        if resid > 1e-10:
            raise InternalConsistencyError(f"{what} ({resid:.2e})")
        return op

    # -- first-order operators: phase i ------------------------------------------------

    def keep_first_order(self):
        """Keep every first-order stack, slot table, Laplacian and eigensolve in the memo from now on."""
        self._first_order = self._cache

    @_first_order_memo
    def d(self, k: int) -> np.ndarray:
        """d on full k-forms: the coframe part dmon (x) I plus sum_a wedge_a (x) (field a)."""
        fields = self.frame.field_names
        terms = [(self.fibers._fiber("dmon", k), "1")]
        for j, factor in enumerate(FACTORS):
            fib = sum(self.ladder[name][j] * self.fibers._wedge_fiber(a, k) for a, name in enumerate(fields))
            terms.append((fib, factor))
        return self._stack(terms, (k + 1, "full"), (k, "full"), 1j)

    @_first_order_memo
    def lie_reeb(self, k: int) -> np.ndarray:
        """L_T on full k-forms: I (x) (action of T) plus the coframe rotation."""
        eye = np.eye(self.space(k).dim)
        reeb = self.ladder[self.frame.field_names[0]]
        terms = [(c * eye, factor) for c, factor in zip(reeb, FACTORS)]
        terms.append((self.fibers._fiber("rot", k), "1"))
        return self._stack(terms, (k, "full"), (k, "full"), 1j)

    @_first_order_memo
    def lie_reeb_rumin(self, k: int) -> np.ndarray:
        """L_T on the degree-k Rumin space, which it must map into itself."""
        what = "Reeb derivative does not preserve the Rumin space"
        return self._compress_invariant(self.lie_reeb(k), (k, "rumin"), (k, "rumin"), what)

    @_first_order_memo
    def d0(self, k: int) -> np.ndarray:
        if k == 0:
            return np.zeros((self.space(1).dim, self.space(0).dim, self.m.size))
        return self._fiber_op(self.fibers._fiber("lef", k - 1) @ self.fibers._fiber("iota", k), k + 1, k, 1j)

    @_first_order_memo
    def dT(self, k: int) -> np.ndarray:
        theta = self._fiber_op(self.fibers._fiber("theta", k), k + 1, k)
        horiz = self._fiber_op(self.fibers._fiber("horiz", k), k, k)
        return _product(theta, self.lie_reeb(k), horiz)

    @_block_memo
    def db(self, k: int) -> np.ndarray:
        return self.d(k) - self.d0(k) - self.dT(k)

    def dt(self, k: int, t: float) -> np.ndarray:
        return self.d0(k) + t * self.db(k) + t * t * self.dT(k)

    @_first_order_memo
    def split_db(self, k: int, anti: bool = False) -> np.ndarray:
        """The (1,0) or (0,1) part of d_b on horizontal k-forms, as `BlockContext.del_full`."""
        proj = lambda deg, i, j: self.fibers._bidegree_fiber_projector(deg, i, j) > 0
        keep = np.zeros((self.space(k + 1).dim, self.space(k).dim), dtype=bool)
        leaks = np.zeros_like(keep)
        for i in range(k + 1):
            j = k - i
            cols, rows_10, rows_01 = proj(k, i, j), proj(k + 1, i + 1, j), proj(k + 1, i, j + 1)
            keep |= np.outer(rows_01 if anti else rows_10, cols)
            leaks |= np.outer(~(rows_10 | rows_01), cols)
        db = self.db(k)
        if max_abs(db[leaks]) > 1e-12:
            raise StructuralError("d_b has bidegree components beyond (1,0)+(0,1); frame is not Sasakian")
        return np.where(keep[:, :, None], db, 0)

    # -- the Rumin complex: phase i ---------------------------------------------------

    @_block_memo
    def middle_operator(self, variant: str = "factored") -> np.ndarray:
        """The middle operator on the middle Rumin space, as `BlockContext.middle_operator(variant)`:
        theta ^ (L_T + d_b L^-1 d_b) ("factored"; L^-1 has phase i, so d_b L^-1 d_b has -i) or
        theta ^ (L_T - i (del + delbar)(del* - delbar*)) ("kahler"; the product has phase 1)."""
        n = self.n
        if variant == "factored":
            linv = self._fiber_op(self.fibers.lefschetz_inverse_fiber(), n - 1, n + 1, 1j)
            core = self.lie_reeb(n) - _product(self.db(n - 1), linv, self.db(n))
        elif variant == "kahler":
            dl, dlb = self.split_db(n - 1), self.split_db(n - 1, anti=True)
            core = self.lie_reeb(n) - _product(dl + dlb, _t(dl - dlb))
        else:
            raise KeyError(variant)
        full = _product(self._fiber_op(self.fibers._fiber("theta", n), n + 1, n), core)
        return self._compress_invariant(full, (n + 1, "rumin"), (n, "rumin"), "middle operator leaves its target space")

    @_block_memo
    def rumin_d(self, k: int) -> np.ndarray:
        if k == self.n:
            return self.middle_operator()
        return rescale_coefficient(self.n, k) * self._compress(self.d(k), (k + 1, "rumin"), (k, "rumin"))

    @_first_order_memo
    def rumin_del(self, k: int, anti: bool) -> np.ndarray:
        """A half of the Rumin differential on degree k <= n, as `BlockContext.rumin_del`: into the
        next Rumin space below the middle degree, into the horizontal (n+1)-forms from it."""
        target = (k + 1, "rumin" if k < self.n else "horizontal")
        return rescale_coefficient(self.n, k) * self._compress(self.split_db(k, anti), target, (k, "rumin"))

    # -- second-order operators: phase 1 -------------------------------------------------

    def half_laplacian(self, k: int, anti: bool) -> np.ndarray:
        """Delta_del or Delta_delbar on the degree-k Rumin space (k <= n), as
        `BlockContext.rumin_del_laplacian`."""
        return _gram(self.rumin_del(k, anti), self.rumin_del(k - 1, anti) if k >= 1 else None)

    def half_laplacians(self, k: int):
        """(Delta_del, Delta_delbar) on the degree-k Rumin space below the middle degree,
        hermitized, and their scale max(1, max |entry|) per weight, after checking that they
        commute on every weight."""
        if k > self.n - 1:
            raise ValueError("the simultaneous decomposition is defined below middle degree")
        a, b = (_hermitized(self.half_laplacian(k, anti), "half Laplacian") for anti in (False, True))
        scale = np.maximum(1.0, np.maximum(self._weight_max(a), self._weight_max(b)))
        comm = self._weight_max(_product(a, b) - _product(b, a))
        if np.any(comm > 1e-10 * scale):
            what = f"half Laplacians do not commute (residual {comm.max():.3e}); cannot decompose"
            raise InternalConsistencyError(what)
        return a, b, scale

    @_block_memo
    def cohomology_dims(self, complex_name: str, multiplicity: Tuple[int, ...]) -> Tuple[int, ...]:
        """dim H^k of the "rumin" or "de_rham" complex for every degree k: the sum over weights of
        r (dim_k - rank d_k - rank d_{k-1}), with r = multiplicity[w] copies of weight weights[w].
        A differential maps every Reeb sector into itself, so its rank on a weight is the sum of
        the ranks of its sector blocks, whose singular values count above 1e-8 * max(1, the
        largest singular value on the weight), the threshold of the dense weight block."""
        if not self.m.size:
            return (0,) * (self.Dmax + 1)
        flavor = "rumin" if complex_name == "rumin" else "full"
        ranks = np.zeros((self.Dmax + 2, self.weights.size), dtype=int)  # row k + 1: rank of d_k
        for k in range(self.Dmax):
            stack = self.rumin_d(k) if complex_name == "rumin" else self.d(k)
            values = np.linalg.svd(stack.transpose(2, 0, 1), compute_uv=False)  # (S, min(f_out, f_in))
            top = np.maximum(1.0, self._weight_max(values.T))
            above = values > 1e-8 * top[self.owner][:, None]
            ranks[k + 1] = np.add.reduceat(above.sum(axis=1), self.starts[:-1])
        dims = [self.space(k, flavor).dim * (self.weights + 1) - ranks[k + 1] - ranks[k] for k in range(self.Dmax + 1)]
        return tuple(int(np.dot(multiplicity, d)) for d in dims)

    def _weight_max(self, stack: np.ndarray) -> np.ndarray:
        """max |entry| of a stack over the sectors of each weight."""
        return _max_per_row(stack, self.starts)

    @_first_order_memo
    def laplacian(self, op: str, k: int, t: float = 1.0) -> np.ndarray:
        """The Laplacian of the `spectrum` operator `op` on its degree-k space, hermitized; kept with
        the first-order stacks."""
        if op == "delta-rn":  # (d*d)^2 + (dd*)^2, with the middle operator D = rumin_d(n) entering as D*D
            mat = np.zeros((self.space(k, "rumin").dim,) * 2 + (self.m.size,))
            if k < self.Dmax:
                up = self.rumin_d(k)
                square = _product(_t(up), up)
                mat = mat + (square if k == self.n else _product(square, square))
            if k > 0:
                down = self.rumin_d(k - 1)
                square = _product(down, _t(down))
                mat = mat + (square if k == self.n + 1 else _product(square, square))
            return _hermitized(mat, "Rumin Laplacian")
        if op == "delta-b":
            top = 2 * self.n
            up = self._compress(self.db(k), (k + 1, "horizontal"), (k, "horizontal")) if k < top else None
            down = self._compress(self.db(k - 1), (k, "horizontal"), (k - 1, "horizontal")) if k > 0 else None
            return self._hodge_sum(up, down, (k, "horizontal"), "horizontal Laplacian")
        if op in ("delta-dr", "delta-t"):
            diff = self.d if op == "delta-dr" else (lambda j: self.dt(j, t))
            up = diff(k) if k < self.Dmax else None
            down = diff(k - 1) if k > 0 else None
            what = "Hodge-de Rham Laplacian" if op == "delta-dr" else "deformed Laplacian"
            return self._hodge_sum(up, down, (k, "full"), what)
        raise KeyError(op)

    def eigh(self, op: str, k: int, t: float = 1.0, stack: Optional[np.ndarray] = None):
        """The eigenpairs of `laplacian(op, k, t)` on every sector (`_eigh`), kept with the first-order
        stacks; `stack` is that Laplacian if the caller holds it, so that it is not built twice."""
        key = ("SectorStacks.eigh", (op, k, t))
        eig = self._first_order.get(key)
        if eig is None:
            lap = self.laplacian(op, k, t) if stack is None else stack
            valid = self.space(k, SPECTRUM_FLAVOR[op]).valid
            eig = self._first_order[key] = _frozen(_eigh(lap, valid, self.groups(valid, valid)))
        return eig

    def _hodge_sum(self, up, down, space: Tuple[int, str], what: str) -> np.ndarray:
        """`_gram` on the space `space`, hermitized, as `operators._hodge_sum`."""
        return _hermitized(_gram(up, down, np.zeros((self.space(*space).dim,) * 2 + (self.m.size,))), what)

    def _check_reeb(self, k: int, flavor: str):
        """i L_T is tau on every sector of the degree-k space `flavor`, whose space L_T must preserve."""
        if flavor == "rumin":
            lt = self.lie_reeb_rumin(k)
        elif flavor == "full":
            lt = self.lie_reeb(k)
        else:
            lt = self._compress(self.lie_reeb(k), (k, flavor), (k, flavor))
        sp = self.space(k, flavor)
        tau = np.where(sp.valid, self.tau, 0)
        off = max_abs(lt + np.eye(sp.dim)[:, :, None] * tau[:, None, :])  # i L_T = i * i * (the stack)
        if off > 1e-9:
            raise InternalConsistencyError(f"Reeb operator is not diagonal (off-diagonal {off:.3e})")

    # -- the spectrum table -----------------------------------------------------------

    def bidegree_labels(self, k: int, flavor: str, tol: float = 1e-9) -> List[str]:
        """The bidegree label ("(i,j)" or "theta^(i,j)") of every fiber vector of the degree-k
        space `flavor`; every fiber vector must be bidegree-homogeneous."""
        bidegrees = [(i, k - int(vert) - i, vert) for vert in (False, True) for i in range(k - int(vert) + 1)]
        weight = np.abs(self.fibers.space_fiber(k, flavor)) ** 2
        mass = np.array([self.fibers._bidegree_fiber_projector(k, *b) for b in bidegrees]) @ weight
        best = np.argmax(mass, axis=0)
        if np.any(mass[best, np.arange(weight.shape[1])] < (1.0 - tol) * np.sum(weight, axis=0)):
            raise InternalConsistencyError(f"a degree-{k} basis column is not bidegree-homogeneous")
        return [f"theta^({i},{j})" if vert else f"({i},{j})" for i, j, vert in (bidegrees[b] for b in best)]

    def spectrum_rows(self, op: str, k: int, t: float = 1.0) -> Tuple[RowStack, List[str]]:
        """The `spectrum` Laplacian `op` in degree k on the Reeb sectors of every weight, one row per
        weight, with the half-Laplacian stacks below the middle degree of delta-rn; and the bidegree
        label of every fiber vector.  Position i of a sector is fiber vector i, in slot b of basis
        index i*(m+1) + b."""
        flavor = SPECTRUM_FLAVOR[op]
        stack = self.laplacian(op, k, t)
        self._check_reeb(k, flavor)
        halves = self.half_laplacians(k) if op == "delta-rn" and k <= self.n - 1 else None
        space = self.space(k, flavor)
        index = np.arange(space.dim)[:, None] * (self.m + 1) + space.slot
        dims = space.dim * (self.weights + 1)
        groups = self.groups(space.valid, space.valid)
        rows = RowStack(stack, self.owner, self.tau.astype(float), space.valid, index, dims, halves, groups)
        return rows, self.bidegree_labels(k, flavor)
