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
Everything about a term but its slot factor depends on the frame alone, so
each operator's terms are checked once per frame and kept as its plan
(`SectorStacks._plan`, in the frame tables of `operators.frame_tables`): per
term, its slot factor and its real coefficient matrix, masked to its sectors.
`SectorStacks` lays out the sectors (m, tau) of every nonempty weight m <= M
once and holds each operator as one zero-padded (f_out, f_in, S) stack over
all S sectors, the sector axis last.  A stack is one multiply-add per term of
its plan: the coefficient (x) the table of the slot factor on the in-space,
from the ladder radicands; products, adjoints and compressions onto
subspaces (fiber basis (x) I, the bases of `BlockContext.space`, in the same
column order) are one `einsum` each.

Every stack is real (`float64`), and its operator is a fixed phase, 1 or i,
times it: i for the first-order operators (d, d0, dT, d_b, d_t, the split
halves of d_b, L_T and its Rumin compression, the Rumin differentials and
halves, and the middle operator), 1 for the embeddings and the (half)
Laplacians; a lifted fiber table has the phase of `FIBER_PHASE`.  A product
multiplies the phases (i * i = -1 flips the sign of the stack), and the
adjoint of a stack of phase i is minus its transpose (`_t`), so A* A has the
stack A^T A for either phase.  `_plan` checks the phase of every term: an
entry of the other phase above `LEAK_TOL` raises, as an off-sector entry
does.  So every solve runs in real arithmetic.

The complex lives in degrees 0..Dmax, and every other degree is the zero
space: `BlockContext.mons` has no monomial there, so each fiber table from or
into it is empty, and so is that side of every stack built from one.  A
product through an empty space is zero (`_matmul`).  So every operator is
written once for every degree: each Laplacian is up* up + down down* (or its
Rumin form) at the ends of the complex too, where one of the two terms is
zero, and no stack or suite tests a degree against the ends.

`spectrum_rows` gives one degree of a `spectrum` Laplacian as a `RowStack`,
which `rows.solve_rows` solves over every weight together; the half-Laplacian
pair below the middle degree is its own quantity (`half_laplacians`).  `_eigh`
diagonalizes a stack with one stacked `eigh` per group of equally large
sectors (`_groups`, built once per pair of masks by `SectorStacks.groups`,
the one source of sector groupings), on the valid blocks only, where the
padding would add spurious zero eigenvalues; the stacks keep no eigensolve,
and of the middle operator only its factored form, as `rumin_d(n)`.
`singular_values` is the one values-only SVD of the route, on the padded
blocks, whose padding adds only zero singular values.  Every rank is decided
by `SectorStacks.ranks`, which counts the values above tol * max(1, the
largest on the weight) (`value_ranks`, the scale of the dense weight block).
It is the rank oracle of
`verify --suite thm1` and `torsion` (`cohomology_dims`), and it gives the
ranks of the cor3 joint kernels and the sec4 corners (`suites`).  Every sum,
max or min over the sectors of a weight (or of a `RowStack` row) is `_per_row`.
The sector blocks keep the checks of the dense route at the same tolerances:
hermiticity, Reeb invariance of the Rumin space, the middle operator's target
space, the half-Laplacian commutator, and exhaustion of every space by its
sectors.  Every `verify` suite reads these stacks too (`suites`).  Tier-1
compares every stack, and every suite report, with the dense `BlockContext`
route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .model import FrameStructure, field_ladder_coefficients, ladder_radicands
from .operators import (
    BlockContext,
    InternalConsistencyError,
    StructuralError,
    _block_memo,
    _frame_memo,
    _frozen,
    _memo_in,
    max_abs,
    phase_part,
    rescale_coefficient,
)

LEAK_TOL = 1e-12  # largest off-sector or wrong-phase coefficient of a fiber (x) slot term
HERMITIAN_TOL = 1e-9  # largest entry of A - A^T that `_hermitized` accepts
BIDEGREE_TOL = 1e-9  # a vector is bidegree-homogeneous when one bidegree holds all but this share of its mass
FACTORS = ("z", "+", "-")  # the ladder factors, in the order of `field_ladder_coefficients`
SHIFT = {"1": 0, "z": 0, "+": 1, "-": -1}  # slot shift b_out - b_in of each slot factor
SPECTRUM_FLAVOR = {"delta-rn": "rumin", "delta-dr": "full", "delta-t": "full", "delta-b": "horizontal"}
# the phase of every fiber table that `_terms` lifts; J (`jact`) mixes both, lifted as its real and imaginary parts
FIBER_PHASE = {"iota": 1, "theta": 1, "horiz": 1, "lam": 1j, "lef": 1j, "star": 1j}


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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The blockwise matrix product of two stacks: zero through an empty space."""
    if not (a.size and b.size):
        return np.zeros((a.shape[0], b.shape[1], a.shape[2]))
    return np.einsum("ijs,jks->iks", a, b)


def _product(*stacks: np.ndarray) -> np.ndarray:
    """The blockwise matrix product of stacks."""
    return reduce(_matmul, stacks)


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


def singular_values(stack: np.ndarray) -> np.ndarray:
    """The singular values of every sector block of a stack, (S, min(f_out, f_in)), descending."""
    return np.linalg.svd(stack.transpose(2, 0, 1), compute_uv=False)


def _per_row(values: np.ndarray, starts: np.ndarray, reduce=np.add) -> np.ndarray:
    """`reduce` (a ufunc: np.add, np.maximum, np.minimum) of an array, sector axis last, over all its
    entries in the sectors starts[w]:starts[w + 1] of each row w: the one per-row reduction."""
    if not values.size:
        return np.zeros(starts.size - 1, dtype=values.dtype)
    per_sector = reduce.reduce(values.reshape(-1, values.shape[-1]), axis=0)
    return reduce.reduceat(per_sector, starts[:-1])


def _gram(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """up* up + down down* for stacks up and down of one phase (as A* A has the stack A^T A for
    either phase); one of them may be empty, at an end of the complex, and its term is zero."""
    return _product(_t(up), up) + _product(down, _t(down))


def _hermitized(stack: np.ndarray, what: str) -> np.ndarray:
    """`operators.hermitize` of every block of a real stack."""
    if max_abs(stack - _t(stack)) > HERMITIAN_TOL:
        raise InternalConsistencyError(f"{what} is not Hermitian within {HERMITIAN_TOL}")
    return 0.5 * (stack + _t(stack))


@dataclass(frozen=True)
class RowStack:
    """A Hermitian operator of one degree on the Reeb sectors of every row (a weight block, or one
    dense pair of `spectral._reeb_sectors`), as one zero-padded (f, f, S) stack.  The sectors of
    row w are `starts[w]:starts[w + 1]`, by ascending tau; position i of sector s is in use where
    `valid[i, s]`, with basis index `index[i, s]` in its row.  `groups` is
    `_groups(valid, valid)`, built unless given."""

    stack: np.ndarray  # (f, f, S)
    owner: np.ndarray  # (S,) the row of each sector
    tau: np.ndarray  # (S,) its Reeb value
    valid: np.ndarray  # (f, S)
    index: np.ndarray  # (f, S)
    dims: np.ndarray  # (W,) the dimension of each row
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


def _slot_factor(space: SectorSpace, m: np.ndarray, factor: str, radicands: dict) -> np.ndarray:
    """A slot-factor table of `SectorStacks._stack`, (f, S); pops the ladder radicand it reads."""
    if factor in ("1", "z"):
        values = 1.0 if factor == "1" else (2 * space.slot - m) / 2
    else:
        values = np.sqrt(np.maximum(radicands.pop(factor), 0))
    return np.where(space.valid, values, 0.0)


class SectorStacks:
    """The operators of `rumin spectrum`, the Reeb decomposition and the rank oracle on the Reeb
    sectors of every weight in `weights` (ascending, without repeats), as real stacks.

    Sectors are ordered by weight, then by ascending tau; `m`, `tau` and `owner` (the position of
    the sector's weight in `weights`) are (S,) arrays, and the sectors of weights[w] are
    `starts[w]:starts[w + 1]`.  The fiber tables are those of the frame for the whole process
    (`BlockContext`), or the private `tables` if given.  What depends on the frame alone is kept
    in those tables too (`_frame_memo`): the Reeb weights of every space, the checked term plan of
    every stack (`_plan`), the bidegree labels and the masks of `split_db`.  The layout (the
    spaces and the `groups` of each pair of masks), the embeddings and the stacks that more than
    one degree or reader needs (d_b, the Rumin differentials, the middle operator, the
    half-Laplacian pair) are memoized per instance.  The first-order stacks and the Laplacians
    are rebuilt on every call, which keeps the peak memory of `spectrum` and `torsion` low,
    until `keep_first_order` is called, as the `verify` suites do: then each is built once and kept.
    """

    def __init__(self, frame: FrameStructure, weights: Sequence[int], tables: Optional[Dict] = None):
        self.fibers = BlockContext(frame, None, tables)  # the fiber tables depend on the frame alone
        self._tables = self.fibers._tables  # and so do the plans, Reeb weights, labels and masks here
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

    # -- frame tables: what depends on the frame alone ------------------------------------

    @_frame_memo
    def _reeb_weights(self, k: int, flavor: str) -> np.ndarray:
        """The integer Reeb weight of every fiber vector of the degree-k space `flavor`."""
        fib = self.fibers.space_fiber(k, flavor)
        w = np.real(np.sum(fib.conj() * ((1j * self.fibers._fiber("rot", k)) @ fib), axis=0))
        rho = np.rint(w).astype(int)
        if max_abs(w - rho) > LEAK_TOL:
            raise InternalConsistencyError(f"a degree-{k} {flavor} fiber vector has no integer Reeb weight")
        return rho

    def _terms(self, op: str, k: int, arg):
        """The fiber (x) slot terms (F, factor) of the stack `op` in degree k, in summation order, the
        (k, flavor) keys of its out and in spaces, and its phase.  `op` is "d", "lie_reeb", "d0",
        "embed" (of the flavor `arg`), "lefschetz_inverse" (L^-1 from degree k = n + 1), or a table
        of `BlockContext._fiber` into degree arg = k_out, of phase `FIBER_PHASE[op]`; J (`jact`)
        takes arg = (k_out, "real" or "imag"), the part that it lifts."""
        fibers = self.fibers
        if op == "d":  # the coframe part dmon (x) I plus sum_a wedge_a (x) (field a)
            fields = self.frame.field_names
            wedge = lambda j: sum(self.ladder[name][j] * fibers._wedge_fiber(a, k) for a, name in enumerate(fields))
            terms = [(fibers._fiber("dmon", k), "1")] + [(wedge(j), factor) for j, factor in enumerate(FACTORS)]
            return terms, (k + 1, "full"), (k, "full"), 1j
        if op == "lie_reeb":  # I (x) (action of T) plus the coframe rotation
            eye = np.eye(len(fibers.mons(k)))
            terms = [(c * eye, factor) for c, factor in zip(self.ladder[self.frame.field_names[0]], FACTORS)]
            return terms + [(fibers._fiber("rot", k), "1")], (k, "full"), (k, "full"), 1j
        if op == "embed":
            return [(fibers.space_fiber(k, arg), "1")], (k, "full"), (k, arg), 1
        if op == "d0":
            fib, k_out, phase = fibers._fiber("lef", k - 1) @ fibers._fiber("iota", k), k + 1, 1j
        elif op == "lefschetz_inverse":
            fib, k_out, phase = fibers.lefschetz_inverse_fiber(), k - 2, 1j
        elif op == "jact":
            (k_out, part), phase = arg, 1
            fib = getattr(fibers._fiber(op, k), part)
        else:
            fib, k_out, phase = fibers._fiber(op, k), arg, FIBER_PHASE[op]
        return [(fib, "1")], (k_out, "full"), (k, "full"), phase

    @_frame_memo
    def _plan(self, op: str, k: int, arg=None):
        """The out and in spaces of the stack `op` (`_terms`), and per term that does not vanish, its
        slot factor and its fiber divided by the phase, real and zero off the term's sectors.
        Raises when a term couples two sectors or has an entry of the other phase."""
        terms, out, inn, phase = self._terms(op, k, arg)
        rho_out, rho_in = self._reeb_weights(*out), self._reeb_weights(*inn)
        plan = []
        for fib, factor in terms:
            keep = rho_out[:, None] - rho_in[None, :] == 2 * SHIFT[factor]
            leak = max_abs(fib[~keep])
            if leak > LEAK_TOL:
                raise InternalConsistencyError(f"a fiber (x) {factor} term leaves its Reeb sector ({leak:.3e})")
            coef = np.where(keep, phase_part(fib, phase, f"a fiber (x) {factor} term", LEAK_TOL), 0.0)
            if coef.any():  # a stack never holds -0.0, so adding a zero term changes no bit
                plan.append((factor, coef))
        return out, inn, plan

    @_frame_memo
    def _split_masks(self, k: int, anti: bool):
        """The (f_out, f_in) entries of d_b on full k-forms that its (1,0) part (its (0,1) part if
        `anti`) keeps, and those of a bidegree beyond (1,0) + (0,1)."""
        proj = lambda deg, i, j: self.fibers._bidegree_fiber_projector(deg, i, j) > 0
        keep = np.zeros((len(self.fibers.mons(k + 1)), len(self.fibers.mons(k))), dtype=bool)
        leaks = np.zeros_like(keep)
        for i in range(k + 1):
            j = k - i
            cols, rows_10, rows_01 = proj(k, i, j), proj(k + 1, i + 1, j), proj(k + 1, i, j + 1)
            keep |= np.outer(rows_01 if anti else rows_10, cols)
            leaks |= np.outer(~(rows_10 | rows_01), cols)
        return keep, leaks

    @_frame_memo
    def bidegree_labels(self, k: int, flavor: str) -> Tuple[str, ...]:
        """The bidegree label ("(i,j)" or "theta^(i,j)") of every fiber vector of the degree-k
        space `flavor`; every fiber vector must be bidegree-homogeneous."""
        bidegrees = [(i, k - int(vert) - i, vert) for vert in (False, True) for i in range(k - int(vert) + 1)]
        weight = np.abs(self.fibers.space_fiber(k, flavor)) ** 2
        mass = np.array([self.fibers._bidegree_fiber_projector(k, *b) for b in bidegrees]) @ weight
        best = np.argmax(mass, axis=0)
        if np.any(mass[best, np.arange(weight.shape[1])] < (1.0 - BIDEGREE_TOL) * np.sum(weight, axis=0)):
            raise InternalConsistencyError(f"a degree-{k} basis column is not bidegree-homogeneous")
        return [f"theta^({i},{j})" if vert else f"({i},{j})" for i, j, vert in (bidegrees[b] for b in best)]

    # -- spaces and stacks ----------------------------------------------------------------

    @_block_memo
    def space(self, k: int, flavor: str = "full") -> SectorSpace:
        rho = self._reeb_weights(k, flavor)
        twice = rho[:, None] + (self.m - self.tau)[None, :]  # 2b
        valid = (twice % 2 == 0) & (twice >= 0) & (twice <= 2 * self.m)
        if np.any(self.per_weight(valid) != rho.size * (self.weights + 1)):
            raise InternalConsistencyError(f"Reeb sectors do not exhaust the degree-{k} {flavor} space")
        return SectorSpace(rho, twice // 2, valid)

    def groups(self, rows: np.ndarray, cols: np.ndarray):
        """`_groups(rows, cols)` of two (f, S) masks, built once per pair of masks."""
        key = ("SectorStacks.groups", (rows.tobytes(), cols.tobytes()))  # S is fixed, so the bytes give f
        if key not in self._cache:
            self._cache[key] = _frozen(_groups(rows, cols))
        return self._cache[key]

    def _stack(self, op: str, k: int, arg=None) -> np.ndarray:
        """The real (f_out, f_in, S) stack of `op` (`_terms`): per term of its plan, the coefficient
        (x) the slot factor at (slot b + shift, slot b) of the slot b of every in-space fiber vector
        in every sector, zero where b does not exist.  Slot b + shift is missing only where the
        factor vanishes (J_plus on b = m, J_minus on b = 0), so this masks every block."""
        out, inn, plan = self._plan(op, k, arg)
        space, m = self.space(*inn), self.m
        stack = np.zeros((self.space(*out).dim, space.dim, m.size))
        radicands = dict(zip("+-", ladder_radicands(m, space.slot))) if any(f in "+-" for f, _ in plan) else {}
        for factor, coef in plan:
            stack += coef[:, :, None] * _slot_factor(space, m, factor, radicands)[None, :, :]
        return stack

    @_block_memo
    def embed(self, k: int, flavor: str) -> np.ndarray:
        """The isometry of the degree-k space `flavor` into the full space."""
        return self._stack("embed", k, flavor)

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
        """Keep every first-order stack and Laplacian in the memo from now on."""
        self._first_order = self._cache

    @_first_order_memo
    def d(self, k: int) -> np.ndarray:
        """d on full k-forms."""
        return self._stack("d", k)

    @_first_order_memo
    def lie_reeb(self, k: int) -> np.ndarray:
        """L_T on full k-forms."""
        return self._stack("lie_reeb", k)

    @_first_order_memo
    def lie_reeb_rumin(self, k: int) -> np.ndarray:
        """L_T on the degree-k Rumin space, which it must map into itself."""
        what = "Reeb derivative does not preserve the Rumin space"
        return self._compress_invariant(self.lie_reeb(k), (k, "rumin"), (k, "rumin"), what)

    @_first_order_memo
    def d0(self, k: int) -> np.ndarray:
        return self._stack("d0", k)

    @_first_order_memo
    def dT(self, k: int) -> np.ndarray:
        return _product(self._stack("theta", k, k + 1), self.lie_reeb(k), self._stack("horiz", k, k))

    @_block_memo
    def db(self, k: int) -> np.ndarray:
        return self.d(k) - self.d0(k) - self.dT(k)

    def dt(self, k: int, t: float) -> np.ndarray:
        return self.d0(k) + t * self.db(k) + t * t * self.dT(k)

    @_first_order_memo
    def horizontal_db(self, k: int) -> np.ndarray:
        """d_b as a map of the horizontal k-forms, which both neighbouring `delta-b` Laplacians read."""
        return self._compress(self.db(k), (k + 1, "horizontal"), (k, "horizontal"))

    @_first_order_memo
    def split_db(self, k: int, anti: bool = False) -> np.ndarray:
        """The (1,0) or (0,1) part of d_b on horizontal k-forms, as `BlockContext.del_full`."""
        keep, leaks = self._split_masks(k, anti)
        db = self.db(k)
        if max_abs(db[leaks]) > 1e-12:
            raise StructuralError("d_b has bidegree components beyond (1,0)+(0,1); frame is not Sasakian")
        return np.where(keep[:, :, None], db, 0)

    # -- the Rumin complex: phase i ---------------------------------------------------

    def middle_operator(self, variant: str = "factored") -> np.ndarray:
        """The middle operator on the middle Rumin space, as `BlockContext.middle_operator(variant)`:
        theta ^ (L_T + d_b L^-1 d_b) ("factored"; L^-1 has phase i, so d_b L^-1 d_b has -i) or
        theta ^ (L_T - i (del + delbar)(del* - delbar*)) ("kahler"; the product has phase 1).  Not
        kept: the factored form is kept as `rumin_d(n)`, and sec4 reads the Kahler form once."""
        n = self.n
        if variant == "factored":
            linv = self._stack("lefschetz_inverse", n + 1)
            core = self.lie_reeb(n) - _product(self.db(n - 1), linv, self.db(n))
        elif variant == "kahler":
            dl, dlb = self.split_db(n - 1), self.split_db(n - 1, anti=True)
            core = self.lie_reeb(n) - _product(dl + dlb, _t(dl - dlb))
        else:
            raise KeyError(variant)
        full = _product(self._stack("theta", n, n + 1), core)
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
        return _gram(self.rumin_del(k, anti), self.rumin_del(k - 1, anti))

    @_block_memo
    def half_laplacians(self, k: int):
        """(Delta_del, Delta_delbar) on the degree-k Rumin space below the middle degree,
        hermitized, and their scale max(1, max |entry|) per weight, after checking that they
        commute on every weight; `JointRows.half_pairs`, torsion and sec4 read this one build."""
        if k > self.n - 1:
            raise ValueError("the simultaneous decomposition is defined below middle degree")
        a, b = (_hermitized(self.half_laplacian(k, anti), "half Laplacian") for anti in (False, True))
        scale = np.maximum(1.0, np.maximum(self._weight_max(a), self._weight_max(b)))
        comm = self._weight_max(_product(a, b) - _product(b, a))
        if np.any(comm > 1e-10 * scale):
            what = f"half Laplacians do not commute (residual {comm.max():.3e}); cannot decompose"
            raise InternalConsistencyError(what)
        return a, b, scale

    # -- per-weight reductions and ranks -------------------------------------------------

    def per_weight(self, values: np.ndarray, reduce=np.add) -> np.ndarray:
        """`_per_row` over the sectors of each weight."""
        return _per_row(values, self.starts, reduce)

    def _weight_max(self, stack: np.ndarray) -> np.ndarray:
        """max |entry| of a stack over the sectors of each weight."""
        return self.per_weight(np.abs(stack), np.maximum)

    def value_ranks(self, values: np.ndarray, tol: float) -> np.ndarray:
        """The rank of every sector, (S,), from its singular values, (S, k) zero-padded: the number
        above tol * max(1, the largest singular value on the weight), the cut of the dense weight
        block.  Every rank decision of the sector route is made here."""
        cut = tol * np.maximum(1.0, self.per_weight(values.T, np.maximum))
        return np.sum(values > cut[self.owner][:, None], axis=1)

    def ranks(self, stack: np.ndarray, tol: float) -> np.ndarray:
        """`value_ranks` of the `singular_values` of every sector block of `stack`."""
        return self.value_ranks(singular_values(stack), tol)

    @_block_memo
    def cohomology_dims(self, complex_name: str, multiplicity: Tuple[int, ...]) -> Tuple[int, ...]:
        """dim H^k of the "rumin" or "de_rham" complex for every degree k: the sum over weights of
        r (dim_k - rank d_k - rank d_{k-1}), with r = multiplicity[w] copies of weight weights[w].
        A differential maps every Reeb sector into itself, so its rank on a weight is the sum of
        the `ranks` of its sector blocks at tol 1e-8, the threshold of the dense weight block."""
        flavor = "rumin" if complex_name == "rumin" else "full"
        ranks = np.zeros((self.Dmax + 2, self.weights.size), dtype=int)  # row k + 1: rank of d_k
        for k in range(self.Dmax):
            stack = self.rumin_d(k) if complex_name == "rumin" else self.d(k)
            ranks[k + 1] = self.per_weight(self.ranks(stack, 1e-8))
        dims = [self.space(k, flavor).dim * (self.weights + 1) - ranks[k + 1] - ranks[k] for k in range(self.Dmax + 1)]
        return tuple(int(np.dot(multiplicity, d)) for d in dims)

    @_first_order_memo
    def laplacian(self, op: str, k: int, t: float = 1.0) -> np.ndarray:
        """The Laplacian of the `spectrum` operator `op` on its degree-k space, hermitized; kept with
        the first-order stacks."""
        if op == "delta-rn":  # (d*d)^2 + (dd*)^2, with the middle operator D = rumin_d(n) entering as D*D
            up, down = self.rumin_d(k), self.rumin_d(k - 1)
            above, below = _product(_t(up), up), _product(down, _t(down))
            above = above if k == self.n else _product(above, above)
            below = below if k == self.n + 1 else _product(below, below)
            return _hermitized(above + below, "Rumin Laplacian")
        if op == "delta-b":
            return _hermitized(_gram(self.horizontal_db(k), self.horizontal_db(k - 1)), "horizontal Laplacian")
        if op in ("delta-dr", "delta-t"):
            diff = self.d if op == "delta-dr" else (lambda j: self.dt(j, t))
            what = "Hodge-de Rham Laplacian" if op == "delta-dr" else "deformed Laplacian"
            return _hermitized(_gram(diff(k), diff(k - 1)), what)
        raise KeyError(op)

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

    def spectrum_rows(self, op: str, k: int, t: float = 1.0) -> RowStack:
        """The `spectrum` Laplacian `op` in degree k on the Reeb sectors of every weight, one row per
        weight, after checking that i L_T is tau on every sector.  Position i of a sector is fiber
        vector i (with the label `bidegree_labels(k, SPECTRUM_FLAVOR[op])[i]`), in slot b of basis
        index i*(m+1) + b."""
        flavor = SPECTRUM_FLAVOR[op]
        stack = self.laplacian(op, k, t)
        self._check_reeb(k, flavor)
        space = self.space(k, flavor)
        index = np.arange(space.dim)[:, None] * (self.m + 1) + space.slot
        dims = space.dim * (self.weights + 1)
        groups = self.groups(space.valid, space.valid)
        return RowStack(stack, self.owner, self.tau.astype(float), space.valid, index, dims, groups)
