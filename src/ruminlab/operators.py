"""Exact assembly of the invariant differential operators on one function block.

Every operator is a dense complex matrix between orthonormal bases, so the
adjoint is always the conjugate transpose.  A block is W (x) C^r with the
frame fields acting on the irreducible slot W of dimension d alone, so every
operator has the form A (x) I_r and is assembled as A on the slot.  The
orthonormal basis of the full degree-k space over the slot is

    (monomial / |monomial|)  (x)  (slot basis vector),

with basis index  i * d + b  for monomial slot i and weight slot b; matrices
built on the coframe factor alone are lifted to fiber (x) I_d by writing the
fiber into the d diagonal slots of a zero (rows, d, cols, d) array, and the
frame-field derivations enter as wedge fiber (x) action matrix, written as a
broadcast product.  Dimensions and eigenvalue counts of the block are those
on the slot times r.

Set-up is cached at the level it depends on, through one memo mechanism: a
method decorated with `_frame_memo` or `_block_memo` stores its result under
its qualified name and arguments (defaults filled in), and a miss computes it
once.  Fiber tables (monomial lists, Gram norms, the named fiber matrices,
the per-field wedge fibers and the fiber bases of the graded spaces) depend on
the frame alone and live in one table dict per frame value and process
(`frame_tables`), filled on first use; every block context and sector stack of
an equal frame reads it, so each table is computed once per process, however
many models and assemblies a run builds.  `sectors.SectorStacks` reads the
same tables, so the dense blocks and its Reeb-sector stacks share one basis
and one column order; every `rumin` command reads those stacks and builds no
block context, so the dense blocks serve the library (`spectral.harmonic_bases`) and the tests, whose dense
suite bodies are the reference for the sector route.  Block quantities live in
the context's own memo: every quantity that more than one call site needs
(full-space matrices, the Rumin and horizontal operators and Laplacians, the
Rumin square root, and through `_block_memo` in the spectral layer the
harmonic bases), so a check that validates such a quantity runs once, when it
is built.  A value read once per block (the Rumin star) is not kept at all,
which would only raise peak memory.  Every memoized array is read-only: a
caller that writes into one gets a ValueError instead of silently changing
every later reader.  A block memo lives as long as its context, and the fiber
tables as long as the process.  `SectorStacks` and `Assembly` keep their own
memos with the same `_block_memo`.

Graded subspaces (horizontal forms, bidegree components, the primitive and
theta ^ ker L spaces of the Rumin complex) are carried as isometric embedding
matrices into the full coordinates; compressing a full-space operator with the
embeddings applies the corresponding orthogonal projections automatically,
which is exactly how the projected differentials are defined.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import exterior as ext
from .model import FrameStructure, FunctionBlock


class StructuralError(RuntimeError):
    """An assembled operator violates a structural assumption (e.g. not Sasakian)."""


class InternalConsistencyError(RuntimeError):
    """An exact identity failed beyond rounding; indicates an assembly bug."""


_SCALARS = (bool, int, float, complex, str, type(None))


def _frozen(value):
    """Make a memoized value read-only and return it.

    Arrays are marked read-only, also inside tuples, lists, block operators
    and other dataclasses; a list becomes a tuple, so a caller cannot append
    to a shared result.
    """
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, BlockOperator):
        value.matrix.setflags(write=False)  # its graded spaces are read-only from creation
    elif isinstance(value, (tuple, list)):
        for item in value:
            if not isinstance(item, _SCALARS):
                _frozen(item)
        if isinstance(value, list):
            value = tuple(value)
    else:
        for name in getattr(type(value), "__dataclass_fields__", ()):
            _frozen(getattr(value, name))
    return value


def _memo_in(store: str):
    """Decorator factory: memoize fn(ctx, *args) in the dict `ctx.<store>`.

    The key is fn's qualified name and its arguments with defaults filled in,
    so `f(ctx, k)`, `f(ctx, k, False)` and `f(ctx, k, anti=False)` share one
    entry; arguments must be hashable.  The stored value is `_frozen`.  A miss
    calls `wrapper.__wrapped__`, so a test can spy on the uncached computation.
    """

    def decorate(fn):
        params = list(inspect.signature(fn).parameters.values())[1:]
        name = fn.__qualname__

        @functools.wraps(fn)
        def wrapper(ctx, *args, **kwargs):
            if kwargs or len(args) != len(params):
                args = _bind(params, args, kwargs)
            cache = getattr(ctx, store)
            try:
                return cache[name, args]
            except KeyError:
                pass
            value = cache[name, args] = _frozen(wrapper.__wrapped__(ctx, *args))
            return value

        return wrapper

    return decorate


def _bind(params, args: tuple, kwargs: dict) -> tuple:
    """Positional arguments of a call, with keywords and defaults filled in."""
    out = list(args)
    for p in params[len(args):]:
        if p.name in kwargs:
            out.append(kwargs.pop(p.name))
        elif p.default is not p.empty:
            out.append(p.default)
        else:
            raise TypeError(f"missing argument {p.name!r}")
    if kwargs:
        raise TypeError(f"unexpected arguments {sorted(kwargs)}")
    return tuple(out)


_frame_memo = _memo_in("_tables")  # per-frame tables, shared by every context of an equal frame
_block_memo = _memo_in("_cache")  # per-block quantities, private to one context

_FRAME_TABLES: Dict[tuple, Dict] = {}  # the shared fiber tables of every frame value in use


def frame_tables(frame: FrameStructure) -> Dict:
    """The fiber tables of `frame` shared by the whole process: one dict per frame value
    (`FrameStructure.key`), created empty on first request and filled lazily by `_frame_memo`.
    The tables are small (at most (2n+1 choose k) rows and columns) and read-only, and every
    model of the same frame reads the same ones, so they are never dropped."""
    return _FRAME_TABLES.setdefault(frame.key, {"frame": frame.key})


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b for 2-d arrays as one broadcast product (the arithmetic of np.kron)."""
    (rows, cols), (br, bc) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows * br, cols * bc)


def max_abs(m: np.ndarray) -> float:
    return 0.0 if m.size == 0 else float(np.abs(m).max())


def assert_hermitian(m: np.ndarray, tol: float = 1e-12, what: str = "operator"):
    if max_abs(m - m.conj().T) > tol:
        raise InternalConsistencyError(f"{what} is not Hermitian within {tol}")


def hermitize(m: np.ndarray, tol: float = 1e-10, what: str = "operator") -> np.ndarray:
    assert_hermitian(m, tol, what)
    return 0.5 * (m + m.conj().T)


def sqrtm_psd(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Hermitian psd square root via spectral calculus."""
    w, q = np.linalg.eigh(hermitize(m, tol))
    if w.size and w[0] < -tol * max(1.0, abs(w[-1])):
        raise InternalConsistencyError("matrix is not positive semidefinite")
    return (q * np.sqrt(np.clip(w, 0.0, None))) @ q.conj().T


def rescale_coefficient(n: int, k: int) -> float:
    """Degree-dependent constant 1/sqrt|n-k| (1 in middle degree)."""
    return 1.0 if k == n else 1.0 / math.sqrt(abs(n - k))


@dataclass(frozen=True)
class GradedSpace:
    """One graded piece over one block, with its embedding into full coordinates."""

    block_label: str
    degree: int
    flavor: str
    embed: np.ndarray  # (full_dim, dim) isometry, read-only

    def __post_init__(self):
        self.embed.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.embed.shape[1]

    @property
    def key(self):
        return (self.block_label, self.degree, self.flavor)

    def describe(self) -> dict:
        return {"block": self.block_label, "degree": self.degree, "flavor": self.flavor, "dim": self.dim}


@dataclass
class BlockOperator:
    source: GradedSpace
    target: GradedSpace
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise InternalConsistencyError("operator shape does not match its spaces")

    def adjoint(self) -> "BlockOperator":
        return BlockOperator(self.target, self.source, self.matrix.conj().T)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if other.target.key != self.source.key:
            raise InternalConsistencyError("composition spaces do not match")
        return BlockOperator(other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        if (self.source.key, self.target.key) != (other.source.key, other.target.key):
            raise InternalConsistencyError("sum spaces do not match")
        return BlockOperator(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return self + BlockOperator(other.source, other.target, -other.matrix)

    def __rmul__(self, c) -> "BlockOperator":
        return BlockOperator(self.source, self.target, c * self.matrix)

    def to_json(self) -> str:
        pairs = [[float(z.real), float(z.imag)] for z in self.matrix.ravel()]
        return json.dumps(
            {
                "schema": 1,
                "kind": "operator",
                "source": self.source.describe(),
                "target": self.target.describe(),
                "shape": list(self.matrix.shape),
                "matrix": pairs,
            },
            sort_keys=True,
        )


def adjoint(op: BlockOperator) -> BlockOperator:
    return op.adjoint()


def _null_basis(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of ker(m), columns."""
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return vh[rank:].conj().T


def _hodge_sum(space: GradedSpace, up: Optional[np.ndarray], down: Optional[np.ndarray], what: str) -> BlockOperator:
    """up^* up + down down^* on `space`, hermitized; None leaves a term out."""
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    if up is not None:
        mat = mat + up.conj().T @ up
    if down is not None:
        mat = mat + down @ down.conj().T
    return BlockOperator(space, space, hermitize(mat, 1e-9, what))


def phase_part(m: np.ndarray, phase: complex, what: str, tol: float = 1e-12) -> np.ndarray:
    """m / phase for an array m of phase 1 or 1j, as a real array; raises where m has an entry of the other phase."""
    real, other = (m.imag, m.real) if phase == 1j else (m.real, m.imag)
    if max_abs(other) > tol:
        raise InternalConsistencyError(f"{what} has an entry of the wrong phase ({max_abs(other):.3e})")
    return real


def _range_basis_of_projector(p: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a Hermitian projector."""
    p = hermitize(p, 1e-10, "projector")
    if max_abs(p @ p - p) > tol:
        raise InternalConsistencyError("projector is not idempotent")
    w, q = np.linalg.eigh(p)
    return q[:, w > 0.5]


class BlockContext:
    """Caches every operator of the calculus on one (frame, block) pair.

    The fiber tables depend on the frame alone: by default a context reads the
    process-wide tables of its frame (`frame_tables`), so every context and
    sector stack of an equal frame computes each table once per process.  An
    explicit `tables` dict stays private to the contexts it is passed to and
    never enters the shared tables.  Block-dependent quantities are memoized in
    the context itself.  A context whose `block` is None reads the fiber
    tables alone (`sectors.SectorStacks`).
    """

    def __init__(self, frame: FrameStructure, block: Optional[FunctionBlock], tables: Optional[Dict] = None):
        if frame.n != 1:
            # the block models exist only for n = 1; the fiber layer is generic
            raise StructuralError("function blocks are only defined for n = 1 frames")
        self.frame = frame
        self.block = block
        self.n = frame.n
        self.Dmax = frame.dim
        self._tables: Dict = frame_tables(frame) if tables is None else tables
        if self._tables.setdefault("frame", frame.key) != frame.key:
            raise ValueError("fiber tables belong to another frame")
        self._cache: Dict = {}

    # -- fiber layer (per-frame tables) -------------------------------------------

    @_frame_memo
    def _generator_maps(self):
        """d and i_T L_T on the complex coframe generators, from bracket constants."""
        real_diffs = [self.frame.coframe_differential(a) for a in range(self.Dmax)]
        dgen = {(0, 0): real_diffs[0]}
        for i in range(1, self.n + 1):
            de, df = real_diffs[2 * i - 1], real_diffs[2 * i]
            dgen[(1, i)] = de + 1j * df
            dgen[(2, i)] = de + (-1j) * df
        rotgen = {g: ext.interior_reeb(dg) for g, dg in dgen.items()}
        return dgen, rotgen

    @_frame_memo
    def mons(self, k: int) -> Tuple[ext.CoframeIndex, ...]:
        if k < 0 or k > self.Dmax:
            return ()
        return ext.monomials(self.n, k)

    @_frame_memo
    def _norms(self, k: int) -> np.ndarray:
        return np.array([math.sqrt(ext.gram_weight(ix)) for ix in self.mons(k)])

    def _monomial_from_gens(self, gens) -> ext.PointwiseForm:
        return ext.monomial(self.n, ext._index_from_generators(gens))

    def _derivation_on_monomial(self, gens, table, parity: int) -> ext.PointwiseForm:
        """Extend a generator map as a (graded) derivation over one monomial."""
        if not gens:
            return ext.zero(self.n)
        head, rest = gens[0], list(gens[1:])
        first = ext.wedge(table[head], self._monomial_from_gens(rest))
        tail = self._derivation_on_monomial(rest, table, parity)
        sign = -1 if parity else 1
        return first + sign * ext.wedge(self._monomial_from_gens([head]), tail)

    def fiber_matrix_from_images(self, images, k_in: int, k_out: int) -> np.ndarray:
        """Matrix in orthonormal monomial coordinates from a list of image forms."""
        mons_out = self.mons(k_out)
        pos = {ix: i for i, ix in enumerate(mons_out)}
        m = np.zeros((len(mons_out), len(self.mons(k_in))), dtype=complex)
        for col, form in enumerate(images):
            for jx, c in form.coeffs.items():
                if jx.degree != k_out:
                    raise InternalConsistencyError("fiber image has mixed degree")
                m[pos[jx], col] = c
        out_n = self._norms(k_out).reshape(-1, 1)
        in_n = self._norms(k_in).reshape(1, -1)
        return (out_n * m) / in_n if m.size else m

    def fiber_matrix(self, op, k_in: int, k_out: int) -> np.ndarray:
        return self.fiber_matrix_from_images(
            [op(ext.monomial(self.n, ix)) for ix in self.mons(k_in)], k_in, k_out
        )

    @_frame_memo
    def _fiber(self, name: str, k: int) -> np.ndarray:
        if name == "theta":
            m = self.fiber_matrix(ext.theta_wedge, k, k + 1)
        elif name == "iota":
            m = self.fiber_matrix(ext.interior_reeb, k, k - 1)
        elif name == "lef":
            m = self.fiber_matrix(ext.lefschetz_wedge, k, k + 2)
        elif name == "lam":
            m = self.fiber_matrix(ext.lefschetz_trace, k, k - 2)
        elif name == "star":
            m = self.fiber_matrix(ext.hodge_star, k, self.Dmax - k)
        elif name == "jact":
            m = self.fiber_matrix(ext.complex_structure, k, k)
        elif name == "prim":
            m = self.fiber_matrix(ext.primitive_projection, k, k)
        elif name == "horiz":
            m = np.diag([0.0 if ix.theta else 1.0 for ix in self.mons(k)]).astype(complex)
        elif name == "dmon":
            dgen, _ = self._generator_maps()
            imgs = [
                self._derivation_on_monomial(ix.generators(), dgen, parity=1)
                for ix in self.mons(k)
            ]
            m = self.fiber_matrix_from_images(imgs, k, k + 1)
        elif name == "rot":
            _, rotgen = self._generator_maps()
            imgs = [
                self._derivation_on_monomial(ix.generators(), rotgen, parity=0)
                for ix in self.mons(k)
            ]
            m = self.fiber_matrix_from_images(imgs, k, k)
        else:
            raise KeyError(name)
        return m

    @_frame_memo
    def _wedge_fiber(self, a: int, k: int) -> np.ndarray:
        """Fiber of wedging with the coframe form dual to frame field a."""
        alpha = ext.from_real(self.n, {(a,): 1})
        return self.fiber_matrix(lambda x: ext.wedge(alpha, x), k, k + 1)

    @_frame_memo
    def lefschetz_inverse_fiber(self) -> np.ndarray:
        """L^-1 from horizontal (n+1)-forms to horizontal (n-1)-forms, zero on theta monomials;
        the fiber of the middle operator's d_b L^-1 d_b."""
        n = self.n
        hsel_lo = self._fiber_selection(n - 1, lambda ix: not ix.theta)
        hsel_hi = self._fiber_selection(n + 1, lambda ix: not ix.theta)
        lef_h = hsel_hi.conj().T @ self._fiber("lef", n - 1) @ hsel_lo
        inverse = -1j * np.linalg.inv(phase_part(lef_h, 1j, "the Lefschetz map"))  # (iA)^-1 = -i A^-1
        return hsel_lo @ inverse @ hsel_hi.conj().T

    def _fiber_selection(self, k: int, keep) -> np.ndarray:
        cols = [i for i, ix in enumerate(self.mons(k)) if keep(ix)]
        sel = np.zeros((len(self.mons(k)), len(cols)), dtype=complex)
        for j, i in enumerate(cols):
            sel[i, j] = 1.0
        return sel

    # -- graded spaces -----------------------------------------------------------

    def full_dim(self, k: int) -> int:
        return len(self.mons(k)) * self.block.slot_dim

    @_block_memo
    def space(self, k: int, flavor="full") -> GradedSpace:
        return GradedSpace(self.block.label, k, str(flavor), self._lift(self.space_fiber(k, flavor)))

    @_frame_memo
    def space_fiber(self, k: int, flavor="full") -> np.ndarray:
        """The fiber basis of the degree-k space `flavor`: `space(k, flavor)` embeds as
        this isometry (x) I_d, with the same column order on every block."""
        if flavor == "full":
            fib = np.eye(len(self.mons(k)), dtype=complex)
        elif flavor == "horizontal":
            fib = self._fiber_selection(k, lambda ix: not ix.theta)
        elif isinstance(flavor, tuple) and flavor[0] == "bidegree":
            _, i, j, vert = flavor
            fib = self._fiber_selection(
                k, lambda ix: ix.theta == vert and len(ix.holo) == i and len(ix.anti) == j
            )
        elif flavor == "rumin":
            if k <= self.n:  # the primitive projector is real, so it is solved in real arithmetic
                fib = _range_basis_of_projector(phase_part(self._fiber("prim", k), 1, "the primitive projector"))
            else:  # L has phase i: its kernel is that of its imaginary part
                lef = self._fiber("lef", k - 1)
                hsel = self._fiber_selection(k - 1, lambda ix: not ix.theta)
                kerl = hsel @ _null_basis(phase_part(lef @ hsel, 1j, "the Lefschetz map"))
                fib = self._fiber("theta", k - 1) @ kerl
        else:
            raise KeyError(f"unknown flavor {flavor!r}")
        return fib

    @_block_memo
    def bidegree_mask(self, k: int, i: int, j: int, vert: bool = False) -> np.ndarray:
        """`_bidegree_fiber_projector` lifted to the diagonal in full coordinates."""
        return np.repeat(self._bidegree_fiber_projector(k, i, j, vert), self.block.slot_dim)

    def compress(self, matrix: np.ndarray, src: GradedSpace, tgt: GradedSpace) -> BlockOperator:
        return BlockOperator(src, tgt, tgt.embed.conj().T @ matrix @ src.embed)

    # -- full-space operators (plain matrices in full coordinates) ----------------

    def _lift(self, fib: np.ndarray) -> np.ndarray:
        """fib (x) I_d: fib written into the d diagonal slots of a zero array."""
        d = self.block.slot_dim
        rows, cols = fib.shape
        out = np.zeros((rows, d, cols, d), dtype=complex)
        diag = np.arange(d)
        out[:, diag, :, diag] = fib
        return out.reshape(rows * d, cols * d)

    @_block_memo
    def lifted_fiber(self, name: str, k: int) -> np.ndarray:
        """The fiber table `name` in degree k lifted to full coordinates."""
        return self._lift(self._fiber(name, k))

    @_block_memo
    def d_full(self, k: int) -> np.ndarray:
        d = self.lifted_fiber("dmon", k)
        for a, name in enumerate(self.frame.field_names):
            d = d + _kron(self._wedge_fiber(a, k), self.block.action(name))
        return d

    @_block_memo
    def lie_reeb_full(self, k: int) -> np.ndarray:
        eye = np.eye(len(self.mons(k)), dtype=complex)
        return _kron(eye, self.block.action("T")) + self.lifted_fiber("rot", k)

    @_block_memo
    def d0_full(self, k: int) -> np.ndarray:
        if k == 0:
            return np.zeros((self.full_dim(1), self.full_dim(0)), dtype=complex)
        return self._lift(self._fiber("lef", k - 1) @ self._fiber("iota", k))

    @_block_memo
    def dT_full(self, k: int) -> np.ndarray:
        return self.lifted_fiber("theta", k) @ self.lie_reeb_full(k) @ self.lifted_fiber("horiz", k)

    @_block_memo
    def db_full(self, k: int) -> np.ndarray:
        return self.d_full(k) - self.d0_full(k) - self.dT_full(k)

    def db_direct_full(self, k: int) -> np.ndarray:
        """d_b from its definition, for cross-checking d = d_0 + d_b + d_T."""
        ph = self.lifted_fiber("horiz", k)
        strip = np.eye(self.full_dim(k + 1), dtype=complex) - self._lift(
            self._fiber("theta", k) @ self._fiber("iota", k + 1)
        )
        horiz_part = strip @ self.d_full(k) @ ph
        out = horiz_part
        if k >= 1:
            strip_lo = np.eye(self.full_dim(k), dtype=complex) - self._lift(
                self._fiber("theta", k - 1) @ self._fiber("iota", k)
            )
            db_lower = strip_lo @ self.d_full(k - 1) @ self.lifted_fiber("horiz", k - 1)
            out = out - self.lifted_fiber("theta", k) @ db_lower @ self.lifted_fiber("iota", k)
        return out

    def dt_full(self, k: int, t: float) -> np.ndarray:
        return self.d0_full(k) + t * self.db_full(k) + t * t * self.dT_full(k)

    @_frame_memo
    def _bidegree_fiber_projector(self, k: int, i: int, j: int, vert: bool = False) -> np.ndarray:
        """0/1 diagonal of the projector onto the degree-k monomials of bidegree
        (i, j), with a theta factor when `vert`."""
        return np.array(
            [
                1.0 if (ix.theta == vert and len(ix.holo) == i and len(ix.anti) == j) else 0.0
                for ix in self.mons(k)
            ]
        )

    @_block_memo
    def del_full(self, k: int, anti: bool = False) -> np.ndarray:
        """(1,0) or (0,1) part of d_b on horizontal forms, in full coordinates.

        Each horizontal bidegree (i, j) of the source keeps the rows of bidegree
        (i+1, j), or (i, j+1) when `anti`; d_b must vanish on every other row.
        """
        db = self.db_full(k)
        out = np.zeros_like(db)
        leak = 0.0
        for i in range(0, k + 1):
            j = k - i
            cols = self.bidegree_mask(k, i, j) > 0
            rows_10 = self.bidegree_mask(k + 1, i + 1, j) > 0
            rows_01 = self.bidegree_mask(k + 1, i, j + 1) > 0
            rows = rows_01 if anti else rows_10
            out[np.ix_(rows, cols)] = db[np.ix_(rows, cols)]
            leak = max(leak, max_abs(db[np.ix_(~(rows_10 | rows_01), cols)]))
        if leak > 1e-12:
            raise StructuralError("d_b has bidegree components beyond (1,0)+(0,1); frame is not Sasakian")
        return out

    # -- public operators between graded spaces -----------------------------------

    def op(self, name: str, k: int, **kw) -> BlockOperator:
        """Uniform access to the assembled operators on full spaces."""
        full = lambda deg: self.space(deg, "full")
        if name == "d":
            return BlockOperator(full(k), full(k + 1), self.d_full(k))
        if name == "d0":
            return BlockOperator(full(k), full(k + 1), self.d0_full(k))
        if name == "db":
            return BlockOperator(full(k), full(k + 1), self.db_full(k))
        if name == "dT":
            return BlockOperator(full(k), full(k + 1), self.dT_full(k))
        if name == "dt":
            return BlockOperator(full(k), full(k + 1), self.dt_full(k, kw["t"]))
        if name == "lie_reeb":
            return BlockOperator(full(k), full(k), self.lie_reeb_full(k))
        if name == "theta_wedge":
            return BlockOperator(full(k), full(k + 1), self.lifted_fiber("theta", k))
        if name == "interior_reeb":
            return BlockOperator(full(k), full(k - 1), self.lifted_fiber("iota", k))
        if name == "lefschetz":
            return BlockOperator(full(k), full(k + 2), self.lifted_fiber("lef", k))
        if name == "lefschetz_trace":
            return BlockOperator(full(k), full(k - 2), self.lifted_fiber("lam", k))
        if name == "star":
            return BlockOperator(full(k), full(self.Dmax - k), self.lifted_fiber("star", k))
        if name == "complex_structure":
            return BlockOperator(full(k), full(k), self.lifted_fiber("jact", k))
        if name == "primitive_projection":
            return BlockOperator(full(k), full(k), self.lifted_fiber("prim", k))
        raise KeyError(name)

    def rumin_space(self, k: int) -> GradedSpace:
        return self.space(k, "rumin")

    def horizontal_space(self, k: int) -> GradedSpace:
        return self.space(k, "horizontal")

    def _compress_invariant(self, mat: np.ndarray, src: GradedSpace, tgt: GradedSpace, what: str) -> BlockOperator:
        """`mat` compressed to src -> tgt, after checking that it maps src into tgt."""
        op = self.compress(mat, src, tgt)
        resid = max_abs(mat @ src.embed - tgt.embed @ op.matrix)
        if resid > 1e-10:
            raise InternalConsistencyError(f"{what} ({resid:.2e})")
        return op

    @_block_memo
    def middle_operator(self, variant: str = "factored") -> BlockOperator:
        """Second-order middle differential on the middle Rumin space.

        variant "factored": theta ^ (L_T + d_b L^-1 d_b);
        variant "kahler":   theta ^ (L_T - i (del + delbar)(del* - delbar*)).
        """
        n = self.n
        th = self.lifted_fiber("theta", n)
        if variant == "factored":
            linv = self.lefschetz_inverse_fiber()
            core = self.lie_reeb_full(n) + self.db_full(n - 1) @ self._lift(linv) @ self.db_full(n)
        elif variant == "kahler":
            dn = self.del_full(n - 1)
            dbn = self.del_full(n - 1, anti=True)
            core = self.lie_reeb_full(n) - 1j * (dn + dbn) @ (dn.conj().T - dbn.conj().T)
        else:
            raise KeyError(variant)
        # the image must lie in the middle target space exactly
        return self._compress_invariant(
            th @ core, self.rumin_space(n), self.rumin_space(n + 1), "middle operator leaves its target space"
        )

    @_block_memo
    def rumin_d(self, k: int) -> BlockOperator:
        """The rescaled complex differential on the degree-k Rumin space."""
        n = self.n
        if k == n:
            return self.middle_operator("factored")
        op = self.compress(self.d_full(k), self.rumin_space(k), self.rumin_space(k + 1))
        return rescale_coefficient(n, k) * op

    @_block_memo
    def rumin_del(self, k: int, anti: bool = False) -> BlockOperator:
        """Holomorphic / antiholomorphic halves of the Rumin differential.

        For k <= n-1 the target is the next Rumin space; in middle degree the
        target is the full horizontal (n+1)-form space.
        """
        n = self.n
        mat = self.del_full(k, anti=anti)
        if k <= n - 1:
            op = self.compress(mat, self.rumin_space(k), self.rumin_space(k + 1))
            return rescale_coefficient(n, k) * op
        if k == n:
            return self.compress(mat, self.rumin_space(n), self.horizontal_space(n + 1))
        raise KeyError("holomorphic splitting lives in degrees <= n")

    @_block_memo
    def rumin_del_laplacian(self, k: int, anti: bool = False) -> BlockOperator:
        """Delta_del / Delta_delbar on the degree-k Rumin space (k <= n)."""
        up = self.rumin_del(k, anti=anti)
        mat = up.matrix.conj().T @ up.matrix
        if k >= 1:
            down = self.rumin_del(k - 1, anti=anti)
            mat = mat + down.matrix @ down.matrix.conj().T
        sp = self.rumin_space(k)
        return BlockOperator(sp, sp, mat)

    @_block_memo
    def laplacian_rn(self, k: int) -> BlockOperator:
        n = self.n
        sp = self.rumin_space(k)
        mat = np.zeros((sp.dim, sp.dim), dtype=complex)
        # first-order pieces enter fourth order; the middle operator second order
        if k <= self.Dmax - 1 and k != n:
            up = self.rumin_d(k).matrix
            mat = mat + np.linalg.matrix_power(up.conj().T @ up, 2)
        if k >= 1 and k != n + 1:
            down = self.rumin_d(k - 1).matrix
            mat = mat + np.linalg.matrix_power(down @ down.conj().T, 2)
        if k == n:
            dmid = self.middle_operator().matrix
            mat = mat + dmid.conj().T @ dmid
        if k == n + 1:
            dmid = self.middle_operator().matrix
            mat = mat + dmid @ dmid.conj().T
        return BlockOperator(sp, sp, hermitize(mat, 1e-9, "Rumin Laplacian"))

    @_block_memo
    def sqrt_laplacian_rn(self, k: int) -> np.ndarray:
        """Hermitian psd square root of the degree-k Rumin Laplacian."""
        return sqrtm_psd(self.laplacian_rn(k).matrix, 1e-10)

    @_block_memo
    def laplacian_de_rham(self, k: int) -> BlockOperator:
        up = self.d_full(k) if k < self.Dmax else None
        down = self.d_full(k - 1) if k > 0 else None
        return _hodge_sum(self.space(k, "full"), up, down, "Hodge-de Rham Laplacian")

    def laplacian_t(self, k: int, t: float) -> BlockOperator:
        up = self.dt_full(k, t) if k < self.Dmax else None
        down = self.dt_full(k - 1, t) if k > 0 else None
        return _hodge_sum(self.space(k, "full"), up, down, "deformed Laplacian")

    @_block_memo
    def laplacian_b(self, k: int) -> BlockOperator:
        """Laplacian of d_b on horizontal k-forms."""
        sp = self.horizontal_space(k)
        up = self.compress(self.db_full(k), sp, self.horizontal_space(k + 1)).matrix if k < 2 * self.n else None
        down = self.compress(self.db_full(k - 1), self.horizontal_space(k - 1), sp).matrix if k > 0 else None
        return _hodge_sum(sp, up, down, "horizontal Laplacian")

    @_block_memo
    def lie_reeb_rumin(self, k: int) -> BlockOperator:
        sp = self.rumin_space(k)
        return self._compress_invariant(
            self.lie_reeb_full(k), sp, sp, "Reeb derivative does not preserve the Rumin space"
        )

    def box_operators(self, k: int) -> Tuple[BlockOperator, BlockOperator]:
        """Half-Laplacians (sqrt(Delta) +- i L_T)/2 on the degree-k Rumin space."""
        sp = self.rumin_space(k)
        root = self.sqrt_laplacian_rn(k)
        ilt = 1j * self.lie_reeb_rumin(k).matrix
        box = 0.5 * (root + ilt)
        boxbar = 0.5 * (root - ilt)
        for nm, m in (("box", box), ("boxbar", boxbar)):
            assert_hermitian(m, 1e-9, nm)
        return BlockOperator(sp, sp, box), BlockOperator(sp, sp, boxbar)

    def rumin_star(self, k: int) -> BlockOperator:
        """Hodge star between complementary Rumin spaces."""
        src, tgt = self.rumin_space(k), self.rumin_space(self.Dmax - k)
        return self._compress_invariant(
            self.lifted_fiber("star", k), src, tgt, "star does not map the Rumin space to its mirror"
        )
