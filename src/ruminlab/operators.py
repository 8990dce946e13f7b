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
frame-field derivations enter as kron(wedge fiber, action matrix).  Dimensions
and eigenvalue counts of the block are those on the slot times r.

Set-up is cached at the level it depends on.  Fiber tables (monomial lists,
Gram norms, the named fiber matrices and the per-field wedge fibers) depend on
the frame alone and live in one table dict; an `Assembly` owns that dict and
hands it to every block context it builds, so each table is computed once per
assembly.  Full-space matrices (lifted fibers, d, d_0, d_T, d_b, L_T, ...)
depend on the block and live in the context's own cache.  Every cached array
is read-only: a caller that writes into one gets a ValueError instead of
silently changing every later block that shares it.  Nothing is cached beyond
the lifetime of the assembly or context that owns it.

Graded subspaces (horizontal forms, bidegree components, the primitive and
theta ^ ker L spaces of the Rumin complex) are carried as isometric embedding
matrices into the full coordinates; compressing a full-space operator with the
embeddings applies the corresponding orthogonal projections automatically,
which is exactly how the projected differentials are defined.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import exterior as ext
from .model import FrameStructure, FunctionBlock


class StructuralError(RuntimeError):
    """An assembled operator violates a structural assumption (e.g. not Sasakian)."""


class InternalConsistencyError(RuntimeError):
    """An exact identity failed beyond rounding; indicates an assembly bug."""


def _frozen(m: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only and return it."""
    m.setflags(write=False)
    return m


def max_abs(m: np.ndarray) -> float:
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


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
    embed: np.ndarray  # (full_dim, dim) isometry

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

    def norm_max(self) -> float:
        return max_abs(self.matrix)

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


def _range_basis_of_projector(p: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a Hermitian projector."""
    p = hermitize(p, 1e-10, "projector")
    if max_abs(p @ p - p) > tol:
        raise InternalConsistencyError("projector is not idempotent")
    w, q = np.linalg.eigh(p)
    return q[:, w > 0.5]


class BlockContext:
    """Caches every operator of the calculus on one (frame, block) pair.

    `tables` is the dict of per-frame fiber tables; contexts that share one
    (all contexts of an `Assembly`) compute each table once.  Without it the
    context keeps private tables.  Block-dependent matrices are cached in the
    context itself.
    """

    def __init__(self, frame: FrameStructure, block: FunctionBlock, tables: Optional[Dict] = None):
        if frame.n != 1:
            # the block models exist only for n = 1; the fiber layer is generic
            raise StructuralError("function blocks are only defined for n = 1 frames")
        self.frame = frame
        self.block = block
        self.n = frame.n
        self.Dmax = frame.dim
        self._tables: Dict = {} if tables is None else tables
        if self._tables.setdefault("frame", frame) is not frame:
            raise ValueError("fiber tables belong to another frame")
        self._cache: Dict = {}

    # -- fiber layer (per-frame tables) -------------------------------------------

    def _generator_maps(self):
        """d and i_T L_T on the complex coframe generators, from bracket constants."""
        if "generators" not in self._tables:
            real_diffs = [self.frame.coframe_differential(a) for a in range(self.Dmax)]
            dgen = {(0, 0): real_diffs[0]}
            for i in range(1, self.n + 1):
                de, df = real_diffs[2 * i - 1], real_diffs[2 * i]
                dgen[(1, i)] = de + 1j * df
                dgen[(2, i)] = de + (-1j) * df
            rotgen = {g: ext.interior_reeb(dg) for g, dg in dgen.items()}
            self._tables["generators"] = (dgen, rotgen)
        return self._tables["generators"]

    def mons(self, k: int) -> List[ext.CoframeIndex]:
        if k < 0 or k > self.Dmax:
            return []
        key = ("mons", k)
        if key not in self._tables:
            self._tables[key] = ext.monomials(self.n, k)
        return self._tables[key]

    def _norms(self, k: int) -> np.ndarray:
        key = ("norms", k)
        if key not in self._tables:
            self._tables[key] = _frozen(
                np.array([math.sqrt(ext.gram_weight(ix)) for ix in self.mons(k)])
            )
        return self._tables[key]

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

    def _fiber(self, name: str, k: int) -> np.ndarray:
        key = ("fiber", name, k)
        if key in self._tables:
            return self._tables[key]
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
        self._tables[key] = _frozen(m)
        return m

    def _wedge_fiber(self, a: int, k: int) -> np.ndarray:
        """Fiber of wedging with the coframe form dual to frame field a."""
        key = ("wedge", a, k)
        if key not in self._tables:
            alpha = ext.from_real(self.n, {(a,): 1})
            self._tables[key] = _frozen(
                self.fiber_matrix(lambda x: ext.wedge(alpha, x), k, k + 1)
            )
        return self._tables[key]

    def _fiber_selection(self, k: int, keep) -> np.ndarray:
        cols = [i for i, ix in enumerate(self.mons(k)) if keep(ix)]
        sel = np.zeros((len(self.mons(k)), len(cols)), dtype=complex)
        for j, i in enumerate(cols):
            sel[i, j] = 1.0
        return sel

    # -- graded spaces -----------------------------------------------------------

    def full_dim(self, k: int) -> int:
        return len(self.mons(k)) * self.block.slot_dim

    def space(self, k: int, flavor="full") -> GradedSpace:
        key = ("space", k, flavor)
        if key in self._cache:
            return self._cache[key]
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
            if k <= self.n:
                fib = _range_basis_of_projector(self._fiber("prim", k))
            else:
                lef = self._fiber("lef", k - 1)
                hsel = self._fiber_selection(k - 1, lambda ix: not ix.theta)
                kerl = hsel @ _null_basis(lef @ hsel)
                fib = self._fiber("theta", k - 1) @ kerl
        else:
            raise KeyError(f"unknown flavor {flavor!r}")
        sp = GradedSpace(self.block.label, k, str(flavor), _frozen(self._lift(fib)))
        self._cache[key] = sp
        return sp

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

    def lifted_fiber(self, name: str, k: int) -> np.ndarray:
        """The fiber table `name` in degree k lifted to full coordinates."""
        key = ("lift", name, k)
        if key not in self._cache:
            self._cache[key] = _frozen(self._lift(self._fiber(name, k)))
        return self._cache[key]

    def d_full(self, k: int) -> np.ndarray:
        key = ("d", k)
        if key in self._cache:
            return self._cache[key]
        d = self.lifted_fiber("dmon", k)
        for a, name in enumerate(self.frame.field_names):
            d = d + np.kron(self._wedge_fiber(a, k), self.block.action(name))
        self._cache[key] = _frozen(d)
        return d

    def lie_reeb_full(self, k: int) -> np.ndarray:
        key = ("lt", k)
        if key in self._cache:
            return self._cache[key]
        m = np.kron(np.eye(len(self.mons(k)), dtype=complex), self.block.action("T"))
        m = m + self.lifted_fiber("rot", k)
        self._cache[key] = _frozen(m)
        return m

    def d0_full(self, k: int) -> np.ndarray:
        key = ("d0", k)
        if key not in self._cache:
            if k == 0:
                m = np.zeros((self.full_dim(1), self.full_dim(0)), dtype=complex)
            else:
                m = self._lift(self._fiber("lef", k - 1) @ self._fiber("iota", k))
            self._cache[key] = _frozen(m)
        return self._cache[key]

    def dT_full(self, k: int) -> np.ndarray:
        key = ("dT", k)
        if key not in self._cache:
            m = self.lifted_fiber("theta", k) @ self.lie_reeb_full(k) @ self.lifted_fiber("horiz", k)
            self._cache[key] = _frozen(m)
        return self._cache[key]

    def db_full(self, k: int) -> np.ndarray:
        key = ("db", k)
        if key not in self._cache:
            self._cache[key] = _frozen(self.d_full(k) - self.d0_full(k) - self.dT_full(k))
        return self._cache[key]

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

    def _bidegree_fiber_projector(self, k: int, i: int, j: int) -> np.ndarray:
        return np.diag(
            [
                1.0 if (not ix.theta and len(ix.holo) == i and len(ix.anti) == j) else 0.0
                for ix in self.mons(k)
            ]
        ).astype(complex)

    def del_full(self, k: int, anti: bool = False, tol: float = 1e-12) -> np.ndarray:
        """(1,0) or (0,1) part of d_b on horizontal forms, in full coordinates."""
        key = ("del", k, anti)
        if key in self._cache:
            return self._cache[key]
        db = self.db_full(k) @ self.lifted_fiber("horiz", k)
        out = np.zeros_like(db)
        covered = np.zeros_like(db)
        for i in range(0, k + 1):
            j = k - i
            src = self._lift(self._bidegree_fiber_projector(k, i, j))
            ti, tj = (i, j + 1) if anti else (i + 1, j)
            tgt = self._lift(self._bidegree_fiber_projector(k + 1, ti, tj))
            out = out + tgt @ db @ src
            oti, otj = (i + 1, j) if anti else (i, j + 1)
            other = self._lift(self._bidegree_fiber_projector(k + 1, oti, otj))
            covered = covered + (tgt + other) @ db @ src
        if max_abs(covered - db) > tol:
            raise StructuralError("d_b has bidegree components beyond (1,0)+(0,1); frame is not Sasakian")
        self._cache[key] = _frozen(out)
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

    def middle_operator(self, variant: str = "factored") -> BlockOperator:
        """Second-order middle differential on the middle Rumin space.

        variant "factored": theta ^ (L_T + d_b L^-1 d_b);
        variant "kahler":   theta ^ (L_T - i (del + delbar)(del* - delbar*)).
        """
        n = self.n
        key = ("D", variant)
        if key in self._cache:
            return self._cache[key]
        th = self.lifted_fiber("theta", n)
        if variant == "factored":
            hsel_lo = self._fiber_selection(n - 1, lambda ix: not ix.theta)
            hsel_hi = self._fiber_selection(n + 1, lambda ix: not ix.theta)
            lef_h = hsel_hi.conj().T @ self._fiber("lef", n - 1) @ hsel_lo
            linv = hsel_lo @ np.linalg.inv(lef_h) @ hsel_hi.conj().T
            core = self.lie_reeb_full(n) + self.db_full(n - 1) @ self._lift(linv) @ self.db_full(n)
        elif variant == "kahler":
            dn = self.del_full(n - 1)
            dbn = self.del_full(n - 1, anti=True)
            core = self.lie_reeb_full(n) - 1j * (dn + dbn) @ (dn.conj().T - dbn.conj().T)
        else:
            raise KeyError(variant)
        mat = th @ core
        src, tgt = self.rumin_space(n), self.rumin_space(n + 1)
        # the image must lie in the middle target space exactly
        resid = max_abs(mat @ src.embed - tgt.embed @ (tgt.embed.conj().T @ mat @ src.embed))
        if resid > 1e-10:
            raise InternalConsistencyError(f"middle operator leaves its target space ({resid:.2e})")
        op = self.compress(mat, src, tgt)
        _frozen(op.matrix)
        self._cache[key] = op
        return op

    def rumin_d(self, k: int, rescaled: bool = True) -> BlockOperator:
        """The complex differential on the degree-k Rumin space."""
        key = ("dR", k, rescaled)
        if key in self._cache:
            return self._cache[key]
        n = self.n
        if k == n:
            op = self.middle_operator("factored")
        else:
            op = self.compress(self.d_full(k), self.rumin_space(k), self.rumin_space(k + 1))
            if rescaled:
                op = rescale_coefficient(n, k) * op
        _frozen(op.matrix)
        self._cache[key] = op
        return op

    def rumin_del(self, k: int, anti: bool = False, rescaled: bool = True) -> BlockOperator:
        """Holomorphic / antiholomorphic halves of the Rumin differential.

        For k <= n-1 the target is the next Rumin space; in middle degree the
        target is the full horizontal (n+1)-form space.
        """
        n = self.n
        key = ("rdel", k, anti, rescaled)
        if key in self._cache:
            return self._cache[key]
        mat = self.del_full(k, anti=anti)
        if k <= n - 1:
            op = self.compress(mat, self.rumin_space(k), self.rumin_space(k + 1))
            if rescaled:
                op = rescale_coefficient(n, k) * op
        elif k == n:
            op = self.compress(mat, self.rumin_space(n), self.horizontal_space(n + 1))
        else:
            raise KeyError("holomorphic splitting lives in degrees <= n")
        _frozen(op.matrix)
        self._cache[key] = op
        return op

    def rumin_del_laplacian(self, k: int, anti: bool = False) -> BlockOperator:
        """Delta_del / Delta_delbar on the degree-k Rumin space (k <= n)."""
        up = self.rumin_del(k, anti=anti)
        mat = up.matrix.conj().T @ up.matrix
        if k >= 1:
            down = self.rumin_del(k - 1, anti=anti)
            mat = mat + down.matrix @ down.matrix.conj().T
        sp = self.rumin_space(k)
        return BlockOperator(sp, sp, mat)

    def laplacian_rn(self, k: int) -> BlockOperator:
        key = ("lap_rn", k)
        if key in self._cache:
            return self._cache[key]
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
        op = BlockOperator(sp, sp, hermitize(mat, 1e-9, "Rumin Laplacian"))
        _frozen(op.matrix)
        self._cache[key] = op
        return op

    def laplacian_de_rham(self, k: int) -> BlockOperator:
        key = ("lap_dr", k)
        if key in self._cache:
            return self._cache[key]
        sp = self.space(k, "full")
        mat = np.zeros((sp.dim, sp.dim), dtype=complex)
        if k < self.Dmax:
            up = self.d_full(k)
            mat = mat + up.conj().T @ up
        if k > 0:
            down = self.d_full(k - 1)
            mat = mat + down @ down.conj().T
        op = BlockOperator(sp, sp, hermitize(mat, 1e-9, "Hodge-de Rham Laplacian"))
        _frozen(op.matrix)
        self._cache[key] = op
        return op

    def laplacian_t(self, k: int, t: float) -> BlockOperator:
        sp = self.space(k, "full")
        mat = np.zeros((sp.dim, sp.dim), dtype=complex)
        if k < self.Dmax:
            up = self.dt_full(k, t)
            mat = mat + up.conj().T @ up
        if k > 0:
            down = self.dt_full(k - 1, t)
            mat = mat + down @ down.conj().T
        return BlockOperator(sp, sp, hermitize(mat, 1e-9, "deformed Laplacian"))

    def laplacian_b(self, k: int) -> BlockOperator:
        """Laplacian of d_b on horizontal k-forms."""
        sp = self.horizontal_space(k)
        mat = np.zeros((sp.dim, sp.dim), dtype=complex)
        if k < 2 * self.n:
            up = self.compress(self.db_full(k), sp, self.horizontal_space(k + 1)).matrix
            mat = mat + up.conj().T @ up
        if k > 0:
            down = self.compress(self.db_full(k - 1), self.horizontal_space(k - 1), sp).matrix
            mat = mat + down @ down.conj().T
        return BlockOperator(sp, sp, hermitize(mat, 1e-9, "horizontal Laplacian"))

    def lie_reeb_rumin(self, k: int) -> BlockOperator:
        sp = self.rumin_space(k)
        full = self.lie_reeb_full(k)
        resid = max_abs(full @ sp.embed - sp.embed @ (sp.embed.conj().T @ full @ sp.embed))
        if resid > 1e-10:
            raise InternalConsistencyError("Reeb derivative does not preserve the Rumin space")
        return self.compress(full, sp, sp)

    def box_operators(self, k: int, tol: float = 1e-10) -> Tuple[BlockOperator, BlockOperator]:
        """Half-Laplacians (sqrt(Delta) +- i L_T)/2 on the degree-k Rumin space."""
        sp = self.rumin_space(k)
        root = sqrtm_psd(self.laplacian_rn(k).matrix, tol)
        ilt = 1j * self.lie_reeb_rumin(k).matrix
        box = 0.5 * (root + ilt)
        boxbar = 0.5 * (root - ilt)
        for nm, m in (("box", box), ("boxbar", boxbar)):
            assert_hermitian(m, 1e-9, nm)
        return BlockOperator(sp, sp, box), BlockOperator(sp, sp, boxbar)

    def rumin_star(self, k: int) -> BlockOperator:
        """Hodge star between complementary Rumin spaces."""
        src, tgt = self.rumin_space(k), self.rumin_space(self.Dmax - k)
        mat = self.lifted_fiber("star", k)
        resid = max_abs(mat @ src.embed - tgt.embed @ (tgt.embed.conj().T @ mat @ src.embed))
        if resid > 1e-10:
            raise InternalConsistencyError("star does not map the Rumin space to its mirror")
        return self.compress(mat, src, tgt)
