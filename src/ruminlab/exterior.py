"""Pointwise exterior algebra over an adapted contact coframe.

All fiberwise computations use the complexified coframe

    theta, eps^1 .. eps^n, epsbar^1 .. epsbar^n,

where eps^i := e^i + i f^i over a real coframe {theta, e^1, f^1, ..., e^n, f^n}
that is declared orthonormal.  Fixed conventions, relied on everywhere:

* generator order: theta < eps^1 < ... < eps^n < epsbar^1 < ... < epsbar^n;
* orientation: theta ^ e^1 ^ f^1 ^ ... ^ e^n ^ f^n is the positive volume form;
* the complex structure sends e^i to f^i, so eps^i spans the +i eigenspace
  of J acting on covectors by J phi := phi(J .);
* dtheta = sum_i e^i ^ f^i = (i/2) sum_i eps^i ^ epsbar^i (Levi form = identity
  on the frame);
* the Hermitian fiber metric is linear in the first slot, so the monomial
  Gram matrix is diagonal with <phi_I, phi_I> = 2^(#complex factors).

Coefficients are machine complex numbers; zero coefficients are pruned
exactly (no tolerance at this layer).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Tuple


class DimensionMismatch(ValueError):
    """Raised when forms over different coframe dimensions are combined."""


class CoframeIndex(NamedTuple):
    """One monomial: optional theta factor plus strictly increasing index sets."""

    theta: bool
    holo: Tuple[int, ...]
    anti: Tuple[int, ...]

    @property
    def degree(self) -> int:
        return int(self.theta) + len(self.holo) + len(self.anti)

    def generators(self):
        """Generator keys in canonical order (theta, eps ascending, epsbar ascending)."""
        gens = [(0, 0)] if self.theta else []
        gens += [(1, i) for i in self.holo]
        gens += [(2, j) for j in self.anti]
        return gens


class Bidegree(NamedTuple):
    i: int
    j: int
    vertical: bool


SCALAR_INDEX = CoframeIndex(False, (), ())


def _sort_sign(seq):
    """Sort a generator sequence, returning (tuple, parity sign) or None on repeats."""
    items = list(seq)
    if len(set(items)) != len(items):
        return None
    sign = 1
    # insertion sort; sequences are tiny (<= 2n+1 entries)
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return tuple(items), sign


def _index_from_generators(gens) -> CoframeIndex:
    theta = any(g == (0, 0) for g in gens)
    holo = tuple(i for kind, i in gens if kind == 1)
    anti = tuple(i for kind, i in gens if kind == 2)
    return CoframeIndex(theta, holo, anti)


def _check_index(ix: CoframeIndex, n: int):
    if not all(1 <= i <= n for i in ix.holo + ix.anti):
        raise DimensionMismatch(f"index {ix} out of range for n={n}")
    if tuple(sorted(set(ix.holo))) != ix.holo or tuple(sorted(set(ix.anti))) != ix.anti:
        raise ValueError(f"index sets must be strictly increasing: {ix}")


@dataclass
class PointwiseForm:
    """Complex exterior-algebra element over the adapted coframe at a point."""

    n: int
    coeffs: Dict[CoframeIndex, complex] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for ix, c in self.coeffs.items():
            _check_index(ix, self.n)
            c = complex(c)
            if c != 0:
                cleaned[ix] = c
        self.coeffs = cleaned

    # -- basic algebra -------------------------------------------------------

    def __add__(self, other: "PointwiseForm") -> "PointwiseForm":
        self._same_n(other)
        out = dict(self.coeffs)
        for ix, c in other.coeffs.items():
            out[ix] = out.get(ix, 0) + c
        return PointwiseForm(self.n, out)

    def __sub__(self, other: "PointwiseForm") -> "PointwiseForm":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "PointwiseForm":
        if isinstance(scalar, PointwiseForm):
            return NotImplemented  # use wedge() for form products
        return PointwiseForm(self.n, {ix: scalar * c for ix, c in self.coeffs.items()})

    __mul__ = __rmul__

    def conjugate(self) -> "PointwiseForm":
        """Complex conjugation (swaps eps and epsbar factors, conjugates coefficients)."""
        out = {}
        for ix, c in self.coeffs.items():
            gens = ([(0, 0)] if ix.theta else []) + [(2, i) for i in ix.holo] + [(1, j) for j in ix.anti]
            sorted_sign = _sort_sign(gens)
            tup, sign = sorted_sign
            jx = _index_from_generators(tup)
            out[jx] = out.get(jx, 0) + sign * complex(c).conjugate()
        return PointwiseForm(self.n, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self):
        return sorted({ix.degree for ix in self.coeffs})

    def homogeneous_part(self, k: int) -> "PointwiseForm":
        return PointwiseForm(self.n, {ix: c for ix, c in self.coeffs.items() if ix.degree == k})

    def _same_n(self, other: "PointwiseForm"):
        if self.n != other.n:
            raise DimensionMismatch(f"mixed coframe dimensions n={self.n} and n={other.n}")

    def __repr__(self):
        if not self.coeffs:
            return f"PointwiseForm(n={self.n}, 0)"
        bits = []
        for ix in sorted(self.coeffs):
            names = (["th"] if ix.theta else []) + [f"eps{i}" for i in ix.holo] + [f"~eps{j}" for j in ix.anti]
            bits.append(f"({self.coeffs[ix]:.6g})*" + ("^".join(names) if names else "1"))
        return f"PointwiseForm(n={self.n}, " + " + ".join(bits) + ")"


# -- constructors -------------------------------------------------------------


def zero(n: int) -> PointwiseForm:
    return PointwiseForm(n, {})


def scalar(n: int, value=1) -> PointwiseForm:
    return PointwiseForm(n, {SCALAR_INDEX: value})


def theta(n: int) -> PointwiseForm:
    return PointwiseForm(n, {CoframeIndex(True, (), ()): 1})


def eps(n: int, i: int) -> PointwiseForm:
    return PointwiseForm(n, {CoframeIndex(False, (i,), ()): 1})


def epsbar(n: int, i: int) -> PointwiseForm:
    return PointwiseForm(n, {CoframeIndex(False, (), (i,)): 1})


def monomial(n: int, ix: CoframeIndex) -> PointwiseForm:
    return PointwiseForm(n, {ix: 1})


def monomials(n: int, k: int):
    """All degree-k monomial indices, in a fixed deterministic order."""
    out = []
    for th in (False, True):
        rest = k - int(th)
        if rest < 0 or rest > 2 * n:
            continue
        for h in range(max(0, rest - n), min(n, rest) + 1):
            for holo in itertools.combinations(range(1, n + 1), h):
                for anti in itertools.combinations(range(1, n + 1), rest - h):
                    out.append(CoframeIndex(th, holo, anti))
    return sorted(out)


def dtheta(n: int) -> PointwiseForm:
    """The Levi 2-form sum_i e^i ^ f^i in the complex basis."""
    return PointwiseForm(
        n, {CoframeIndex(False, (i,), (i,)): 0.5j for i in range(1, n + 1)}
    )


# -- multiplicative structure --------------------------------------------------


def wedge(a: PointwiseForm, b: PointwiseForm) -> PointwiseForm:
    """Exterior product; graded anticommutative, bilinear."""
    a._same_n(b)
    out: Dict[CoframeIndex, complex] = {}
    for ixa, ca in a.coeffs.items():
        ga = ixa.generators()
        for ixb, cb in b.coeffs.items():
            merged = _sort_sign(ga + ixb.generators())
            if merged is None:
                continue
            tup, sign = merged
            ix = _index_from_generators(tup)
            out[ix] = out.get(ix, 0) + sign * ca * cb
    return PointwiseForm(a.n, out)


def interior_reeb(a: PointwiseForm) -> PointwiseForm:
    """Interior product with the Reeb field: kills horizontal monomials."""
    out = {}
    for ix, c in a.coeffs.items():
        if ix.theta:
            # theta is first in canonical order, so no sign appears
            jx = CoframeIndex(False, ix.holo, ix.anti)
            out[jx] = out.get(jx, 0) + c
    return PointwiseForm(a.n, out)


def theta_wedge(a: PointwiseForm) -> PointwiseForm:
    return wedge(theta(a.n), a)


def horizontal_part(a: PointwiseForm) -> PointwiseForm:
    return PointwiseForm(a.n, {ix: c for ix, c in a.coeffs.items() if not ix.theta})


def lefschetz_wedge(a: PointwiseForm) -> PointwiseForm:
    """Wedge with dtheta (degree +2)."""
    return wedge(dtheta(a.n), a)


def lefschetz_trace(a: PointwiseForm) -> PointwiseForm:
    """Pointwise adjoint of lefschetz_wedge, computed as star^-1 . L . star."""
    # the star operator is an involution in odd total dimension
    return hodge_star(lefschetz_wedge(hodge_star(a)))


def complex_structure(a: PointwiseForm) -> PointwiseForm:
    """Action of J on forms: multiply an (i, j)-monomial by i^(i-j)."""
    out = {}
    for ix, c in a.coeffs.items():
        out[ix] = c * (1j) ** (len(ix.holo) - len(ix.anti))
    return PointwiseForm(a.n, out)


def bidegree_split(a: PointwiseForm):
    """Split into components keyed by Bidegree(i, j, vertical)."""
    parts: Dict[Bidegree, PointwiseForm] = {}
    for ix, c in a.coeffs.items():
        key = Bidegree(len(ix.holo), len(ix.anti), ix.theta)
        parts.setdefault(key, zero(a.n)).coeffs[ix] = c
    return {k: PointwiseForm(a.n, v.coeffs) for k, v in parts.items()}


# -- metric structure ----------------------------------------------------------


def gram_weight(ix: CoframeIndex) -> float:
    """Squared norm of a basis monomial."""
    return float(2 ** (len(ix.holo) + len(ix.anti)))


def inner_product(a: PointwiseForm, b: PointwiseForm) -> complex:
    """Pointwise Hermitian pairing, linear in the first argument."""
    a._same_n(b)
    total = 0j
    for ix, c in a.coeffs.items():
        cb = b.coeffs.get(ix)
        if cb is not None:
            total += c * complex(cb).conjugate() * gram_weight(ix)
    return total


def norm(a: PointwiseForm) -> float:
    return abs(inner_product(a, a)) ** 0.5


# -- real-coframe conversion and the Hodge star --------------------------------

# real generator ranks: theta -> 0, e^i -> 2i-1, f^i -> 2i


def to_real(a: PointwiseForm):
    """Expand into the orthonormal real monomial basis; dict rank-tuple -> coeff."""
    out: Dict[Tuple[int, ...], complex] = {}
    for ix, c in a.coeffs.items():
        choices = []
        if ix.theta:
            choices.append(((0, 1),))
        for i in ix.holo:
            choices.append(((2 * i - 1, 1), (2 * i, 1j)))
        for j in ix.anti:
            choices.append(((2 * j - 1, 1), (2 * j, -1j)))
        for pick in itertools.product(*choices):
            ranks = [r for r, _ in pick]
            merged = _sort_sign(ranks)
            if merged is None:
                continue
            tup, sign = merged
            coeff = c * sign
            for _, w in pick:
                coeff *= w
            out[tup] = out.get(tup, 0) + coeff
    return {t: c for t, c in out.items() if c != 0}


def from_real(n: int, real_coeffs) -> PointwiseForm:
    """Inverse of to_real."""
    out: Dict[CoframeIndex, complex] = {}
    for ranks, c in real_coeffs.items():
        choices = []
        for r in ranks:
            if r == 0:
                choices.append((((0, 0), 1),))
            elif r % 2 == 1:
                i = (r + 1) // 2
                choices.append((((1, i), 0.5), ((2, i), 0.5)))
            else:
                i = r // 2
                choices.append((((1, i), -0.5j), ((2, i), 0.5j)))
        for pick in itertools.product(*choices):
            gens = [g for g, _ in pick]
            merged = _sort_sign(gens)
            if merged is None:
                continue
            tup, sign = merged
            coeff = complex(c) * sign
            for _, w in pick:
                coeff *= w
            ix = _index_from_generators(tup)
            out[ix] = out.get(ix, 0) + coeff
    return PointwiseForm(n, out)


def hodge_star(a: PointwiseForm) -> PointwiseForm:
    """Hodge star for the orthonormal real coframe and the fixed orientation.

    Complex linear; satisfies <a, b> vol = a ^ star(conj b) and star.star = id
    (total dimension 2n+1 is odd).
    """
    n = a.n
    full = list(range(2 * n + 1))
    out: Dict[Tuple[int, ...], complex] = {}
    for ranks, c in to_real(a).items():
        comp = tuple(r for r in full if r not in ranks)
        _, sign = _sort_sign(list(ranks) + list(comp))
        out[comp] = out.get(comp, 0) + sign * c
    return from_real(n, out)


# -- Lefschetz decomposition ----------------------------------------------------


def primitive_projection(a: PointwiseForm) -> PointwiseForm:
    """Orthogonal projection onto primitive forms (ker of lefschetz_trace).

    Any theta component is projected away first.  Computed degreewise by
    peeling the Lefschetz decomposition a = sum_r L^r a_r top down; primitive
    components of degree > n are zero.
    """
    n = a.n
    result = zero(n)
    for k in a.degrees():
        part = horizontal_part(a.homogeneous_part(k))
        if part.is_zero() or k > n:
            continue
        work = part
        for r in range(k // 2, 0, -1):
            v = work
            for _ in range(r):
                v = lefschetz_trace(v)
            c = 1.0
            for t in range(1, r + 1):
                c *= t * (n - (k - 2 * r) - t + 1)
            a_r = (1.0 / c) * v
            lifted = a_r
            for _ in range(r):
                lifted = lefschetz_wedge(lifted)
            work = work - lifted
        result = result + work
    return result
