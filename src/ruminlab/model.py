"""Homogeneous model manifolds: the unit-group 3-sphere and its lens quotients.

The frame {T, X, Y} is normalized so that

    [X, Y] = -T,   [T, X] = -2 Y,   [T, Y] = 2 X,   J X = Y,  J Y = -X,

which makes the contact-metric frame orthonormal for g = dtheta(., J.) + theta x theta
and the Reeb flow a rotation of weight 2 on the complex coframe.  Invariant
function spaces are weight blocks: the block of weight m is the spin-(m/2)
representation W_m tensored with a multiplicity space C^r, and the frame
fields act on the first factor only.  A block therefore stores the (m+1)x(m+1)
actions on W_m, exact matrices built from the standard raising/lowering
recurrences (integer radicands, only the square roots are floating point),
plus the integer multiplicity r; its total dimension is (m+1)*r.

On the sphere r = m+1.  Lens quotients act on the multiplicity factor, so they
only shrink r: the order-p quotient twisted by the character indexed by l
keeps the weight slots with 2*mu = l (mod p).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from . import exterior as ext


class ParameterError(ValueError):
    """Invalid model parameter (bad character, negative weight, ...)."""


# -- frame ---------------------------------------------------------------------


@dataclass(frozen=True)
class FrameStructure:
    """Bracket constants and complex structure of an invariant contact frame.

    Field order is (T, X_1, Y_1, ..., X_n, Y_n); ``brackets[a, b, c]`` is the
    coefficient of field c in [field_a, field_b].  The dual coframe shares the
    ordering of :mod:`ruminlab.exterior` (theta, e^1, f^1, ...).  Both arrays
    are read-only copies, so a frame's values never change after construction:
    they key its fiber tables (`key`, `operators.frame_tables`).
    """

    n: int
    brackets: np.ndarray
    j_matrix: np.ndarray

    def __post_init__(self):
        for name in ("brackets", "j_matrix"):
            value = np.array(getattr(self, name))
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def key(self) -> tuple:
        """The frame's values (n, bracket constants, complex structure) as a hashable tuple:
        equal frames have equal keys, and so share one set of fiber tables."""
        return (self.n,) + tuple((a.dtype.str, a.shape, a.tobytes()) for a in (self.brackets, self.j_matrix))

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def field_names(self) -> Tuple[str, ...]:
        if self.n == 1:
            return ("T", "X", "Y")
        names = ["T"]
        for i in range(1, self.n + 1):
            names += [f"X{i}", f"Y{i}"]
        return tuple(names)

    def dtheta_bilinear(self) -> np.ndarray:
        """dtheta evaluated on frame pairs, from dtheta(U, V) = -theta([U, V])."""
        return -self.brackets[:, :, 0]

    def coframe_differential(self, a: int) -> ext.PointwiseForm:
        """d of the a-th real coframe element, from the structure constants."""
        coeffs: Dict[Tuple[int, ...], complex] = {}
        for u in range(self.dim):
            for v in range(u + 1, self.dim):
                c = self.brackets[u, v, a]
                if c != 0:
                    coeffs[(u, v)] = coeffs.get((u, v), 0.0) - c
        return ext.from_real(self.n, coeffs)

    def dtheta_form(self) -> ext.PointwiseForm:
        return self.coframe_differential(0)

    def metric_on_frame(self) -> np.ndarray:
        """g(V_a, V_b) = dtheta(V_a, J V_b) + theta(V_a) theta(V_b)."""
        dth = self.dtheta_bilinear()
        jfull = np.zeros((self.dim, self.dim))
        jfull[1:, 1:] = self.j_matrix
        g = dth @ jfull
        g[0, 0] += 1.0
        return g

    def validate(self, tol: float = 1e-13):
        """Check every structural invariant; raises AssertionError on failure."""
        c = self.brackets
        assert np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) <= tol, "brackets not antisymmetric"
        # Jacobi identity
        jac = np.einsum("abx,xcg->abcg", c, c)
        jac = jac + np.transpose(jac, (1, 2, 0, 3)) + np.transpose(jac, (2, 0, 1, 3))
        assert np.max(np.abs(jac)) <= tol, "Jacobi identity fails"
        # Reeb conditions: iota_T dtheta = 0
        assert np.max(np.abs(self.dtheta_bilinear()[0, :])) <= tol, "iota_T dtheta != 0"
        # contact condition: theta ^ (dtheta)^n is the full volume
        form = ext.theta(self.n)
        dth = self.dtheta_form()
        for _ in range(self.n):
            form = ext.wedge(form, dth)
        assert ext.norm(form) > tol, "theta ^ dtheta^n vanishes"
        # the frame is orthonormal for the contact metric
        assert np.max(np.abs(self.metric_on_frame() - np.eye(self.dim))) <= tol, "frame not orthonormal"
        # J^2 = -1 on H
        assert np.max(np.abs(self.j_matrix @ self.j_matrix + np.eye(2 * self.n))) <= tol
        # Sasakian: ad_T restricted to H commutes with J
        ad_t = c[0, 1:, 1:]
        assert np.max(np.abs(ad_t.T @ self.j_matrix - self.j_matrix @ ad_t.T)) <= tol, "L_T J != 0"
        # CR integrability: [H10, H10] in H10 for the constant frame
        zvecs = []
        for i in range(self.n):
            z = np.zeros(self.dim, dtype=complex)
            z[1 + 2 * i] = 1.0
            z[2 + 2 * i] = -1.0j
            zvecs.append(z)
        jfull = np.zeros((self.dim, self.dim), dtype=complex)
        jfull[1:, 1:] = self.j_matrix
        for za in zvecs:
            for zb in zvecs:
                br = np.einsum("a,b,abc->c", za, zb, c.astype(complex))
                # bracket must again be a +i eigenvector of J with no Reeb part
                assert abs(br[0]) <= tol
                assert np.max(np.abs(jfull @ br - 1j * br)) <= tol, "[H10, H10] leaves H10"


@functools.cache
def su2_frame() -> FrameStructure:
    """The frame of the unit-group 3-sphere, one read-only instance per process."""
    c = np.zeros((3, 3, 3))
    c[1, 2, 0], c[2, 1, 0] = -1.0, 1.0   # [X, Y] = -T
    c[0, 1, 2], c[1, 0, 2] = -2.0, 2.0   # [T, X] = -2Y
    c[0, 2, 1], c[2, 0, 1] = 2.0, -2.0   # [T, Y] = 2X
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    return FrameStructure(n=1, brackets=c, j_matrix=j)


# -- weight blocks ---------------------------------------------------------------


def ladder_radicands(m, k):
    """Integer radicands of J_plus[k+1, k] and J_minus[k-1, k] on weight m, elementwise.

    Slot k has weight mu = (2k - m)/2 and j = m/2, so the radicands
    j(j+1) - mu(mu +- 1) = (m(m+2) - a(a +- 2))/4 with a = 2k - m are integers;
    they vanish at the ends of the slot range (J_plus at k = m, J_minus at k = 0).
    `m` and `k` are integers or integer arrays that broadcast together.
    """
    a = 2 * k - m
    return (m * (m + 2) - a * (a + 2)) // 4, (m * (m + 2) - a * (a - 2)) // 4


def _ladder_matrices(m: int):
    """Spin-(m/2) J_z, J_plus, J_minus in the ascending-weight basis, exact radicands."""
    k = np.arange(m + 1)
    plus, minus = ladder_radicands(m, k)
    jz = np.diag((2 * k - m) / 2)
    jp = np.zeros((m + 1, m + 1))
    jm = np.zeros((m + 1, m + 1))
    jp[k[1:], k[:-1]] = np.sqrt(plus[:-1])
    jm[k[:-1], k[1:]] = np.sqrt(minus[1:])
    return jz, jp, jm


def su2_weight_actions(m: int) -> Dict[str, np.ndarray]:
    """Frame-field matrices on the weight-m representation slot."""
    return _field_actions(*_ladder_matrices(m))


def _field_actions(jz: np.ndarray, jp: np.ndarray, jm: np.ndarray) -> Dict[str, np.ndarray]:
    """The frame fields T, X, Y as combinations of the ladder matrices of one slot."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return {
        "T": 2j * jz.astype(complex),
        "X": (-1j * inv_sqrt2) * (jp + jm).astype(complex),
        "Y": (-inv_sqrt2) * (jp - jm).astype(complex),
    }


def field_ladder_coefficients() -> Dict[str, Tuple[complex, complex, complex]]:
    """(c_z, c_plus, c_minus) of every frame field, whose action on each weight slot is
    c_z J_z + c_plus J_plus + c_minus J_minus; read off the weight-1 slot, where
    J_z = diag(-1/2, 1/2) and J_plus[1, 0] = J_minus[0, 1] = 1."""
    return {
        name: (complex(a[1, 1] - a[0, 0]), complex(a[1, 0]), complex(a[0, 1]))
        for name, a in _field_actions(*_ladder_matrices(1)).items()
    }


def allowed_weight_slots(m: int, p: int, character: int) -> List[int]:
    """Positions k (ascending weight mu = -m/2 + k) with 2*mu = character (mod p)."""
    return [k for k in range(m + 1) if (2 * k - m - character) % p == 0]


def deck_generator_matrix(m: int, p: int) -> np.ndarray:
    """Action of the order-p deck generator on the full weight-m block."""
    zeta = np.exp(2j * np.pi / p)
    phases = np.array([zeta ** (2 * k - m) for k in range(m + 1)])
    return np.kron(np.eye(m + 1, dtype=complex), np.diag(phases))


@dataclass(frozen=True)
class FunctionBlock:
    """An invariant function space W (x) C^multiplicity, with exact frame-field
    actions on the irreducible slot W and the identity on C^multiplicity."""

    label: str
    weight: int
    actions: Dict[str, np.ndarray]
    multiplicity: int = 1
    character: int = 0
    group_order: int = 1

    @property
    def slot_dim(self) -> int:
        """Dimension of the irreducible slot W."""
        return self.actions["T"].shape[0]

    @property
    def dim(self) -> int:
        """Total dimension, slot dimension times multiplicity."""
        return self.slot_dim * self.multiplicity

    def action(self, name: str) -> np.ndarray:
        return self.actions[name]

    def validate(self, frame: FrameStructure, tol: float = 1e-13):
        names = ("T", "X", "Y")
        mats = [self.actions[nm] for nm in names]
        for a in mats:
            assert np.max(np.abs(a + a.conj().T)) <= tol, "field action not skew-Hermitian"
        c = frame.brackets
        for a in range(3):
            for b in range(3):
                comm = mats[a] @ mats[b] - mats[b] @ mats[a]
                expect = sum(c[a, b, g] * mats[g] for g in range(3))
                assert np.max(np.abs(comm - expect)) <= tol, "bracket constants not reproduced"


def block_label(m: int) -> str:
    """The label of the weight-m block in every report."""
    return f"m{m}"


def su2_block(m: int, p: int = 1, character: int = 0) -> FunctionBlock:
    """Weight-m block of the sphere or of the order-p lens quotient."""
    return FunctionBlock(
        label=block_label(m),
        weight=m,
        actions=su2_weight_actions(m),
        multiplicity=len(allowed_weight_slots(m, p, character)),
        character=character,
        group_order=p,
    )


# -- manifolds ---------------------------------------------------------------------


@dataclass(frozen=True)
class ModelManifold:
    frame: FrameStructure
    p: int = 1
    character: int = 0
    name: str = "s3"

    @property
    def volume(self) -> float:
        # orthonormal-frame metric doubles the horizontal round metric,
        # so vol = sqrt(det) * 2 pi^2 = 4 pi^2, divided by the quotient order
        return 4.0 * math.pi ** 2 / self.p

    def multiplicity(self, weight: int) -> int:
        """The multiplicity r of the weight block: its copies of the irreducible slot."""
        return len(allowed_weight_slots(weight, self.p, self.character))

    def block(self, weight: int) -> FunctionBlock:
        """The block of the given weight alone."""
        if weight < 0:
            raise ParameterError("weight must be >= 0")
        return su2_block(weight, self.p, self.character)

    def blocks(self, max_weight: int) -> List[FunctionBlock]:
        if max_weight < 0:
            raise ParameterError("max_weight must be >= 0")
        return [self.block(m) for m in range(max_weight + 1)]

    def nonempty_blocks(self, max_weight: int) -> List[FunctionBlock]:
        return [b for b in self.blocks(max_weight) if b.dim > 0]

    def describe(self) -> dict:
        return {
            "schema": 1,
            "model": self.name,
            "n": self.frame.n,
            "p": self.p,
            "character": self.character,
            "bracket_constants": self.frame.brackets.tolist(),
            "volume": self.volume,
        }

    def to_json(self) -> str:
        return json.dumps(self.describe(), sort_keys=True)


def su2_model() -> ModelManifold:
    return ModelManifold(frame=su2_frame(), p=1, character=0, name="s3")


def lens_space(p: int, character: int = 0) -> ModelManifold:
    """Order-p lens quotient, optionally twisted by the deck-group character of index `character`."""
    if p < 1:
        raise ParameterError("p must be >= 1")
    if not 0 <= character < p:
        raise ParameterError(f"character {character} invalid for p={p}")
    return ModelManifold(frame=su2_frame(), p=p, character=character, name="s3" if p == 1 else "lens")


def volume(model: ModelManifold) -> float:
    return model.volume
