"""Frame structure, weight blocks and lens quotients."""

import json
import math

import numpy as np
import pytest

from ruminlab import exterior as ext
from ruminlab.model import (
    FrameStructure,
    FunctionBlock,
    ParameterError,
    _ladder_matrices,
    allowed_weight_slots,
    deck_generator_matrix,
    field_ladder_coefficients,
    ladder_radicands,
    lens_space,
    su2_block,
    su2_frame,
    su2_model,
    su2_weight_actions,
)


# -- frame ---------------------------------------------------------------------


def test_frame_validates(s3):
    s3.frame.validate()


def test_levi_form_positive_on_frame(s3):
    dth = s3.frame.dtheta_bilinear()
    # dtheta(X, Y) = -theta([X, Y]) = 1, so the Levi form is positive on (X, JX)
    assert dth[1, 2] == pytest.approx(1.0)
    assert np.allclose(dth[0, :], 0.0)


def test_contact_volume_form_nonzero(s3):
    form = ext.wedge(ext.theta(1), s3.frame.dtheta_form())
    assert ext.norm(form) > 0.5


def test_reeb_rotation_commutes_with_j(s3):
    c = s3.frame.brackets
    ad_t = c[0, 1:, 1:].T  # columns are images of (X, Y)
    j = s3.frame.j_matrix
    assert np.allclose(ad_t @ j - j @ ad_t, 0.0)


def test_broken_bracket_fails_validation():
    frame = su2_frame()
    bad = frame.brackets.copy()
    bad[0, 1, 2] = -3.0  # breaks antisymmetry against bad[1, 0, 2]
    with pytest.raises(AssertionError):
        FrameStructure(n=1, brackets=bad, j_matrix=frame.j_matrix).validate()


def test_metric_makes_frame_orthonormal(s3):
    assert np.allclose(s3.frame.metric_on_frame(), np.eye(3), atol=1e-14)


# -- weight blocks ----------------------------------------------------------------


def test_weight_zero_block_is_constants():
    blk = su2_block(0)
    assert blk.dim == 1
    for a in blk.actions.values():
        assert np.allclose(a, 0.0)


def test_weight_one_commutators():
    blk = su2_block(1)
    assert blk.dim == 4
    ax, ay, at = blk.action("X"), blk.action("Y"), blk.action("T")
    assert np.max(np.abs(ax @ ay - ay @ ax + at)) < 1e-14


def test_weight_two_reeb_spectrum():
    blk = su2_block(2)
    assert blk.dim == 9
    w = np.linalg.eigvals(blk.action("T"))
    assert np.max(np.abs(w.real)) < 1e-13
    # the slot action repeats once per copy of the slot
    imag = np.sort(np.repeat(w.imag, blk.multiplicity))
    assert np.allclose(imag, [-2, -2, -2, 0, 0, 0, 2, 2, 2])


@pytest.mark.parametrize("m", range(6))
def test_block_invariants(m, s3):
    blk = su2_block(m)
    assert blk.dim == (m + 1) ** 2
    blk.validate(s3.frame, tol=1e-13)
    # -action(T)^2 is positive semidefinite
    at = blk.action("T")
    w = np.linalg.eigvalsh(-(at @ at))
    assert w.min() > -1e-13


def test_two_blocks_assemble_block_diagonally(s3):
    from ruminlab.operators import BlockContext

    b0, b1 = su2_block(0), su2_block(1)

    def full(b, nm):
        # the block's action on all of its copies
        return np.kron(b.actions[nm], np.eye(b.multiplicity))

    stacked = FunctionBlock(
        label="m0+m1",
        weight=-1,
        actions={
            nm: np.block(
                [
                    [full(b0, nm), np.zeros((b0.dim, b1.dim))],
                    [np.zeros((b1.dim, b0.dim)), full(b1, nm)],
                ]
            )
            for nm in ("T", "X", "Y")
        },
    )
    assert stacked.dim == b0.dim + b1.dim
    ctx = BlockContext(s3.frame, stacked)
    d = ctx.d_full(1)
    dim = stacked.dim
    n_in = len(ctx.mons(1))
    n_out = len(ctx.mons(2))
    for i in range(n_out):
        for j in range(n_in):
            cell = d[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim]
            assert np.max(np.abs(cell[: b0.dim, b0.dim :])) == 0.0
            assert np.max(np.abs(cell[b0.dim :, : b0.dim])) == 0.0


# -- lens quotients ------------------------------------------------------------------


def test_trivial_quotient_matches_sphere():
    for m in range(4):
        assert su2_block(m, p=1).dim == su2_block(m).dim == (m + 1) ** 2


@pytest.mark.parametrize("p,l,m", [(2, 0, 1), (2, 1, 0), (2, 1, 1), (3, 1, 2), (3, 2, 4)])
def test_lens_dims_match_deck_eigenvalue_multiplicity(p, l, m):
    # oracle: diagonalize the order-p generator on the full block
    gen = deck_generator_matrix(m, p)
    w = np.linalg.eigvals(gen)
    target = np.exp(2j * np.pi * l / p)
    mult = int(np.sum(np.abs(w - target) < 1e-9))
    assert su2_block(m, p=p, character=l).dim == mult


def test_lens_examples():
    assert su2_block(1, p=2, character=0).dim == 0
    assert su2_block(0, p=2, character=1).dim == 0
    assert su2_block(0, p=2, character=0).dim == 1


def test_bad_character_rejected():
    with pytest.raises(ParameterError):
        lens_space(2, character=2)
    with pytest.raises(ParameterError):
        lens_space(0)


def test_blocks_rejects_negative_weight(s3):
    with pytest.raises(ParameterError):
        s3.blocks(-1)


# -- volume ------------------------------------------------------------------------


def test_volume_values():
    s3 = su2_model()
    assert s3.volume == pytest.approx(4 * math.pi**2)
    assert lens_space(2).volume == pytest.approx(2 * math.pi**2)
    assert lens_space(3, character=1).volume == pytest.approx(4 * math.pi**2 / 3)


def test_constant_function_norm_is_volume():
    # the constant 1 is sqrt(V) times the unit constant basis function
    s3 = su2_model()
    coeff = math.sqrt(s3.volume)
    assert coeff**2 == pytest.approx(s3.volume)
    blk = su2_block(0)
    assert blk.dim == 1 and np.allclose(blk.action("T"), 0.0)


# -- serialization --------------------------------------------------------------------


def test_model_descriptor_round_trip():
    model = lens_space(3, character=2)
    doc = json.loads(model.to_json())
    assert doc["schema"] == 1
    assert doc["model"] == "lens" and doc["p"] == 3 and doc["character"] == 2
    rebuilt = np.array(doc["bracket_constants"])
    assert np.allclose(rebuilt, model.frame.brackets)


def test_weight_actions_exact_ladder():
    acts = su2_weight_actions(2)
    # top weight vector is killed by the raising combination X + iY
    z_raise = acts["X"] + 1j * acts["Y"]
    top = np.zeros(3, dtype=complex)
    top[-1] = 1.0
    assert np.max(np.abs(z_raise @ top)) < 1e-15


def test_allowed_weight_slots():
    assert allowed_weight_slots(2, 2, 0) == [0, 1, 2]
    assert allowed_weight_slots(1, 2, 0) == []
    assert allowed_weight_slots(1, 2, 1) == [0, 1]
    assert allowed_weight_slots(4, 3, 1) == [k for k in range(5) if (2 * k - 4 - 1) % 3 == 0]


@pytest.mark.parametrize("m", [0, 1, 2, 5, 12])
def test_field_actions_are_the_ladder_combinations(m):
    """Each field action is exactly c_z J_z + c_plus J_plus + c_minus J_minus, as the sector stacks build it."""
    jz, jp, jm = _ladder_matrices(m)
    for name, (cz, cp, cm) in field_ladder_coefficients().items():
        assert np.array_equal(su2_weight_actions(m)[name], cz * jz + cp * jp + cm * jm)


def test_ladder_matrices_match_the_per_slot_recurrence():
    """The vectorized radicands give, bit for bit, the per-slot loop over j(j+1) - mu(mu +- 1)."""
    for m in range(13):
        jz, jp, jm = _ladder_matrices(m)
        for k in range(m + 1):
            a = 2 * k - m
            assert jz[k, k] == a / 2
            if k + 1 <= m:
                assert jp[k + 1, k] == math.sqrt((m * (m + 2) - a * (a + 2)) // 4)
            if k >= 1:
                assert jm[k - 1, k] == math.sqrt((m * (m + 2) - a * (a - 2)) // 4)
        assert np.count_nonzero(jp) + np.count_nonzero(jm) == 2 * m
        plus, minus = ladder_radicands(m, np.arange(m + 1))
        assert plus[-1] == 0 and minus[0] == 0
