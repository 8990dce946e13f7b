"""Assembled differential operators: complexes, decompositions, Laplacians."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruminlab import exterior as ext
from ruminlab.model import su2_block
from ruminlab.operators import (
    BlockContext,
    BlockOperator,
    InternalConsistencyError,
    StructuralError,
    hermitize,
    max_abs,
    rescale_coefficient,
    sqrtm_psd,
)


def ctx_for(s3_contexts, m):
    return s3_contexts[m]


# -- the exterior differential -----------------------------------------------------


def test_d_kills_constants(s3_contexts):
    ctx = s3_contexts[0]
    d0 = ctx.d_full(0)
    v = np.zeros(ctx.full_dim(0), dtype=complex)
    v[0] = 1.0
    assert max_abs(d0 @ v) == 0.0


def test_d_of_theta_is_levi_form(s3_contexts):
    # applying d to the theta basis vector reproduces the structure-constant
    # expansion of dtheta
    ctx = s3_contexts[0]
    mons = ctx.mons(1)
    theta_ix = ext.CoframeIndex(True, (), ())
    col = mons.index(theta_ix)
    image = ctx.d_full(1)[:, col]
    expected = np.zeros(ctx.full_dim(2), dtype=complex)
    dth = ctx.frame.dtheta_form()
    for jx, c in dth.coeffs.items():
        row = ctx.mons(2).index(jx)
        expected[row] = c * math.sqrt(ext.gram_weight(jx))
    assert np.allclose(image, expected, atol=1e-14)


@pytest.mark.parametrize("m", range(4))
def test_d_squares_to_zero(s3_contexts, m):
    ctx = s3_contexts[m]
    for k in range(2):
        assert max_abs(ctx.d_full(k + 1) @ ctx.d_full(k)) <= 1e-12


@pytest.mark.parametrize("m", range(3))
def test_d_decomposes_into_three_pieces(s3_contexts, m):
    ctx = s3_contexts[m]
    for k in range(3):
        total = ctx.d0_full(k) + ctx.db_full(k) + ctx.dT_full(k)
        assert max_abs(ctx.d_full(k) - total) <= 1e-13
        assert max_abs(ctx.db_direct_full(k) - ctx.db_full(k)) <= 1e-12


@pytest.mark.parametrize("m", range(3))
def test_homogeneous_square_identities(s3_contexts, m):
    ctx = s3_contexts[m]
    for k in range(2):
        d0u, d0d = ctx.d0_full(k + 1), ctx.d0_full(k)
        dbu, dbd = ctx.db_full(k + 1), ctx.db_full(k)
        dTu, dTd = ctx.dT_full(k + 1), ctx.dT_full(k)
        assert max_abs(d0u @ d0d) <= 1e-13
        assert max_abs(d0u @ dbd + dbu @ d0d) <= 1e-12
        assert max_abs(dbu @ dbd + d0u @ dTd + dTu @ d0d) <= 1e-12
        assert max_abs(dbu @ dTd + dTu @ dbd) <= 1e-12
        assert max_abs(dTu @ dTd) <= 1e-13


def test_deformed_differential_limits(s3_contexts):
    ctx = s3_contexts[1]
    for k in range(3):
        assert max_abs(ctx.dt_full(k, 1.0) - ctx.d_full(k)) == 0.0
        assert max_abs(ctx.dt_full(k, 0.0) - ctx.d0_full(k)) == 0.0
    for k in range(2):
        assert max_abs(ctx.dt_full(k + 1, 0.37) @ ctx.dt_full(k, 0.37)) <= 1e-12


def test_d0_kills_horizontal_and_reproduces_levi(s3_contexts):
    ctx = s3_contexts[1]
    ph = ctx._lift(ctx._fiber("horiz", 1))
    assert max_abs(ctx.d0_full(1) @ ph) == 0.0
    # d0(theta) = dtheta
    mons = ctx.mons(1)
    col = mons.index(ext.CoframeIndex(True, (), ()))
    d = ctx.block.slot_dim
    vec = np.zeros(ctx.full_dim(1), dtype=complex)
    vec[col * d] = 1.0
    out = ctx.d0_full(1) @ vec
    exp = np.zeros(ctx.full_dim(2), dtype=complex)
    for jx, c in ctx.frame.dtheta_form().coeffs.items():
        exp[ctx.mons(2).index(jx) * d] = c * math.sqrt(ext.gram_weight(jx))
    assert np.allclose(out, exp, atol=1e-14)


def test_dT_on_functions_is_theta_tensor_reeb(s3_contexts):
    ctx = s3_contexts[2]
    expected = ctx._lift(ctx._fiber("theta", 0)) @ np.kron(
        np.eye(1, dtype=complex), ctx.block.action("T")
    )
    assert max_abs(ctx.dT_full(0) - expected) == 0.0


# -- split halves ---------------------------------------------------------------------


def test_del_bidegree_structure(s3_contexts):
    ctx = s3_contexts[2]
    d = ctx.block.slot_dim
    del0 = ctx.del_full(0)
    # outputs of the (1,0) half on functions live only on eps-monomial rows
    for i, jx in enumerate(ctx.mons(1)):
        rows = del0[i * d : (i + 1) * d, :]
        if not (len(jx.holo), len(jx.anti), jx.theta) == (1, 0, False):
            assert max_abs(rows) == 0.0


def test_delbar_kills_extremal_vector(s3_contexts):
    # CR-holomorphic vectors: the top-weight vector of the irreducible slot
    ctx = s3_contexts[2]
    m = 2
    vec = np.zeros(ctx.full_dim(0), dtype=complex)
    vec[m] = 1.0  # top weight; every copy of the slot behaves alike
    out = ctx.del_full(0, anti=True) @ vec
    assert max_abs(out) <= 1e-14


def test_del_squares_to_zero_on_functions(s3_contexts):
    ctx = s3_contexts[1]
    assert max_abs(ctx.del_full(1) @ ctx.del_full(0)) <= 1e-13


def test_dels_sum_to_db_on_horizontal(s3_contexts):
    ctx = s3_contexts[2]
    for k in range(2):
        ph = ctx._lift(ctx._fiber("horiz", k))
        total = ctx.del_full(k) + ctx.del_full(k, anti=True)
        assert max_abs((ctx.db_full(k) - total) @ ph) <= 1e-13


def test_non_sasakian_frame_rejected_at_validation(s3):
    # on a 3-manifold every horizontal 2-form has bidegree (1,1), so a broken
    # complex structure surfaces as a failed Reeb-invariance check instead of
    # cross bidegree terms
    import dataclasses

    bad = s3.frame.brackets.copy()
    bad[0, 1, 2], bad[1, 0, 2] = -1.0, 1.0  # Reeb flow no longer rotates at speed 2
    frame = dataclasses.replace(s3.frame, brackets=bad)
    with pytest.raises(AssertionError, match="L_T J"):
        frame.validate()


# -- adjoints ----------------------------------------------------------------------


def test_adjoint_involution(s3_contexts):
    ctx = s3_contexts[1]
    op = ctx.op("d", 1)
    assert max_abs(op.adjoint().adjoint().matrix - op.matrix) == 0.0


def test_reeb_derivative_is_skew(s3_contexts):
    ctx = s3_contexts[2]
    for k in range(4):
        lt = ctx.lie_reeb_full(k)
        assert max_abs(lt + lt.conj().T) <= 1e-13


def test_theta_wedge_adjoint_is_interior(s3_contexts):
    # Gram pairing of basis monomials: wedging with theta and contracting with
    # the Reeb field are adjoint in orthonormal coordinates
    ctx = s3_contexts[1]
    for k in range(3):
        th = ctx._fiber("theta", k)
        io = ctx._fiber("iota", k + 1)
        assert max_abs(th.conj().T - io) <= 1e-14


def test_kahler_identity_on_degree_one(s3_contexts):
    # del* = i [trace, delbar] acting on horizontal 1-forms
    ctx = s3_contexts[2]
    dl0 = ctx.del_full(0)
    dlb1 = ctx.del_full(1, anti=True)
    lam2 = ctx._lift(ctx._fiber("lam", 2))
    ph1 = ctx._lift(ctx._fiber("horiz", 1))
    lhs = dl0.conj().T @ ph1
    rhs = 1j * (lam2 @ dlb1) @ ph1  # the second commutator term vanishes on 1-forms
    assert max_abs(lhs - rhs) <= 1e-13


# -- middle operator ------------------------------------------------------------------


@pytest.mark.parametrize("m", range(4))
def test_middle_operator_two_assemblies_agree(s3_contexts, m):
    ctx = s3_contexts[m]
    a = ctx.middle_operator("factored").matrix
    b = ctx.middle_operator("kahler").matrix
    assert max_abs(a - b) <= 1e-12


def test_middle_operator_closes_complex(s3_contexts):
    for m in range(3):
        ctx = s3_contexts[m]
        assert max_abs((ctx.rumin_d(1) @ ctx.rumin_d(0)).matrix) <= 1e-12
        assert max_abs((ctx.rumin_d(2) @ ctx.rumin_d(1)).matrix) <= 1e-12


def test_middle_operator_adjoint_involution(s3_contexts):
    ctx = s3_contexts[1]
    dmid = ctx.middle_operator()
    assert max_abs(dmid.adjoint().adjoint().matrix - dmid.matrix) == 0.0


# -- Rumin complex -------------------------------------------------------------------


def test_rescale_coefficients():
    assert [rescale_coefficient(1, k) for k in range(4)] == [1.0, 1.0, 1.0, 1.0 / math.sqrt(2)]
    assert rescale_coefficient(2, 0) == pytest.approx(1.0 / math.sqrt(2))
    assert rescale_coefficient(2, 2) == 1.0
    assert rescale_coefficient(2, 4) == pytest.approx(1.0 / math.sqrt(2))


def test_degree_zero_rumin_differential_is_db(s3_contexts):
    ctx = s3_contexts[2]
    direct = ctx.compress(ctx.db_full(0), ctx.rumin_space(0), ctx.rumin_space(1)).matrix
    assert max_abs(ctx.rumin_d(0).matrix - direct) <= 1e-14


@pytest.mark.parametrize("m", range(4))
def test_rescaled_complex_property(s3_contexts, m):
    ctx = s3_contexts[m]
    for k in range(3):
        up = ctx.rumin_d(k + 1).matrix if k + 1 < 3 else ctx.rumin_d(k + 1).matrix
        assert max_abs(up @ ctx.rumin_d(k).matrix) <= 1e-12


def test_rumin_spaces_have_expected_dims(s3_contexts):
    ctx = s3_contexts[2]
    d = ctx.block.dim
    r = ctx.block.multiplicity
    assert [r * ctx.rumin_space(k).dim for k in range(4)] == [d, 2 * d, 2 * d, d]


def test_full_d_preserves_upper_rumin_spaces(s3_contexts):
    # in degrees past the middle, d maps the Rumin space into the next one
    ctx = s3_contexts[2]
    sp2, sp3 = ctx.rumin_space(2), ctx.rumin_space(3)
    image = ctx.d_full(2) @ sp2.embed
    resid = image - sp3.embed @ (sp3.embed.conj().T @ image)
    assert max_abs(resid) <= 1e-13


# -- Laplacians ------------------------------------------------------------------------


def test_laplacian_rn_on_constants_vanishes(s3_contexts):
    ctx = s3_contexts[0]
    assert max_abs(ctx.laplacian_rn(0).matrix) <= 1e-14


def test_laplacians_hermitian_psd(s3_contexts):
    ctx = s3_contexts[2]
    for k in range(4):
        for op in (ctx.laplacian_rn(k), ctx.laplacian_de_rham(k), ctx.laplacian_t(k, 0.37)):
            m = op.matrix
            assert max_abs(m - m.conj().T) <= 1e-11
            w = np.linalg.eigvalsh(hermitize(m))
            assert w.min() > -1e-10


def test_horizontal_laplacian_on_functions_two_routes(s3_contexts):
    # assembled through forms vs the direct field-square -(X^2 + Y^2)
    ctx = s3_contexts[1]
    ax, ay = ctx.block.action("X"), ctx.block.action("Y")
    oracle = -(ax @ ax + ay @ ay)
    assert max_abs(ctx.laplacian_b(0).matrix - oracle) <= 1e-13


def test_de_rham_laplacian_on_functions_two_routes(s3_contexts):
    ctx = s3_contexts[2]
    ax, ay, at = (ctx.block.action(nm) for nm in ("X", "Y", "T"))
    oracle = -(ax @ ax + ay @ ay + at @ at)
    assert max_abs(ctx.laplacian_de_rham(0).matrix - oracle) <= 1e-12


def test_sqrt_laplacian_spectral_calculus(s3_contexts):
    ctx = s3_contexts[2]
    lap = ctx.laplacian_rn(1).matrix
    root = sqrtm_psd(lap)
    assert max_abs(root @ root - lap) <= 1e-10
    assert max_abs(root @ lap - lap @ root) <= 1e-10
    lt = ctx.lie_reeb_rumin(1).matrix
    assert max_abs(root @ lt - lt @ root) <= 1e-10


def test_box_operators_identities(s3_contexts):
    ctx = s3_contexts[2]
    for k in (0, 1):
        box, boxbar = ctx.box_operators(k)
        root = sqrtm_psd(ctx.laplacian_rn(k).matrix)
        ilt = 1j * ctx.lie_reeb_rumin(k).matrix
        assert max_abs(box.matrix + boxbar.matrix - root) <= 1e-11
        assert max_abs(box.matrix - boxbar.matrix - ilt) <= 1e-11
        assert max_abs(box.matrix @ boxbar.matrix - boxbar.matrix @ box.matrix) <= 1e-10
        for m in (box.matrix, boxbar.matrix):
            assert np.linalg.eigvalsh(hermitize(m, 1e-9)).min() > -1e-10


def test_reeb_derivative_commutes_with_everything(s3_contexts):
    ctx = s3_contexts[2]
    for k in range(3):
        lt_lo, lt_hi = ctx.lie_reeb_full(k), ctx.lie_reeb_full(k + 1)
        for mat in (ctx.d_full(k), ctx.db_full(k), ctx.d0_full(k), ctx.dT_full(k)):
            assert max_abs(lt_hi @ mat - mat @ lt_lo) <= 1e-12
    for k in range(4):
        lt = ctx.lie_reeb_full(k)
        lap = ctx.laplacian_de_rham(k).matrix
        assert max_abs(lt @ lap - lap @ lt) <= 1e-10


def test_boundary_degree_laplacians(s3_contexts):
    ctx = s3_contexts[1]
    d0 = ctx.rumin_d(0).matrix
    expected0 = np.linalg.matrix_power(d0.conj().T @ d0, 2)
    assert max_abs(ctx.laplacian_rn(0).matrix - expected0) <= 1e-12
    d2 = ctx.rumin_d(2).matrix
    expected3 = np.linalg.matrix_power(d2 @ d2.conj().T, 2)
    assert max_abs(ctx.laplacian_rn(3).matrix - expected3) <= 1e-12


# -- errors and export ----------------------------------------------------------------


def test_composition_space_mismatch_raises(s3_contexts):
    ctx = s3_contexts[1]
    with pytest.raises(InternalConsistencyError):
        _ = ctx.op("d", 0) @ ctx.op("d", 0)


def test_sqrtm_rejects_indefinite():
    with pytest.raises(InternalConsistencyError):
        sqrtm_psd(np.diag([1.0, -1.0]))


def test_hermitize_rejects_asymmetric():
    with pytest.raises(InternalConsistencyError):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]), tol=1e-12)


def test_non_three_sphere_frame_rejected():
    import dataclasses

    from ruminlab.model import su2_frame

    frame = dataclasses.replace(su2_frame(), n=2, brackets=np.zeros((5, 5, 5)), j_matrix=np.eye(4))
    with pytest.raises(StructuralError):
        BlockContext(frame, su2_block(0))


def test_operator_json_export(s3_contexts):
    ctx = s3_contexts[1]
    op = ctx.rumin_d(0)
    doc = json.loads(op.to_json())
    assert doc["schema"] == 1 and doc["kind"] == "operator"
    rows, cols = doc["shape"]
    flat = np.array([complex(re, im) for re, im in doc["matrix"]])
    assert np.allclose(flat.reshape(rows, cols), op.matrix)
    assert doc["source"]["degree"] == 0 and doc["target"]["degree"] == 1


def test_block_operator_shape_guard(s3_contexts):
    ctx = s3_contexts[1]
    sp0, sp1 = ctx.space(0), ctx.space(1)
    with pytest.raises(InternalConsistencyError):
        BlockOperator(sp0, sp1, np.zeros((2, 2)))


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
def test_deformed_differential_squares_to_zero_for_any_t(s3_contexts, t):
    ctx = s3_contexts[1]
    for k in range(2):
        assert max_abs(ctx.dt_full(k + 1, t) @ ctx.dt_full(k, t)) <= 1e-11 * max(1.0, t**4)
