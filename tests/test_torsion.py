"""Zeta partial sums and the Reeb decomposition of the torsion function."""

import copy
import csv
import io
import json
import math

import numpy as np
import pytest

from ruminlab.model import allowed_weight_slots, lens_space, su2_block, su2_model
from ruminlab.operators import BlockContext, BlockOperator
from ruminlab.spectral import Assembly
from ruminlab.torsion import (
    ESTIMATE_CAVEAT,
    PAIR_TOL,
    ReebSlice,
    TorsionReport,
    _cluster_multiset,
    add_reeb_block,
    boxes_commute_tolerance,
    close_reeb_report,
    open_reeb_report,
    kappa_weights,
    reeb_decomposition,
    torsion_estimate,
)


# -- zeta partial sums -------------------------------------------------------------


def _degree_zero_zeta(entries, s):
    """The degree-0 zeta partial sum of a report whose slices are the positive (Delta, mult) `entries`."""
    report = TorsionReport(
        model={}, max_weight=0, s_grid=[s], weights=kappa_weights(1), cutoff=0.0, cohomology_dims=[0, 0]
    )
    report.slices = [ReebSlice("m0", 0, delta, 0.0, mult, "bi_positive") for delta, mult in entries]
    close_reeb_report(report)
    return report.zetas[(0, s)]


def test_zeta_partial_single_term():
    assert _degree_zero_zeta([(4.0, 1)], 2.0) == pytest.approx(0.0625)


def test_zeta_partial_small_multiset():
    assert _degree_zero_zeta([(1.0, 2), (4.0, 1)], 2.0) == pytest.approx(2.0625)


def test_zeta_partial_empty_is_zero():
    assert _degree_zero_zeta([], 3.0) == 0.0


def test_zeta_partial_cauchy_in_cutoff(s3):
    values = [reeb_decomposition(Assembly(s3, mw), s_grid=(3.0,)).zetas[(0, 3.0)] for mw in (2, 4, 6)]
    assert values[0] < values[1] < values[2]
    assert values[2] - values[1] < values[1] - values[0]


def test_kappa_weights():
    assert kappa_weights(1) == [-2, 1]
    assert kappa_weights(2) == [-3, 2, -1]


def test_kappa_on_empty_truncation_is_zero():
    # the twisted quotient has no weight-0 block, so nothing survives the cutoff
    asm = Assembly(lens_space(2, character=1), 0)
    assert asm.contexts == []
    report = reeb_decomposition(asm)
    assert report.kappa_from_spectrum[2.0] == 0.0
    assert set(report.zetas.values()) == {0.0}


def test_kappa_requires_safe_exponent(s3_asm_small):
    with pytest.raises(ValueError):
        reeb_decomposition(s3_asm_small, s_grid=(1.5,))


def test_kappa_partial_decreases_with_cutoff(s3):
    # every added block contributes a negative increment on these models
    vals = [reeb_decomposition(Assembly(s3, mw), s_grid=(2.0,)).kappa_from_spectrum[2.0] for mw in (1, 2, 3)]
    assert vals[0] > vals[1] > vals[2]


# -- Reeb decomposition ------------------------------------------------------------


@pytest.fixture(scope="module")
def s3_reeb(s3_asm_small):
    return reeb_decomposition(s3_asm_small)


def test_reeb_checks_pass(s3_reeb):
    assert s3_reeb.passed, s3_reeb.checks.failures()[:4]
    assert s3_reeb.weighted_match


def test_reeb_kernel_dims(s3_reeb):
    assert s3_reeb.kernel_dims == [1, 0]
    assert s3_reeb.cohomology_dims == [1, 0]


def test_weight_one_block_splits_two_by_two(s3_reeb):
    slices = [s for s in s3_reeb.slices if s.block == "m1" and s.degree == 0]
    pieces = sorted((s.piece, s.mult, round(s.delta, 9), round(s.nu, 9)) for s in slices)
    assert pieces == [("reeb_minus", 2, 1.0, -1.0), ("reeb_plus", 2, 1.0, 1.0)]


def test_harmonic_slices_only_in_weight_zero(s3_reeb):
    for s in s3_reeb.slices:
        if s.piece == "harmonic":
            assert s.block == "m0" and s.degree == 0


def test_per_degree_outcomes_document_bi_positive_blocks(s3_reeb):
    # the literal per-degree comparison holds exactly up to weight 1 and fails
    # from weight 2 on, where the bi-positive component is nonempty
    outcomes = s3_reeb.per_degree_outcomes
    assert outcomes[("m0", 0)] and outcomes[("m1", 0)] and outcomes[("m1", 1)]
    assert not outcomes[("m2", 0)]
    assert not outcomes[("m2", 1)]
    assert not s3_reeb.per_degree_match
    # yet the weighted identity and both kappa routes agree exactly
    assert s3_reeb.weighted_match
    for s, lhs in s3_reeb.kappa_from_spectrum.items():
        assert lhs == pytest.approx(s3_reeb.kappa_from_reeb[s], abs=1e-9)


def test_bi_positive_multiplicity_doubles_in_middle_degree(s3_reeb):
    # the telescoping mechanism: q copies at degree 0 vs 2q in the middle
    lows = {}
    mids = {}
    for s in s3_reeb.slices:
        if s.block != "m2" or s.piece != "bi_positive":
            continue
        target = lows if s.degree == 0 else mids
        target[round(s.delta, 6)] = target.get(round(s.delta, 6), 0) + s.mult
    assert lows == {16.0: 3}
    assert mids == {16.0: 6}


def test_reeb_decomposition_twisted_lens():
    asm = Assembly(lens_space(2, character=1), 4)
    rep = reeb_decomposition(asm)
    assert rep.passed
    assert rep.kernel_dims == [0, 0]
    assert rep.cohomology_dims == [0, 0]


def test_reeb_decomposition_untwisted_lens():
    rep = reeb_decomposition(Assembly(lens_space(3, character=0), 3))
    assert rep.passed
    assert rep.kernel_dims == [1, 0]


def test_one_sided_pieces_square_the_reeb_eigenvalue(s3_reeb):
    for s in s3_reeb.slices:
        if s.piece in ("reeb_plus", "reeb_minus"):
            assert s.delta == pytest.approx(s.nu**2, abs=1e-9 * max(1.0, s.delta))


def test_rejects_unsafe_grid(s3_asm_small):
    with pytest.raises(ValueError):
        reeb_decomposition(s3_asm_small, s_grid=(1.0,))


# -- reports ----------------------------------------------------------------------------


def test_torsion_report_json(s3_reeb):
    doc = json.loads(s3_reeb.to_json())
    assert doc["schema"] == 1 and doc["kind"] == "torsion"
    assert doc["weights"] == [-2, 1]
    assert doc["per_degree_match"] is False
    assert doc["weighted_match"] is True
    assert doc["passed"] is True
    assert s3_reeb.to_json() == s3_reeb.to_json()


def test_pairs_csv_schema(s3_reeb):
    rows = list(csv.reader(io.StringIO(s3_reeb.pairs_csv())))
    assert rows[0] == ["block", "degree", "lambda", "piece", "nu", "multiplicity"]
    assert len(rows) > 4
    pieces = {r[3] for r in rows[1:]}
    assert pieces <= {"harmonic", "reeb_plus", "reeb_minus", "bi_positive"}


def test_torsion_estimate_flags_partiality(s3_asm_small):
    rep = torsion_estimate(s3_asm_small, s_grid=(2.0, 3.0))
    assert rep.estimate_only
    assert rep.caveat == ESTIMATE_CAVEAT
    assert set(rep.kappa_from_spectrum) == {2.0, 3.0}
    for v in rep.kappa_from_spectrum.values():
        assert np.isfinite(v)


def _closed_form_kappa(model, max_weight, s):
    """kappa_M(s) = sum_{m=1..M} r(m) (-2 m^(-2s)) + sum_{m=0..M} 2 r(m) (m+2)^(-2s), r(m) the
    number of allowed weight slots, and the sum of the absolute values of its terms.

    The one-sided Reeb values are +-m in degree 0 and +-m, +-(m+2) in degree 1, the
    degree weights are (-2, 1), and the bi-positive parts cancel.
    """
    terms = []
    for m in range(max_weight + 1):
        r = len(allowed_weight_slots(m, model.p, model.character))
        if m >= 1:
            terms.append(-2 * r * m ** (-2 * s))
        terms.append(2 * r * (m + 2) ** (-2 * s))
    return math.fsum(terms), sum(abs(t) for t in terms)


def test_kappa_consistent_with_direct_sum():
    """The torsion partial sums equal the closed form to 1e-12 of the sum of |terms|;
    a 1e-8 relative shift of the smallest positive eigenvalue does not."""
    models = [su2_model()] + [lens_space(p, character=l) for p in range(2, 6) for l in range(p)]
    for model in models:
        for max_weight in (0, 3, 12, 20):
            report = _reeb_slices(model, max_weight)
            shifted = copy.deepcopy(report)
            positive = [sl for sl in shifted.slices if sl.piece != "harmonic"]
            if positive:
                min(positive, key=lambda sl: sl.delta).delta *= 1 + 1e-8
            close_reeb_report(report)
            close_reeb_report(shifted)
            assert report.s_grid == [2.0, 3.0, 4.0]
            for s in report.s_grid:
                closed, scale = _closed_form_kappa(model, max_weight, s)
                case = (model.p, model.character, max_weight, s)
                assert abs(report.kappa_from_spectrum[s] - closed) <= 1e-12 * scale, case
                if positive:
                    assert abs(shifted.kappa_from_spectrum[s] - closed) > 1e-12 * scale, case


def test_cutoff_reported(s3_reeb):
    # the smallest eigenvalue of the first omitted block bounds exactness
    assert s3_reeb.cutoff == pytest.approx(16.0, abs=1e-6)


def test_cluster_multiset_bound_is_absolute_up_to_1e4():
    """Values merge within max(PAIR_TOL, 1e-13 |value|): PAIR_TOL up to |value| = 1e4, relative above."""
    assert len(_cluster_multiset([(1e4, 1), (1e4 + 2 * PAIR_TOL, 1)], PAIR_TOL)) == 2
    assert _cluster_multiset([(1e4, 1), (1e4 + 0.5 * PAIR_TOL, 1)], PAIR_TOL) == [(1e4, 2)]
    assert _cluster_multiset([(1e6, 1), (1e6 + 5e-8, 1)], PAIR_TOL) == [(1e6, 2)]
    assert len(_cluster_multiset([(1e6, 1), (1e6 * (1 + 1e-12), 1)], PAIR_TOL)) == 2


def _reeb_slices(model, max_weight):
    report = open_reeb_report(Assembly(model, max_weight))
    for ctx in Assembly(model, max_weight).visit():
        add_reeb_block(ctx, report)
    return report


def test_weighted_identity_holds_at_weight_50_and_catches_a_relative_shift():
    """At M=50 rounding alone no longer splits equal eigenvalues; a 1e-8 relative shift of one still fails."""
    report = _reeb_slices(su2_model(), 50)
    shifted = copy.deepcopy(report)
    max(shifted.slices, key=lambda sl: sl.delta).delta *= 1 + 1e-8
    close_reeb_report(report)
    close_reeb_report(shifted)
    assert report.passed and report.weighted_match
    assert not shifted.weighted_match
    [check] = [c for c in shifted.checks.failures() if c.name == "weighted_multiset_identity"]
    assert check.residual >= 1


def _boxes_commute_check(ctx, spoil=None):
    """The degree-1 `boxes_commute` check of one block, with `spoil` applied to the computed box first."""
    report = open_reeb_report(Assembly(su2_model(), 0))
    if spoil is not None:
        original = ctx.box_operators

        def box_operators(k):
            box, boxbar = original(k)
            return (spoil(box) if k == 1 else box), boxbar

        ctx.box_operators = box_operators
    add_reeb_block(ctx, report)
    [check] = [c for c in report.checks.checks if c.name == f"boxes_commute[{ctx.block.label}]k=1"]
    return check


def test_boxes_commute_bound_is_1e9_through_weight_12():
    """The rounding-scaled bound stays the fixed 1e-9 on every block that weight <= 12 reports."""
    for ctx in Assembly(su2_model(), 12).visit():
        for k in range(2):
            box, boxbar = ctx.box_operators(k)
            assert boxes_commute_tolerance(box.matrix, boxbar.matrix) == 1e-9


def test_boxes_commute_passes_from_rounding_at_weight_65_and_catches_a_relative_change():
    """Weight 65 rounds the commutator above the old fixed 1e-9, and the check passes; a change of
    one entry pair by 1e-9 of the largest entry fails.  The entries couple basis vectors of two Reeb
    sectors: box and boxbar are diagonal in degree 1, so a change inside a sector commutes."""
    ctx = BlockContext(su2_model().frame, su2_block(65))
    check = _boxes_commute_check(ctx)
    assert check.residual > 1e-9 and check.passed

    def spoil(box):
        mat = box.matrix.copy()
        diag = np.real(np.diag(mat))
        i = int(np.argmax(np.abs(diag)))
        j = int(np.argmax(np.abs(diag - diag[i])))
        mat[i, j] += 1e-9 * abs(diag[i])
        mat[j, i] += 1e-9 * abs(diag[i])
        return BlockOperator(box.source, box.target, mat)

    spoiled = _boxes_commute_check(BlockContext(su2_model().frame, su2_block(65)), spoil)
    assert not spoiled.passed
    assert spoiled.tolerance == check.tolerance
