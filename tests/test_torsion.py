"""Zeta partial sums and the Reeb decomposition of the torsion function."""

import copy
import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from dense_reference import dense_reeb_decomposition
from ruminlab import spectral, torsion
from ruminlab.model import allowed_weight_slots, lens_space, su2_model
from ruminlab.rows import spectrum_columns
from ruminlab.sectors import SectorStacks
from ruminlab.spectral import Assembly
from ruminlab.torsion import (
    PAIR_TOL,
    PIECES,
    TorsionReport,
    _cluster_multiset,
    close_reeb_report,
    kappa_weights,
    reeb_decomposition,
    slice_columns,
)

MODELS = [su2_model()] + [lens_space(p, character=l) for p in range(2, 6) for l in range(p)]
MODEL_IDS = ["s3"] + [f"lens{p}-{l}" for p in range(2, 6) for l in range(p)]


# -- zeta partial sums -------------------------------------------------------------


def _degree_zero_zeta(entries, s):
    """The degree-0 zeta partial sum of a report whose slices are the positive (Delta, mult) `entries`."""
    report = TorsionReport(
        model={}, max_weight=0, s_grid=[s], weights=kappa_weights(1), cutoff=0.0, cohomology_dims=[0, 0]
    )
    size = len(entries)
    delta, mult = zip(*entries) if entries else ((), ())
    piece = [PIECES.index("bi_positive")] * size
    report.columns = slice_columns(["m0"] * size, [0] * size, delta, [0.0] * size, mult, piece)
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


def _failed_names(checks):
    """The names of the failed checks of a `VerificationReport`, in name order."""
    return [checks.names[i] for i in checks.failed()]


def _is_piece(columns, *pieces):
    """Where the slices lie in one of `pieces`."""
    return np.isin(columns["piece"], [PIECES.index(p) for p in pieces])


def test_reeb_checks_pass(s3_reeb):
    assert s3_reeb.passed, _failed_names(s3_reeb.checks)[:4]
    assert s3_reeb.weighted_match


def test_reeb_kernel_dims(s3_reeb):
    assert s3_reeb.kernel_dims == [1, 0]
    assert s3_reeb.cohomology_dims == [1, 0]


def test_weight_one_block_splits_two_by_two(s3_reeb):
    c = s3_reeb.columns
    at = (c["block"] == "m1") & (c["degree"] == 0)
    piece, mult = [PIECES[p] for p in c["piece"][at].tolist()], c["mult"][at].tolist()
    delta, nu = ([round(x, 9) for x in c[name][at].tolist()] for name in ("delta", "nu"))
    pieces = sorted(zip(piece, mult, delta, nu))
    assert pieces == [("reeb_minus", 2, 1.0, -1.0), ("reeb_plus", 2, 1.0, 1.0)]


def test_harmonic_slices_only_in_weight_zero(s3_reeb):
    c = s3_reeb.columns
    harmonic = _is_piece(c, "harmonic")
    assert set(zip(c["block"][harmonic].tolist(), c["degree"][harmonic].tolist())) <= {("m0", 0)}


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
    c = s3_reeb.columns
    at = (c["block"] == "m2") & _is_piece(c, "bi_positive")
    for degree, delta, mult in zip(*(c[name][at].tolist() for name in ("degree", "delta", "mult"))):
        target = lows if degree == 0 else mids
        target[round(delta, 6)] = target.get(round(delta, 6), 0) + mult
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
    c = s3_reeb.columns
    one_sided = _is_piece(c, "reeb_plus", "reeb_minus")
    for delta, nu in zip(c["delta"][one_sided].tolist(), c["nu"][one_sided].tolist()):
        assert delta == pytest.approx(nu**2, abs=1e-9 * max(1.0, delta))


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
    for model in MODELS:
        for max_weight in (0, 3, 12, 20):
            report = _reopened(reeb_decomposition(Assembly(model, max_weight)))
            shifted = copy.deepcopy(report)
            delta = shifted.columns["delta"]
            positive = np.flatnonzero(~_is_piece(shifted.columns, "harmonic"))
            if positive.size:
                delta[positive[np.argmin(delta[positive])]] *= 1 + 1e-8
            close_reeb_report(report)
            close_reeb_report(shifted)
            assert report.s_grid == [2.0, 3.0, 4.0]
            for s in report.s_grid:
                closed, scale = _closed_form_kappa(model, max_weight, s)
                case = (model.p, model.character, max_weight, s)
                assert abs(report.kappa_from_spectrum[s] - closed) <= 1e-12 * scale, case
                if positive.size:
                    assert abs(shifted.kappa_from_spectrum[s] - closed) > 1e-12 * scale, case


def test_cutoff_reported(s3_reeb):
    # the smallest eigenvalue of the first omitted block bounds exactness
    assert s3_reeb.cutoff == pytest.approx(16.0, abs=1e-6)


def test_cluster_multiset_bound_is_absolute_up_to_1e4():
    """Values merge within max(PAIR_TOL, 1e-13 |value|): PAIR_TOL up to |value| = 1e4, relative above."""
    assert len(_cluster_multiset([(1e4, 1), (1e4 + 2 * PAIR_TOL, 1)])) == 2
    assert _cluster_multiset([(1e4, 1), (1e4 + 0.5 * PAIR_TOL, 1)]) == [(1e4, 2)]
    assert _cluster_multiset([(1e6, 1), (1e6 + 5e-8, 1)]) == [(1e6, 2)]
    assert len(_cluster_multiset([(1e6, 1), (1e6 * (1 + 1e-12), 1)])) == 2


def _reopened(done):
    """The slices and rank-oracle dims of a `reeb_decomposition` report, in a report that is not closed yet."""
    report = TorsionReport(
        done.model, done.max_weight, done.s_grid, done.weights, done.cutoff, cohomology_dims=done.cohomology_dims
    )
    report.columns = {name: values.copy() for name, values in done.columns.items()}
    return report


def test_weighted_identity_holds_at_weight_50_and_catches_a_relative_shift():
    """At M=50 rounding alone no longer splits equal eigenvalues; a 1e-8 relative shift of one still fails."""
    done = reeb_decomposition(Assembly(su2_model(), 50))
    assert done.passed, _failed_names(done.checks)[:4]
    report = _reopened(done)
    shifted = copy.deepcopy(report)
    delta = shifted.columns["delta"]
    delta[np.argmax(delta)] *= 1 + 1e-8
    close_reeb_report(report)
    close_reeb_report(shifted)
    assert report.passed and report.weighted_match
    assert not shifted.weighted_match
    checks = shifted.checks
    [i] = [i for i in checks.failed() if checks.names[i] == "weighted_multiset_identity"]
    assert checks.residuals[i] >= 1


# -- the sector route against the dense route -------------------------------------------


@pytest.mark.parametrize("max_weight", [0, 3, 12])
@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_sector_reeb_decomposition_equals_the_dense_route(model, max_weight):
    """Pieces, multiplicities, per-degree outcomes and dims equal those of the dense blocks exactly;
    Delta, nu, the zetas and kappa agree within 1e-13 relative.  The slices are the `delta-rn`
    spectrum entries of degrees <= n, bit for bit."""
    sector = reeb_decomposition(Assembly(model, max_weight))
    dense = dense_reeb_decomposition(Assembly(model, max_weight))
    assert sector.passed, _failed_names(sector.checks)[:4]
    for name in ("per_degree_outcomes", "kernel_dims", "cohomology_dims", "weighted_match"):
        assert getattr(sector, name) == getattr(dense, name), name

    def close(a, b):
        return abs(a - b) <= 1e-13 * max(1.0, abs(b))

    # both list each (block, degree) in component order: by Delta cluster, then by tau
    by_block = lambda c: {name: c[name][np.lexsort((c["degree"], c["block"]))] for name in c}
    got, want = by_block(sector.columns), by_block(dense.columns)
    assert got["block"].size == want["block"].size
    for name in ("block", "degree", "piece", "mult"):
        assert np.array_equal(got[name], want[name]), name
    for name in ("delta", "nu"):
        assert all(map(close, got[name].tolist(), want[name].tolist())), name
    assert sector.zetas.keys() == dense.zetas.keys()
    assert all(close(sector.zetas[key], dense.zetas[key]) for key in dense.zetas)
    for s in dense.s_grid:
        assert close(sector.kappa_from_spectrum[s], dense.kappa_from_spectrum[s])
        assert close(sector.kappa_from_reeb[s], dense.kappa_from_reeb[s])

    columns = spectrum_columns(Assembly(model, max_weight), "delta-rn", list(range(model.frame.n + 1)), 1.0)
    table = sorted(zip(*(columns[name].tolist() for name in ("block", "degree", "eigenvalue", "nu", "multiplicity"))))
    c = sector.columns
    assert table == sorted(zip(*(c[name].tolist() for name in ("block", "degree", "delta", "nu", "mult"))))


# -- the sector-form checks catch a spoiled input ------------------------------------------


def _check(report, name):
    """The residual and tolerance of the one check `name` of a torsion report."""
    checks = report.checks
    [i] = [i for i, n in enumerate(checks.names) if n == name]
    return checks.residuals[i], checks.tolerances[i]


def _passes(report, name) -> bool:
    residual, tolerance = _check(report, name)
    return residual <= tolerance


def test_boxes_sum_to_root_catches_a_relative_change_of_one_half_laplacian_entry(monkeypatch):
    """A 1e-9 relative change of the largest Delta_del sector entry of weight 12 fails the sum."""
    name = "boxes_sum_to_root[m12]k=0"
    assert _passes(reeb_decomposition(Assembly(su2_model(), 12)), name)
    original = SectorStacks.half_laplacians

    def spoiled(stacks, k):
        a, b, scale = original(stacks, k)
        a = a.copy()
        last = slice(stacks.starts[-2], stacks.starts[-1])  # the sectors of weight 12
        s = stacks.starts[-2] + int(np.argmax(np.abs(a[0, 0, last])))
        a[0, 0, s] *= 1 + 1e-9
        return a, b, scale

    monkeypatch.setattr(SectorStacks, "half_laplacians", spoiled)
    residual, tolerance = _check(reeb_decomposition(Assembly(su2_model(), 12)), name)
    assert residual > tolerance and residual > 1e-10


def test_boxes_differ_by_reeb_catches_a_shifted_tau(monkeypatch):
    """A Reeb value shifted by 1e-9 on one degree-0 sector of weight 12 fails the difference."""
    name = "boxes_differ_by_reeb[m12]k=0"
    assert _passes(reeb_decomposition(Assembly(su2_model(), 12)), name)
    original = SectorStacks.spectrum_rows

    def spoiled(stacks, op, k, t=1.0):
        rows = original(stacks, op, k, t)
        if k == 0:
            tau = rows.tau.copy()
            last = (rows.owner == rows.dims.size - 1) & rows.valid.any(axis=0)
            tau[np.flatnonzero(last)[0]] += 1e-9  # a sector of the last weight
            rows = dataclasses.replace(rows, tau=tau)
        return rows

    monkeypatch.setattr(SectorStacks, "spectrum_rows", spoiled)
    assert not _passes(reeb_decomposition(Assembly(su2_model(), 12)), name)


def test_boxes_psd_catches_delta_below_nu_squared(monkeypatch):
    """Delta pushed 1e-8 relative below nu^2 on one middle-degree one-sided component fails."""
    name = "boxes_psd[m12]k=1"
    assert _passes(reeb_decomposition(Assembly(su2_model(), 12)), name)
    original = torsion._add_reeb_slices

    def spoiled(report, labels, multiplicity, k, joint, halves):
        if k == 1:
            delta, tau, row = joint.delta.copy(), joint.tau, labels.index("m12")
            i = next(
                i for i in range(*joint.row_components(row)) if delta[i] > 1 and abs(delta[i] - tau[i] ** 2) <= 1e-9 * delta[i]
            )
            delta[i] = tau[i] ** 2 * (1 - 1e-8)
            joint = dataclasses.replace(joint, delta=delta)
        original(report, labels, multiplicity, k, joint, halves)

    monkeypatch.setattr(torsion, "_add_reeb_slices", spoiled)
    residual, tolerance = _check(reeb_decomposition(Assembly(su2_model(), 12)), name)
    assert residual > tolerance and residual > 1e-9


def test_rank_oracle_catches_a_singular_value_under_the_threshold(monkeypatch):
    """One sector singular value of each differential pushed to zero raises dim H^k, which the
    kernel dimensions of `torsion` and of thm1 no longer match."""
    asm = Assembly(su2_model(), 3)
    assert reeb_decomposition(asm).passed and spectral.verify_kernel_coincidence(asm).passed
    svd = np.linalg.svd

    def spoiled(a, *args, **kwargs):
        values = svd(a, *args, **kwargs)
        if np.ndim(a) == 3:  # the sector stacks, one singular-value row per sector
            values = values.copy()
            positive = np.argwhere(values > 1e-6)
            i, j = positive[np.argmin(values[tuple(positive.T)])]
            values[i, j] = 0.0
        return values

    monkeypatch.setattr(np.linalg, "svd", spoiled)
    failed = set(_failed_names(reeb_decomposition(Assembly(su2_model(), 3)).checks))
    assert {"kernel_dim_is_cohomology_k=0", "kernel_dim_is_cohomology_k=1"} <= failed
    failed = set(_failed_names(spectral.verify_kernel_coincidence(Assembly(su2_model(), 3))))
    assert {"rank_oracle_rumin_k=0", "rank_oracle_de_rham_k=0"} <= failed
