"""Eigenanalysis, simultaneous decomposition, and the theorem suites."""

import json
from fractions import Fraction

import numpy as np
import pytest

from ruminlab.model import lens_space
from ruminlab.operators import InternalConsistencyError, hermitize, max_abs
from ruminlab.spectral import (
    Assembly,
    SpectrumEntry,
    SpectrumTable,
    VerificationReport,
    _sequential_joint_eigenspaces,
    block_spectrum,
    de_rham_cohomology_dims,
    joint_kernel,
    kernel,
    principal_sines,
    q_decomposition,
    rumin_cohomology_dims,
    verify_complex_property,
    verify_eigenvalue_identity,
    verify_deformation_family,
    verify_hodge_block_matrix,
    verify_kernel_coincidence,
    verify_middle_degree,
    verify_primitivity,
    verify_sasakian_identities,
    verify_star_symmetry,
)


# -- closed-form oracles from the ladder recurrences ------------------------------


def weight_labels(m):
    """(lambda10, lambda01) per representation weight, from the ladder algebra."""
    j = Fraction(m, 2)
    out = []
    for t in range(m + 1):
        mu = Fraction(-m, 2) + t
        l10 = float(j * (j + 1) - mu * (mu - 1))
        l01 = float(j * (j + 1) - mu * (mu + 1))
        out.append((l10, l01))
    return out


def expected_rumin_spectrum(m, degree):
    """Brute-force prediction of the degree-0/1 spectra of one sphere block."""
    mult = m + 1
    out = []
    if degree == 0:
        for l10, l01 in weight_labels(m):
            out += [(l10 + l01) ** 2] * mult
    elif degree == 1:
        for l10, l01 in weight_labels(m):
            if l10 > 0:
                out += [(l10 + l01) ** 2] * mult
            if l01 > 0:
                out += [(l10 + l01) ** 2] * mult
        out += [float((m + 2) ** 2)] * (2 * mult)
    return np.sort(np.array(out))


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("degree", (0, 1))
def test_rumin_spectra_match_ladder_oracle(s3_contexts, m, degree):
    ctx = s3_contexts[m]
    w = np.linalg.eigvalsh(hermitize(ctx.laplacian_rn(degree).matrix, 1e-9))
    w = np.repeat(w, ctx.block.multiplicity)
    expected = expected_rumin_spectrum(m, degree)
    assert w.shape == expected.shape
    assert np.max(np.abs(np.sort(w) - expected)) < 1e-9


# -- block_spectrum / kernel ----------------------------------------------------------


def test_block_spectrum_constants(s3_contexts):
    clusters = block_spectrum(s3_contexts[0].laplacian_rn(0))
    assert clusters == [(0.0, 1)]


def test_block_spectrum_de_rham_weight_one(s3_contexts):
    # closed form: all four eigenvalues equal 2
    clusters = block_spectrum(s3_contexts[1].laplacian_de_rham(0))
    assert len(clusters) == 1
    val, mult = clusters[0]
    assert mult * s3_contexts[1].block.multiplicity == 4 and val == pytest.approx(2.0, abs=1e-12)


def test_block_spectrum_rejects_non_hermitian(s3_contexts):
    ctx = s3_contexts[1]
    op = ctx.laplacian_rn(1)
    bad = op.matrix.copy()
    bad[0, 1] += 1.0
    from ruminlab.operators import BlockOperator

    with pytest.raises(InternalConsistencyError):
        block_spectrum(BlockOperator(op.source, op.target, bad))


def test_kernel_dims_sphere(s3):
    asm = Assembly(s3, 2)
    dims = [0, 0, 0, 0]
    for ctx in asm.contexts:
        for k in range(4):
            dims[k] += kernel(ctx.laplacian_rn(k)).dim
    assert dims == [1, 0, 0, 1]
    assert rumin_cohomology_dims(asm) == [1, 0, 0, 1]
    assert de_rham_cohomology_dims(asm) == [1, 0, 0, 1]


@pytest.mark.parametrize("p,l,expected", [(2, 0, [1, 0, 0, 1]), (2, 1, [0, 0, 0, 0]), (3, 1, [0, 0, 0, 0])])
def test_kernel_dims_lens(p, l, expected):
    asm = Assembly(lens_space(p, character=l), 4)
    assert rumin_cohomology_dims(asm) == expected


def test_kernel_vectors_are_orthonormal_and_flat(s3_contexts):
    ker = kernel(s3_contexts[0].laplacian_rn(0))
    assert ker.dim == 1
    v = ker.vectors
    assert np.allclose(v.conj().T @ v, np.eye(1))
    assert max_abs(s3_contexts[0].laplacian_rn(0).matrix @ v) <= ker.tolerance


# -- simultaneous decomposition -------------------------------------------------------


def test_q_decomposition_weight_one(s3_contexts):
    comps = q_decomposition(s3_contexts[1], 0)
    r = s3_contexts[1].block.multiplicity
    labels = sorted((c.lambda10, c.lambda01, r * c.dim) for c in comps)
    assert labels == [(0.0, 1.0, 2), (1.0, 0.0, 2)]
    assert sum(r * c.dim for c in comps) == 4


def test_q_decomposition_zero_component_is_kernel(s3_contexts):
    comps = q_decomposition(s3_contexts[0], 0)
    assert len(comps) == 1
    c = comps[0]
    assert (c.lambda10, c.lambda01) == (0.0, 0.0)
    ker = kernel(s3_contexts[0].laplacian_rn(0))
    assert principal_sines(c.basis, ker.vectors) <= 1e-10


def test_q_decomposition_degree_zero_is_kohn_spectrum(s3):
    # Folland's Kohn spectrum: on weight m the slot (p, q), p + q = m, carries
    # (lambda10, lambda01) = (q(p+1), p(q+1)) and Delta = (2pq + m)^2
    for ctx in Assembly(s3, 8).contexts:
        m = ctx.block.weight
        lap = ctx.laplacian_rn(0).matrix
        expected = {
            (float((m - p) * (p + 1)), float(p * (m - p + 1))): (2 * p * (m - p) + m) ** 2
            for p in range(m + 1)
        }
        comps = q_decomposition(ctx, 0)
        assert sorted((c.lambda10, c.lambda01) for c in comps) == sorted(expected)
        for c in comps:
            delta = expected[(c.lambda10, c.lambda01)]
            assert c.dim == 1
            assert max_abs(lap @ c.basis - delta * c.basis) <= 1e-12 * max(1.0, delta)


def _reeb_pair(ctx, k):
    lap = hermitize(ctx.laplacian_rn(k).matrix, 1e-9)
    ilt = hermitize(1j * ctx.lie_reeb_rumin(k).matrix, 1e-9)
    return lap, ilt


@pytest.mark.parametrize("k", range(4))
def test_joint_eigenspaces_split_reeb_sectors(s3_contexts, k):
    lap, ilt = _reeb_pair(s3_contexts[3], k)
    comps = _sequential_joint_eigenspaces(lap, ilt, 1e-9)
    basis = np.hstack([b for _, _, b in comps])
    assert np.allclose(basis.conj().T @ basis, np.eye(lap.shape[0]), atol=1e-12)
    for delta, tau, b in comps:
        assert tau == round(tau)  # Reeb eigenvalues are exact integers
        assert max_abs(lap @ b - delta * b) <= 1e-9 * max(1.0, delta)
        assert max_abs(ilt @ b - tau * b) == 0.0
    # ordered by Delta cluster, then by tau
    keys = [(delta, tau) for delta, tau, _ in comps]
    assert keys == sorted(keys)


def test_joint_eigenspaces_reject_non_diagonal_reeb_operator(s3_contexts):
    lap, ilt = _reeb_pair(s3_contexts[3], 1)
    ilt = ilt.copy()
    ilt[0, 1] = ilt[1, 0] = 1e-6
    with pytest.raises(InternalConsistencyError, match="not diagonal"):
        _sequential_joint_eigenspaces(lap, ilt, 1e-9)


def test_joint_eigenspaces_reject_cross_sector_entry(s3_contexts):
    lap, ilt = _reeb_pair(s3_contexts[3], 1)
    tau = np.real(np.diag(ilt))
    i, j = next((i, j) for i in range(tau.size) for j in range(tau.size) if tau[i] != tau[j])
    lap = lap.copy()
    eps = 1e-6 * max(1.0, max_abs(lap))
    lap[i, j] += eps
    lap[j, i] += eps
    with pytest.raises(InternalConsistencyError, match="commute"):
        _sequential_joint_eigenspaces(lap, ilt, 1e-9)


def test_q_decomposition_rejects_middle_degree(s3_contexts):
    with pytest.raises(ValueError):
        q_decomposition(s3_contexts[1], 1)


def test_eigenvalue_law_on_components(s3_contexts):
    # every positive eigenvalue equals (lambda10 + lambda01)^2 of its component
    ctx = s3_contexts[2]
    lap = ctx.laplacian_rn(0).matrix
    for c in q_decomposition(ctx, 0):
        lam = (c.lambda10 + c.lambda01) ** 2
        assert max_abs(lap @ c.basis - lam * c.basis) <= 1e-9 * max(1.0, lam)


# -- verification suites ---------------------------------------------------------------


def test_verify_complex_property_passes(s3_asm_small):
    rep = verify_complex_property(s3_asm_small)
    assert rep.passed


def test_verify_sasakian_identities_passes(s3_asm_small):
    rep = verify_sasakian_identities(s3_asm_small)
    assert rep.passed and len(rep.checks) > 50


def test_verify_hodge_block_matrix_passes(s3_asm_small):
    assert verify_hodge_block_matrix(s3_asm_small).passed


def test_verify_eigenvalue_identity_passes(s3_asm_small):
    rep = verify_eigenvalue_identity(s3_asm_small)
    assert rep.passed


def test_verify_middle_degree_passes(s3_asm_small):
    assert verify_middle_degree(s3_asm_small).passed


def test_verify_star_symmetry_passes(s3_asm_small):
    assert verify_star_symmetry(s3_asm_small).passed


def test_star_mirror_spectra_multisets(s3_contexts):
    for m in range(3):
        ctx = s3_contexts[m]
        for k in (0, 1):
            a = np.sort(np.linalg.eigvalsh(hermitize(ctx.laplacian_rn(k).matrix, 1e-9)))
            b = np.sort(np.linalg.eigvalsh(hermitize(ctx.laplacian_rn(3 - k).matrix, 1e-9)))
            assert np.max(np.abs(a - b)) <= 1e-9


def test_kernel_coincidence_sphere(s3_asm_small):
    rep = verify_kernel_coincidence(s3_asm_small)
    assert rep.passed
    assert rep.parameters["kernel_dims"] == [1, 0, 0, 1]


@pytest.mark.parametrize("p", (2, 3))
def test_kernel_coincidence_lens_all_characters(p):
    for l in range(p):
        asm = Assembly(lens_space(p, character=l), 3)
        rep = verify_kernel_coincidence(asm)
        assert rep.passed, rep.failures()[:3]
        expected = [1, 0, 0, 1] if l == 0 else [0, 0, 0, 0]
        assert rep.parameters["kernel_dims"] == expected


def test_kernel_dims_stable_under_truncation(s3):
    dims = {}
    for mw in (2, 4):
        rep = verify_kernel_coincidence(Assembly(s3, mw))
        dims[mw] = rep.parameters["kernel_dims"]
    assert dims[2] == dims[4]


def test_verify_primitivity_passes(s3_asm_small):
    rep = verify_primitivity(s3_asm_small)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert any("interior_reeb_vanishes[m0]k=0" in nm for nm in names)
    assert any("theta_wedge_vanishes[m0]k=3" in nm for nm in names)
    assert any("j_preserves_harmonics[m0]k=3" in nm for nm in names)


def test_verify_deformation_family_passes(s3_asm_small):
    rep = verify_deformation_family(s3_asm_small, (0.1, 1.0, 10.0))
    assert rep.passed


def test_deformation_family_rejects_nonpositive_samples(s3_asm_small):
    with pytest.raises(ValueError):
        verify_deformation_family(s3_asm_small, (0.0, 1.0))


def test_joint_kernel_matches_single_kernel(s3_contexts):
    ctx = s3_contexts[0]
    lap = ctx.laplacian_de_rham(0).matrix
    basis = joint_kernel([lap, lap.copy()])
    assert basis.shape[1] == 1


# -- principal angles -------------------------------------------------------------------


def test_principal_sines_known_rotation():
    t = 1e-3
    u = np.array([[1.0], [0.0]])
    v = np.array([[np.cos(t)], [np.sin(t)]])
    assert principal_sines(u, v) == pytest.approx(np.sin(t), rel=1e-9)
    assert principal_sines(u, u) <= 1e-15
    assert principal_sines(u, np.zeros((2, 0))) == 1.0


# -- tables -----------------------------------------------------------------------------


def test_spectrum_table_serialization():
    table = SpectrumTable(operator="delta-rn", model={"model": "s3"}, max_weight=2)
    table.entries.append(SpectrumEntry(0, "m1", 1.0, 4, nu=0.0, lambda10=1.0, lambda01=0.0))
    table.entries.append(SpectrumEntry(0, "m0", 0.0, 1))
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "degree,block,eigenvalue,multiplicity,nu,lambda10,lambda01"
    assert lines[1].startswith("0,m0,0,1,,,")
    doc = json.loads(table.to_json())
    assert doc["schema"] == 1 and doc["kind"] == "spectrum"
    assert table.to_json() == table.to_json()


def test_verification_report_serialization(s3_asm_small):
    rep = verify_complex_property(s3_asm_small)
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 1 and doc["passed"] is True
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "check,status,residual,tolerance,detail"
    assert rep.to_json() == rep.to_json()


def test_report_records_failures():
    rep = VerificationReport("demo")
    rep.add("too_big", 1.0, 1e-3, "synthetic")
    assert not rep.passed
    assert rep.failures()[0].name == "too_big"


def test_harmonic_bases_collects_kernels(s3_asm_small):
    from ruminlab.spectral import harmonic_bases

    bases = harmonic_bases(s3_asm_small, operator="rumin")
    assert bases[("m0", 0)].dim == 1
    assert bases[("m1", 1)].dim == 0
    total = sum(b.dim for (blk, k), b in bases.items() if k == 3)
    assert total == 1


@pytest.mark.parametrize("m", range(4))
def test_heat_supertrace_de_rham(s3_contexts, m):
    # the alternating heat trace over one block is t-independent and equals
    # the alternating count of harmonics (nonzero spectrum pairs across
    # adjacent degrees); an independent joint check of all four Laplacians
    ctx = s3_contexts[m]
    harmonic = 0
    for t in (0.05, 0.7):
        total = 0.0
        for k in range(4):
            w = np.linalg.eigvalsh(hermitize(ctx.laplacian_de_rham(k).matrix, 1e-9))
            total += (-1) ** k * float(np.sum(np.exp(-t * np.clip(w, 0.0, None))))
        expected = 0.0  # chi of the block: harmonics sit in degrees 0 and 3
        assert total == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("m", range(4))
def test_heat_supertrace_rumin(s3_contexts, m):
    # same pairing for the fourth-order complex Laplacians: exact/coexact
    # eigenspaces pair through the complex differentials in every degree
    ctx = s3_contexts[m]
    for t in (0.05, 0.7):
        total = 0.0
        kernels = 0
        for k in range(4):
            w = np.linalg.eigvalsh(hermitize(ctx.laplacian_rn(k).matrix, 1e-9))
            total += (-1) ** k * float(np.sum(np.exp(-t * np.clip(w, 0.0, None))))
            kernels += (-1) ** k * int(np.sum(np.abs(w) < 1e-9))
        assert total == pytest.approx(float(kernels), abs=1e-9)
