"""The `verify` suites on the Reeb-sector stacks against the dense per-block bodies they replace.

`cli.run_suite` reads `ruminlab.suites`, which builds every operator on the
Reeb sectors of all weights at once; `dense_reference.dense_run_suite` runs the
dense per-block bodies on the weight blocks, one at a time.  Both must report
the same checks, with the same outcomes, tolerances and details; a residual
may move by rounding only.  A change of one entry of a sector stack that a
suite reads must make that suite fail.
"""

import json
import sys
from collections import Counter

import numpy as np
import pytest

from dense_reference import dense_run_suite
from ruminlab import cli, spectral, suites
from ruminlab.model import lens_space, su2_model
from ruminlab.operators import max_abs
from ruminlab.sectors import SectorStacks, singular_values
from ruminlab.spectral import Assembly, VerificationReport

MODELS = [su2_model()] + [lens_space(p, character=l) for p in range(2, 6) for l in range(p)]
MODEL_IDS = ["s3"] + [f"lens{p}-{l}" for p in range(2, 6) for l in range(p)]
# The largest |sector - dense| residual over this grid is 0.028 of its tolerance, in dt.dt[m12]
# on lens(2, 0) (5.7e-14 against 2.8e-14, tolerance 1e-12); pass/fail checks (tolerance 0 or 0.5)
# must agree exactly.
RESIDUAL_BOUND = 0.1


@pytest.mark.parametrize("max_weight", [0, 3, 12])
@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_sector_suites_equal_the_dense_reference(model, max_weight):
    cfg = cli.RunConfig()
    sector = cli.run_suite(Assembly(model, max_weight), "all", cfg)
    dense = dense_run_suite(Assembly(model, max_weight), "all", cfg)
    assert sector.parameters == dense.parameters
    assert sector.passed == dense.passed  # the exit code
    rows, ref = (json.loads(report.to_json())["checks"] for report in (sector, dense))
    assert [{k: v for k, v in row.items() if k != "residual"} for row in rows] == [
        {k: v for k, v in row.items() if k != "residual"} for row in ref
    ]
    for row, want in zip(rows, ref):
        got, expected, tol = float(row["residual"]), float(want["residual"]), float(row["tolerance"])
        if tol in (0.0, 0.5):
            assert got == expected, row["name"]
        else:
            assert abs(got - expected) <= RESIDUAL_BOUND * tol, (row["name"], got, expected)


SUITES = ("thm1", "cor2", "cor3", "sec4", "thm5")
ALL_ONLY = ("d.d[", "dN.dN[", "dt.dt[", "hodge_block_matrix[", "star_intertwines[", "star_isometry[")


def _check_multiset(report: VerificationReport) -> Counter:
    """Every check of a report as (name, residual bits, tolerance, pass flag, detail)."""
    columns = (report.names, report.residuals, report.tolerances, report.details)
    return Counter((name, res.hex(), tol, res <= tol, detail) for name, res, tol, detail in zip(*columns))


@pytest.mark.parametrize("max_weight", [0, 3, 8])
@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_each_suite_alone_equals_its_share_of_all(model, max_weight):
    """Each `--suite` run alone reports its checks exactly as `--suite all` does, residuals bit for
    bit: no suite reads a value that an earlier suite of the run built differently.  The checks
    that `all` alone runs are the complex, hodge and star families."""
    cfg = cli.RunConfig()
    rest = _check_multiset(cli.run_suite(Assembly(model, max_weight), "all", cfg))
    for suite in SUITES:
        alone = _check_multiset(cli.run_suite(Assembly(model, max_weight), suite, cfg))
        assert not alone - rest, (suite, sorted(alone - rest)[:5])
        rest -= alone
    assert all(check[0].startswith(ALL_ONLY) for check in rest), sorted(rest)[:5]


def _rank_decisions(stacks: SectorStacks):
    """(stack, valid rows, valid columns, tol) of every rank that `SectorStacks.ranks` decides: the
    Rumin and de Rham differentials of the rank oracle, the adjoints of the Rumin halves of sec4
    and the joint kernels of the deformed Laplacians of cor3."""
    n = stacks.n
    for k in range(stacks.Dmax):
        for d, flavor in ((stacks.rumin_d, "rumin"), (stacks.d, "full")):
            yield d(k), stacks.space(k + 1, flavor).valid, stacks.space(k, flavor).valid, 1e-8
    low, mid = stacks.space(n - 1, "rumin").valid, stacks.space(n, "rumin").valid
    for anti in (False, True):
        yield suites._t(stacks.rumin_del(n - 1, anti)), low, mid, 1e-9
    for k in range(stacks.Dmax + 1):
        valid, laps = stacks.space(k).valid, [stacks.laplacian("delta-t", k, t) for t in (0.1, 1.0, 10.0)]
        yield suites._scaled_stack(stacks, laps), np.concatenate([valid] * len(laps)), valid, 1e-9


@pytest.mark.parametrize(
    "model,max_weights", [*((m, range(13)) for m in MODELS), (su2_model(), [60])], ids=[*MODEL_IDS, "s3-m60"]
)
def test_singular_value_ranks_equal_the_image_basis_ranks(model, max_weights):
    """The ranks that `SectorStacks.ranks` reads from the singular values of the padded blocks are
    those of the image bases of `_svd_basis`, which decomposes the valid blocks alone and counts
    with the same `value_ranks`, and the valid columns less them are the dimensions of its null
    spaces, on every sector of every rank decision."""
    for max_weight in max_weights:
        stacks = Assembly(model, max_weight).sector_stacks
        for i, (stack, rows, cols, tol) in enumerate(_rank_decisions(stacks)):
            ranks = stacks.ranks(stack, tol)
            image = suites._svd_basis(stacks, stack, rows, cols, tol, image=True)
            null = suites._svd_basis(stacks, stack, rows, cols, tol, image=False)
            assert np.array_equal(ranks, image.used.sum(axis=0)), (max_weight, i)
            assert np.array_equal(cols.sum(axis=0) - ranks, null.used.sum(axis=0)), (max_weight, i)


@pytest.mark.parametrize("model", [["--model", "s3"], ["--model", "lens", "--p", "3", "--character", "1"]],
                         ids=["s3", "lens3-1"])
def test_every_values_only_svd_is_singular_values(monkeypatch, capsys, model):
    """During `verify --suite all`, every values-only SVD (the rank decisions and the largest
    principal sines) is the one of `sectors.singular_values`, and no call reaches
    `np.linalg.norm`, whose 2-norm runs an SVD of its own.  The harmonic kernels of thm1 agree
    exactly here, so the principal sines of two lines at a known angle are taken too."""
    svd, norm, callers, norms = np.linalg.svd, np.linalg.norm, Counter(), []

    def spy_svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        if not compute_uv:
            callers[sys._getframe(1).f_code] += 1
        return svd(a, full_matrices, compute_uv, *args, **kwargs)

    def spy_norm(*args, **kwargs):
        norms.append(args)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    assert cli.main(["verify", "--suite", "all", *model, "--max-weight", "4"]) == 0
    capsys.readouterr()
    stacks = Assembly(su2_model(), 2).sector_stacks
    size = stacks.m.size
    line = lambda angle: np.broadcast_to(np.array([np.cos(angle), np.sin(angle)])[:, None, None], (2, 1, size))
    u, v = (suites.SectorBasis(line(a), np.ones((1, size), dtype=bool)) for a in (0.0, 0.3))
    assert np.allclose(suites._principal_sines(stacks, u, v), np.sin(0.3), rtol=0, atol=1e-15)
    assert not norms
    assert set(callers) == {singular_values.__code__}


def _harmonic_sector(stacks: SectorStacks) -> int:
    """The sector of the constant function, on weight 0."""
    return int(np.flatnonzero((stacks.m == 0) & stacks.space(0).valid[0])[0])


def _largest(stacks, out):
    return np.unravel_index(np.argmax(np.abs(out)), out.shape)


def _function_entry(stacks, out):
    return 0, 0, _harmonic_sector(stacks)


def _db_entry(stacks, out):
    s = _harmonic_sector(stacks)
    return int(np.flatnonzero(stacks.space(1).valid[:, s])[0]), 0, s


def _d1_entry(stacks, out):
    """The largest entry of d_1 in the column and sector of the largest entry of d_0."""
    j, _, s = _largest(stacks, stacks.d(0))
    return int(np.argmax(np.abs(out[:, j, s]))), j, s


SEC4 = (spectral.verify_sasakian_identities, spectral.verify_eigenvalue_identity, spectral.verify_middle_degree)
MUTATIONS = {
    # suite: (its verify functions, owner and name of the stack builder, its arguments, entry, failing family)
    "thm1": ((spectral.verify_kernel_coincidence,), SectorStacks, "laplacian", ("delta-rn", 0), _function_entry,
             "kernel_dims_match"),
    "cor2": ((spectral.verify_primitivity,), suites, "_fiber", ("jact", 0, 0), _function_entry,
             "j_is_isometry_on_harmonics"),
    "cor3": ((spectral.verify_deformation_family,), SectorStacks, "db", (0,), _db_entry, "piecewise_db"),
    "sec4": (SEC4, SectorStacks, "rumin_del", (0, False), _largest, "sqrt_splits"),
    "complex": ((spectral.verify_complex_property,), SectorStacks, "d", (1,), _d1_entry, "d.d"),
    "hodge": ((spectral.verify_hodge_block_matrix,), SectorStacks, "laplacian", ("delta-dr", 1), _largest,
              "hodge_block_matrix"),
    "star": ((spectral.verify_star_symmetry,), SectorStacks, "laplacian", ("delta-rn", 1), _largest,
             "star_intertwines"),
}


def _run(suites_to_run, asm) -> VerificationReport:
    report = VerificationReport("mutation")
    for suite in suites_to_run:
        report.extend(suite(asm))
    return report


@pytest.mark.parametrize("suite", list(MUTATIONS))
def test_sector_suite_catches_a_changed_stack_entry(monkeypatch, suite):
    """One entry of one stack that the suite reads, changed by 1e-8 of itself (by 1e-8 of the
    stack's largest entry where it is zero), fails the suite's family."""
    runs, owner, name, args, entry, family = MUTATIONS[suite]
    assert _run(runs, Assembly(su2_model(), 4)).passed
    original = getattr(owner, name)

    def changed(stacks, *call):
        out = original(stacks, *call)
        if tuple(call[: len(args)]) != args:
            return out
        out = np.array(out)
        idx = entry(stacks, out)
        out[idx] += 1e-8 * (out[idx] if out[idx] else max_abs(out))
        return out

    monkeypatch.setattr(owner, name, changed)
    report = _run(runs, Assembly(su2_model(), 4))
    failed = {report.names[i].split("[")[0] for i in report.failed()}
    assert family in failed, sorted(failed)


LAW_FAMILIES = ("law_middle_values", "law_middle_multiplicity", "restricted_positivity")


def _law_checks(asm) -> dict:
    """name -> (residual, tolerance, detail) of the middle-degree law checks of sec4."""
    report = spectral.verify_eigenvalue_identity(asm)
    rows = zip(report.names, report.residuals, report.tolerances, report.details)
    return {name: rest for name, *rest in rows if name.startswith(LAW_FAMILIES)}


def test_a_missing_component_fails_the_middle_law_multiplicity(monkeypatch):
    """Without one component of weight m3 on s3 (lambda10 = 3, lambda01 = 4, so it predicts two
    middle eigenvalues) the predicted multiset of m3 is two values short: its law fails on the
    multiplicity, counted over the 4 copies of the slot, and every other weight is unchanged."""
    asm = Assembly(su2_model(), 4)
    want = _law_checks(asm)
    owner, sector, l10, l01 = suites._low_components(asm)
    [drop] = np.flatnonzero((owner == 3) & (l10 == 3) & (l01 == 4))
    keep = np.arange(owner.size) != drop
    monkeypatch.setattr(suites, "_low_components", lambda asm: (owner[keep], sector[keep], l10[keep], l01[keep]))
    got = _law_checks(Assembly(su2_model(), 4))
    del want["law_middle_values[m3]"]
    want["law_middle_multiplicity[m3]"] = [8.0, 0.0, "predicted=16 actual=24"]
    assert got == want


def test_a_zero_restricted_eigenvalue_fails_positivity(monkeypatch):
    """The lowest restricted middle eigenvalue (1, on weight m1 of s3) moved to 1e-10, at most the
    zero threshold 1e-9, fails restricted positivity on m1, and the law there by 1 - 1e-10."""
    asm = Assembly(su2_model(), 4)
    want = _law_checks(asm)
    eigh = suites._eigh

    def lowered(stack, valid, groups):
        w, q, used = eigh(stack, valid, groups)
        w = w.copy()
        w[np.unravel_index(np.argmin(np.where(used, w, np.inf)), w.shape)] = 1e-10
        return w, q, used

    monkeypatch.setattr(suites, "_eigh", lowered)
    got = _law_checks(Assembly(su2_model(), 4))
    want["law_middle_values[m1]"] = [1.0 - 1e-10, 1e-9, ""]
    want["restricted_positivity[m1]"] = [1.0, 0.5, "min_eigenvalue=1e-10"]
    assert got == want
