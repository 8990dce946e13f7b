"""The `verify` suites on the Reeb-sector stacks against the dense per-block bodies they replace.

`cli.run_suite` reads `ruminlab.suites`, which builds every operator on the
Reeb sectors of all weights at once; `dense_reference.dense_run_suite` runs the
dense per-block bodies on the weight blocks, one at a time.  Both must report
the same checks, with the same outcomes, tolerances and details; a residual
may move by rounding only.  A change of one entry of a sector stack that a
suite reads must make that suite fail.
"""

import json

import numpy as np
import pytest

from dense_reference import dense_run_suite
from ruminlab import cli, spectral, suites
from ruminlab.model import lens_space, su2_model
from ruminlab.operators import max_abs
from ruminlab.sectors import SectorStacks
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


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_singular_value_ranks_equal_the_image_basis_ranks(model):
    """The ranks of the adjoints of the Rumin halves that the sec4 eigenvalue law reads from the
    singular values alone (`suites._svd_ranks`) are those of the image bases of `_svd_basis`, with
    the same cut, on every sector for M = 0..12."""
    for max_weight in range(13):
        stacks = Assembly(model, max_weight).sector_stacks
        n = stacks.n
        low, mid = stacks.space(n - 1, "rumin").valid, stacks.space(n, "rumin").valid
        for anti in (False, True):
            adjoint = suites._t(stacks.rumin_del(n - 1, anti))
            basis = suites._svd_basis(stacks, adjoint, low, mid, 1e-9, image=True)
            ranks = suites._svd_ranks(stacks, adjoint, low, mid, 1e-9)
            assert np.array_equal(ranks, basis.used.sum(axis=0)), (max_weight, anti)
            assert np.array_equal(ranks > 0, basis.used[0]), (max_weight, anti)


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
