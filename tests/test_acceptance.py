"""End-to-end acceptance criteria for the verification engine.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s, and in the captured output on failure).

Note on criterion 7: the theorem-level statement is the weighted multiset
identity, asserted with the kernel-dimension bookkeeping and the two-route
torsion partial sums in test_criterion_7_weighted_identity_and_torsion_sums.
The literal one-sided-only reading of the per-degree clause (the positive
spectrum of each degree equals the one-sided Reeb multiset {nu^2}) is false:
on the sphere's weight-2 block the interior slot carries the degree-0
eigenvalue 16 with both half Laplacians equal to 2, so it lies in neither
one-sided piece, while both pieces consist of 4's.
test_criterion_7_per_degree_multisets_as_written asserts the per-degree
statement that holds: in degrees 0 and 1 the positive spectrum is the
one-sided multiset plus a bi-positive part B_k, the report's per-degree
outcome is True exactly when B_k is empty, B_1 = 2 B_0 (so the weights
(-2, +1) cancel it), and degree 0 agrees with the closed-form Kohn spectrum
(Folland 1972): on weight m the one-sided piece is {m^2, m^2} and
B_0 = {(2pq + m)^2 : 1 <= p <= m - 1, q = m - p}, each with the block's
multiplicity.
"""

import time

import numpy as np
import pytest

from ruminlab.model import lens_space, su2_model
from ruminlab.operators import BlockContext, max_abs
from ruminlab.spectral import (
    Assembly,
    verify_eigenvalue_identity,
    verify_deformation_family,
    verify_kernel_coincidence,
    verify_middle_degree,
    verify_primitivity,
    verify_sasakian_identities,
)
from ruminlab.torsion import PIECES, _cluster_multiset, _multisets_match, reeb_decomposition

MODEL_SPECS = [
    ("s3", su2_model()),
    ("lens2.l0", lens_space(2, character=0)),
    ("lens2.l1", lens_space(2, character=1)),
    ("lens3.l0", lens_space(3, character=0)),
    ("lens3.l1", lens_space(3, character=1)),
    ("lens3.l2", lens_space(3, character=2)),
]


def report(cid: str, ok: bool, detail: str = "") -> str:
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else "")
    print(line)
    return line


@pytest.fixture(scope="module")
def asm6():
    return {name: Assembly(model, 6) for name, model in MODEL_SPECS}


@pytest.fixture(scope="module")
def asm4():
    return {name: Assembly(model, 4) for name, model in MODEL_SPECS}


@pytest.fixture(scope="module")
def reeb6(asm6):
    return {name: reeb_decomposition(asm, s_grid=(2.0, 3.0, 4.0)) for name, asm in asm6.items()}


@pytest.fixture(scope="module")
def reeb4(asm4):
    return {name: reeb_decomposition(asm, s_grid=(2.0, 3.0, 4.0)) for name, asm in asm4.items()}


def test_criterion_1_complex_property():
    start = time.perf_counter()
    model = su2_model()
    worst = 0.0
    for block in model.blocks(8):
        ctx = BlockContext(model.frame, block)
        for k in range(3):
            worst = max(worst, max_abs(ctx.d_full(k + 1) @ ctx.d_full(k)))
            up = ctx.rumin_d(k + 1).matrix if k + 1 < 3 else None
            if up is not None:
                worst = max(worst, max_abs(up @ ctx.rumin_d(k).matrix))
            for t in (0.0, 0.37, 1.0, 2.0):
                worst = max(worst, max_abs(ctx.dt_full(k + 1, t) @ ctx.dt_full(k, t)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed <= 10.0
    line = report("1 complex property", ok, f"worst residual {worst:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_2_sasakian_identities():
    start = time.perf_counter()
    rep = verify_sasakian_identities(Assembly(su2_model(), 6), tol=1e-11)
    elapsed = time.perf_counter() - start
    worst = max(rep.residuals)
    ok = rep.passed and elapsed <= 10.0
    line = report("2 Sasakian identities", ok, f"worst residual {worst:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_3_kernel_coincidence(asm6):
    start = time.perf_counter()
    ok = True
    details = []
    for name, asm in asm6.items():
        rep = verify_kernel_coincidence(asm)
        expected = [1, 0, 0, 1] if asm.model.character == 0 else [0, 0, 0, 0]
        good = rep.passed and rep.parameters["kernel_dims"] == expected
        ok = ok and good
        details.append(f"{name}={rep.parameters['kernel_dims']}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 30.0
    line = report("3 kernel coincidence", ok, ", ".join(details) + f", {elapsed:.1f}s")
    assert ok, line


def test_criterion_4_primitivity(asm6):
    ok = True
    worst = 0.0
    for asm in asm6.values():
        rep = verify_primitivity(asm, tol=1e-10)
        ok = ok and rep.passed
        worst = max(worst, max(rep.residuals, default=0.0))
    line = report("4 primitivity of harmonics", ok, f"worst residual {worst:.2e}")
    assert ok, line


def test_criterion_5_deformed_family(asm6):
    ok = True
    worst = 0.0
    for asm in asm6.values():
        rep = verify_deformation_family(asm, (0.1, 1.0, 10.0), tol=1e-10)
        ok = ok and rep.passed
        worst = max(worst, max(rep.residuals, default=0.0))
    line = report("5 deformed-family kernels", ok, f"worst residual {worst:.2e}")
    assert ok, line


def test_criterion_6_eigenvalue_law(asm6):
    ok = True
    worst = 0.0
    for asm in asm6.values():
        law = verify_eigenvalue_identity(asm, tol_rel=1e-9)
        mid = verify_middle_degree(asm, tol=1e-10)
        ok = ok and law.passed and mid.passed
        worst = max(
            worst,
            max((r for r, t in zip(law.residuals, law.tolerances) if t < 0.4), default=0.0),
            max(mid.residuals, default=0.0),
        )
    line = report("6 squared-sum eigenvalue law", ok, f"worst residual {worst:.2e}")
    assert ok, line


def test_criterion_7_weighted_identity_and_torsion_sums(reeb6):
    ok = True
    details = []
    for name, rep in reeb6.items():
        expected = [1, 0] if rep.model["character"] == 0 else [0, 0]
        good = (
            rep.passed
            and rep.weighted_match
            and rep.kernel_dims == expected
            and all(
                abs(rep.kappa_from_spectrum[s] - rep.kappa_from_reeb[s]) <= 1e-9
                for s in (2.0, 3.0, 4.0)
            )
        )
        ok = ok and good
        details.append(f"{name}:dims={rep.kernel_dims}")
    line = report("7 Reeb decomposition (weighted identity, dims, kappa)", ok, ", ".join(details))
    assert ok, line


def test_criterion_7_per_degree_multisets_as_written(asm6, reeb6):
    # Degree by degree the positive spectrum is the one-sided Reeb multiset
    # {nu^2} plus a bi-positive part B_k, where both half Laplacians are
    # positive; B_1 = 2 B_0 is what cancels under the weights (-2, +1).
    # Degree 0 on weight m is checked against the Kohn spectrum (Folland
    # 1972): the slot (p, q), p + q = m, has (lambda10, lambda01) =
    # (q(p+1), p(q+1)), so Delta = (2pq + m)^2 and nu = q - p.
    def same(a, b):
        return _multisets_match(_cluster_multiset(a), _cluster_multiset(b))[0]

    mismatches = []
    bi_positive_pairs = []
    total = 0
    for name, rep in reeb6.items():
        keys = set()
        c = rep.columns
        for ctx in asm6[name].contexts:
            lbl, m, r = ctx.block.label, ctx.block.weight, ctx.block.multiplicity
            one_sided, bi_pos = {}, {}
            for k in (0, 1):
                keys.add((lbl, k))
                total += 1
                at = (c["block"] == lbl) & (c["degree"] == k)

                def pairs(values, *pieces):
                    """(value, multiplicity) of the slices of this block and degree in `pieces`."""
                    where = at & np.isin(c["piece"], [PIECES.index(p) for p in pieces])
                    return list(zip(values[where].tolist(), c["mult"][where].tolist()))

                positive = pairs(c["delta"], "reeb_plus", "reeb_minus", "bi_positive")
                one_sided[k] = pairs(c["nu"] ** 2, "reeb_plus", "reeb_minus")
                bi_pos[k] = pairs(c["delta"], "bi_positive")
                if k == 0:
                    nu_b0 = pairs(c["nu"], "bi_positive")
                if bi_pos[k]:
                    bi_positive_pairs.append(f"{name}:{lbl} k={k}")
                if not same(positive, one_sided[k] + bi_pos[k]):
                    mismatches.append((name, lbl, k, "split"))
                if rep.per_degree_outcomes[(lbl, k)] != (not bi_pos[k]):
                    mismatches.append((name, lbl, k, "diagnostic"))
            oracle_nu = [(float(m - 2 * p), r) for p in range(1, m)]
            oracle_b0 = [(float((2 * p * (m - p) + m) ** 2), r) for p in range(1, m)]
            if not same(one_sided[0], [(float(m * m), r)] * 2 if m else []):
                mismatches.append((name, lbl, 0, "one-sided oracle"))
            if not (same(bi_pos[0], oracle_b0) and same(nu_b0, oracle_nu)):
                mismatches.append((name, lbl, 0, "bi-positive oracle"))
            if not same(bi_pos[1], [(v, 2 * c) for v, c in bi_pos[0]]):
                mismatches.append((name, lbl, 1, "B_1 = 2 B_0"))
        if set(rep.per_degree_outcomes) != keys:
            mismatches.append((name, "outcome keys"))
    ok = not mismatches and bool(bi_positive_pairs)
    detail = (
        f"bi-positive part nonempty in {len(bi_positive_pairs)} of {total} block/degree pairs, "
        f"first at {bi_positive_pairs[0] if bi_positive_pairs else None}"
    )
    if mismatches:
        detail += f"; first mismatch: {mismatches[0]}"
    line = report(
        "7 per-degree multisets (positive = one-sided {nu^2} + bi-positive B_k, "
        "B_1 = 2 B_0, degree 0 = Folland spectrum)",
        ok,
        detail,
    )
    assert ok, line


def test_criterion_8_truncation_stability(asm4, asm6, reeb4, reeb6):
    ok = True
    for name, _ in MODEL_SPECS:
        dims4 = verify_kernel_coincidence(asm4[name]).parameters["kernel_dims"]
        dims6 = verify_kernel_coincidence(asm6[name]).parameters["kernel_dims"]
        ok = ok and dims4 == dims6
        r4, r6 = reeb4[name], reeb6[name]
        ok = ok and r4.weighted_match == r6.weighted_match
        ok = ok and r4.kernel_dims == r6.kernel_dims
        common = {k: v for k, v in r6.per_degree_outcomes.items() if k in r4.per_degree_outcomes}
        ok = ok and common == r4.per_degree_outcomes
        cut = min(r4.cutoff, r6.cutoff)

        def matched_below(rep):
            c = rep.columns
            below = c["delta"] < cut - 1e-9
            block, degree, piece, mult = (c[f][below].tolist() for f in ("block", "degree", "piece", "mult"))
            delta, nu = ([round(x, 9) for x in c[f][below].tolist()] for f in ("delta", "nu"))
            return sorted(zip(block, degree, piece, delta, nu, mult))

        ok = ok and matched_below(r4) == matched_below(r6)
    line = report("8 truncation stability", ok)
    assert ok, line
