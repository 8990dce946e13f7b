"""The Rumin block spectrum in closed form, and the spectral cutoff it gives.

On weight m the Rumin Laplacian has integer eigenvalues.  With slots
p = 0..m, q = m - p and nu = q - p (the Reeb eigenvalue, L_T = i nu), one
copy of the slot gives:

* m = 0: (Delta, nu) = (0, 0) in degrees 0 and 3, and (4, 2), (4, -2) in
  degrees 1 and 2;
* m >= 1: the end slots p in {0, m} give (m^2, +-m) once in every degree;
  each interior slot gives ((2pq + m)^2, q - p) once in degrees 0 and 3 and
  twice in degrees 1 and 2; degrees 1 and 2 also give ((m + 2)^2, +-(m + 2)).

Degree 0 is the Kohn spectrum of Folland (1972).  Every count is then
repeated r = |allowed_weight_slots(m, p, l)| times.  The smallest positive
eigenvalue on weight m >= 1 is m^2 in every degree, so the spectral cutoff of
a truncation at M is m1^2 for the first omitted weight m1 with r > 0.
"""

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from ruminlab import cli, spectral
from ruminlab.model import ModelManifold, allowed_weight_slots, lens_space
from ruminlab.operators import BlockContext
from ruminlab.spectral import Assembly


def closed_form_slot(m: int, degree: int) -> Counter:
    """(Delta, nu) -> multiplicity of the degree-k Rumin Laplacian on one slot of weight m."""
    if m == 0:
        return Counter({(0, 0): 1}) if degree in (0, 3) else Counter({(4, 2): 1, (4, -2): 1})
    twice = degree in (1, 2)
    out = Counter({(m * m, m): 1, (m * m, -m): 1})
    for p in range(1, m):
        q = m - p
        out[(2 * p * q + m) ** 2, q - p] += 2 if twice else 1
    if twice:
        out[(m + 2) ** 2, m + 2] += 1
        out[(m + 2) ** 2, -(m + 2)] += 1
    return out


@pytest.mark.parametrize(
    "argv, max_weight",
    [
        (["--model", "s3"], 40),
        (["--model", "lens", "--p", "3", "--character", "1"], 30),
        (["--model", "lens", "--p", "4", "--character", "2"], 30),
        (["--model", "s3"], 200),
        (["--model", "lens", "--p", "5", "--character", "2"], 120),
    ],
    ids=["s3", "lens3-1", "lens4-2", "s3-m200", "lens5-2-m120"],
)
def test_rumin_spectrum_equals_closed_form(capsys, argv, max_weight):
    code = cli.main(["spectrum", "--op", "delta-rn", "--format", "json", "--max-weight", str(max_weight)] + argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    model = doc["model"]
    observed = {}
    for row in doc["entries"]:
        delta, nu = float(row["eigenvalue"]), float(row["nu"])
        exact = round(delta)
        assert abs(delta - exact) <= 1e-10 * max(1.0, exact), row
        assert nu == round(nu), row
        observed.setdefault((row["block"], row["degree"]), Counter())[exact, int(nu)] += row["multiplicity"]
    expected = {}
    for m in range(max_weight + 1):
        r = len(allowed_weight_slots(m, model["p"], model["character"]))
        for degree in range(4):
            if r:
                expected[f"m{m}", degree] = Counter({key: r * c for key, c in closed_form_slot(m, degree).items()})
    assert observed.keys() == expected.keys()
    for key, counts in expected.items():
        assert observed[key] == counts, key
    # the reported cutoff is the smallest positive eigenvalue of the first omitted block
    m1 = next(m for m in itertools.count(max_weight + 1) if allowed_weight_slots(m, model["p"], model["character"]))
    lowest = min(d for k in range(4) for d, _ in closed_form_slot(m1, k) if d > 0)
    assert float(doc["cutoff"]) == lowest == m1 * m1


def probe_cutoff(model: ModelManifold, max_weight: int, tables: dict, probe: int = 2) -> float:
    """The cutoff measured numerically: the smallest positive Rumin eigenvalue of
    the first `probe` omitted nonempty blocks, over every degree."""
    lo = math.inf
    found = 0
    m = max_weight + 1
    while found < probe and m <= max_weight + 2 * model.p + probe:
        b = model.block(m)
        if b.dim > 0:
            ctx = BlockContext(model.frame, b, tables)
            for k in range(model.frame.dim + 1):
                w = np.linalg.eigvalsh(ctx.laplacian_rn(k).matrix)
                pos = w[w > 1e-9]
                if pos.size:
                    lo = min(lo, float(pos[0]))
            found += 1
        m += 1
    return lo


@pytest.mark.parametrize("p", range(1, 7))
def test_cutoff_equals_the_measured_probe(p):
    mismatches = []
    for l in range(p):
        model = lens_space(p, character=l)
        tables = {}
        for max_weight in range(9):
            closed = Assembly(model, max_weight).spectral_cutoff()
            measured = probe_cutoff(model, max_weight, tables)
            if abs(closed - measured) > 1e-9 * measured:
                mismatches.append((l, max_weight, closed, measured))
    assert not mismatches


def test_cutoff_builds_no_block_and_solves_nothing(monkeypatch):
    asm = Assembly(lens_space(4, character=2), 4)  # weight 5 has no slot there

    def fail(*args, **kwargs):
        pytest.fail("the cutoff is closed-form")

    monkeypatch.setattr(spectral, "BlockContext", fail)
    monkeypatch.setattr(ModelManifold, "block", fail)
    monkeypatch.setattr(ModelManifold, "blocks", fail)
    for name in dir(np.linalg):
        routine = getattr(np.linalg, name)
        if not name.startswith("_") and callable(routine) and not isinstance(routine, type):
            monkeypatch.setattr(np.linalg, name, fail)
    assert asm.spectral_cutoff() == 36.0


def test_cutoff_equals_the_search_over_weights():
    """The closed-form cutoff is m1^2 for the first weight m1 > M with a slot, as a walk upward
    from M + 1 over `allowed_weight_slots` finds it, for every p <= 15, every l and M <= 44."""
    mismatches = []
    for p in range(1, 16):
        for l in range(p):
            model = lens_space(p, character=l)
            for max_weight in range(45):
                m = max_weight + 1
                while not allowed_weight_slots(m, p, l):
                    m += 1
                if spectral.spectral_cutoff(model, max_weight) != float(m * m):
                    mismatches.append((p, l, max_weight))
    assert not mismatches


def test_cutoff_of_a_large_lens_order_needs_no_search(monkeypatch):
    """With l = (p - 1)/2 the first weight with a slot is l itself, near p/2: the cutoff reads it
    without listing the slots of any weight."""
    p = 10**9 + 7
    model = lens_space(p, character=(p - 1) // 2)

    def fail(*args, **kwargs):
        pytest.fail("the cutoff lists no weight slots")

    monkeypatch.setattr("ruminlab.model.allowed_weight_slots", fail)
    assert spectral.spectral_cutoff(model, 4) == float(((p - 1) // 2) ** 2)
