"""The benchmark's workloads: lists of `rumin` argument vectors drawn from a seed.

Each workload loads a different layer of ruminlab, so an optimisation of one
layer shows on one workload and should leave the others unchanged:

* ``s3-verify``  - one `verify --suite all` on s3; the verification suites and
  the rank/null-space solves dominate.
* ``s3-spectra`` - both `spectrum` tables and a `torsion` report on s3; no
  suite runs, so the time goes to Laplacians, joint eigen-solves and the
  spectral-cutoff probe.
* ``lens-sweep`` - `verify --suite all` and `torsion` on every lens(p, l) with
  p in {3, 4, 5}; blocks are small, so per-block set-up (fiber tables, kron
  lifts, model.blocks) outweighs dense LAPACK work.

The seed sets the order of the ops and draws ``--t-samples`` and ``--s-grid``.
The drawn values are odd multiples of 1/8, so they are exact binary fractions
that print with a fixed number of digits and never coincide with the fixed
samples (0, 0.37, 1, 2) of the complex-property suite.  The per-op work and
the spectrum references do not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

WORKLOADS = ("s3-verify", "s3-spectra", "lens-sweep")
LENS_ORDERS = (3, 4, 5)

# weight cutoff per workload; "smoke" runs every shape at M=2 in seconds
MAX_WEIGHT = {
    "full": {"s3-verify": 10, "s3-spectra": 12, "lens-sweep": 8},
    "smoke": {"s3-verify": 2, "s3-spectra": 2, "lens-sweep": 2},
}


@dataclass(frozen=True)
class Op:
    """One `rumin` invocation and what its output is checked against."""

    command: str  # verify | spectrum | torsion
    argv: Tuple[str, ...]
    reference: Optional[str] = None  # reference file name for spectrum tables


def _eighths(rng: random.Random, lo: int, hi: int) -> List[float]:
    """Three distinct values a + j/8 with a in [lo, hi] and odd j."""
    pool = [a + j / 8 for a in range(lo, hi + 1) for j in (1, 3, 5, 7)]
    return rng.sample(pool, 3)


def draw_samples(seed: int) -> Tuple[List[float], List[float]]:
    """(t_samples in [1.125, 9.875], s_grid in [2.125, 5.875]) for a seed."""
    rng = random.Random(seed)
    return _eighths(rng, 1, 9), _eighths(rng, 2, 5)


def reference_name(op: str, model: str, max_weight: int) -> str:
    return f"{model}-m{max_weight}-{op}.json"


def build_ops(workload: str, seed: int, scale: str = "full") -> List[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    m = str(MAX_WEIGHT[scale][workload])
    t_samples, s_grid = draw_samples(seed)
    common = (
        "--max-weight", m,
        "--t-samples", ",".join(repr(t) for t in t_samples),
        "--s-grid", ",".join(repr(s) for s in s_grid),
    )
    s3 = ("--model", "s3")
    ops: List[Op] = []
    if workload == "s3-verify":
        ops.append(Op("verify", ("verify", "--suite", "all") + s3 + common))
    elif workload == "s3-spectra":
        for name in ("delta-rn", "delta-dr"):
            ops.append(
                Op(
                    "spectrum",
                    ("spectrum", "--op", name, "--format", "json") + s3 + common,
                    reference_name(name, "s3", int(m)),
                )
            )
        ops.append(Op("torsion", ("torsion", "--format", "json") + s3 + common))
    else:
        for p in LENS_ORDERS:
            for l in range(p):
                lens = ("--model", "lens", "--p", str(p), "--character", str(l))
                ops.append(Op("verify", ("verify", "--suite", "all") + lens + common))
                ops.append(Op("torsion", ("torsion", "--format", "json") + lens + common))
    random.Random(seed).shuffle(ops)
    return ops


# the one-shot baseline of run.py --baseline: each subcommand once per cutoff
BASELINE_WEIGHTS = (6, 10)
BASELINE_COLUMNS = ("verify", "torsion", "delta-rn", "delta-dr")


def baseline_ops() -> List[Tuple[int, str, Op]]:
    out = []
    for m in BASELINE_WEIGHTS:
        s3 = ("--model", "s3", "--max-weight", str(m), "--format", "json")
        out.append((m, "verify", Op("verify", ("verify", "--suite", "all") + s3)))
        out.append((m, "torsion", Op("torsion", ("torsion",) + s3)))
        for name in ("delta-rn", "delta-dr"):
            out.append((m, name, Op("spectrum", ("spectrum", "--op", name) + s3)))
    return out
