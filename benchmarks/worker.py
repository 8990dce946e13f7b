"""Runs one workload in-process through `ruminlab.cli.main` and prints a JSON result.

`run.py` starts this file in a fresh process with BLAS pinned to one thread
and `src/` of the checkout on the path; it is not meant to be run by hand.
Passes over the workload's ops repeat until the time budget is spent.  With
tracing, plain and traced passes alternate, so the tracing overhead is
measured within one process.  The result is the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ruminlab import cli  # noqa: E402

if not Path(cli.__file__).resolve().is_relative_to(SRC_DIR):
    raise SystemExit(f"ruminlab was imported from {cli.__file__}, not from {SRC_DIR}")


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_op(op: workloads.Op, reference):
    """(seconds, output text, problems) of one in-process `rumin` invocation."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception:  # an op that raises counts as failed; the pass goes on
        return time.perf_counter() - t0, "", [traceback.format_exc(limit=3)]
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    return seconds, text, oracle.check_output(op.command, code, text, reference)


def check_stats(command: str, text: str):
    """(number of checks, worst residual/tolerance) in a verify or torsion report."""
    if command == "spectrum" or not text:
        return 0, 0.0
    checks = json.loads(text).get("checks", [])
    # exact checks (tolerance 0) of a passing report have residual 0
    margins = [float(c["residual"]) / float(c["tolerance"]) for c in checks if float(c["tolerance"]) > 0]
    return len(checks), max(margins, default=0.0)


def run_pass(ops, references, tracer=None):
    by_command = {"verify": 0.0, "spectrum": 0.0, "torsion": 0.0}
    record = {"wall_s": 0.0, "by_command": by_command, "op_s": [], "failures": [],
              "output_bytes": 0, "checks": 0, "worst_margin": 0.0}
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = i
            seconds, text, problems = run_op(op, references.get(op.reference))
            record["wall_s"] += seconds
            by_command[op.command] += seconds
            record["op_s"].append(seconds)
            record["output_bytes"] += len(text.encode())
            if problems:
                record["failures"].append({"op": " ".join(op.argv), "problems": problems[:5]})
            n, worst = check_stats(op.command, text) if not problems else (0, 0.0)
            record["checks"] += n
            record["worst_margin"] = max(record["worst_margin"], worst)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return record


def per_layer(plain, traced, summary) -> dict:
    """The per-layer metrics of BENCHMARK.json from a traced pass and its summary."""
    calls = summary["calls"]

    def total(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    flops = summary["flops"]
    metrics = {f"{g}.self_s": (v, "s") for g, v in summary["self_s"].items()}
    metrics.update(
        {
            "trace.unattributed_s": (summary["unattributed_s"], "s"),
            "trace.wall_s": (traced["wall_s"], "s"),
            "trace.overhead_s": (
                traced["wall_s"] - statistics.median(p["wall_s"] for p in plain), "s"
            ),
            "trace.spans": (summary["spans"], "count"),
            "exterior.calls": (total("exterior."), "count"),
            "model.blocks.calls": (calls.get("model.ModelManifold.blocks", 0), "count"),
            "model.block_dim_sum": (summary["block_dim_sum"], "count"),
            "operators.dT_full.calls": (calls.get("operators.BlockContext.dT_full", 0), "count"),
            "operators.fiber_tables.calls": (
                calls.get("operators.BlockContext.fiber_matrix_from_images", 0), "count"
            ),
            "operators.recompute_ratio": (
                summary["builder_calls"] / max(1, summary["builder_keys"]), "ratio"
            ),
            "linalg.kron.bytes": (summary["kron_bytes"], "B_computed"),
            "cli.output_bytes": (traced["output_bytes"], "B"),
            "spectral.checks": (traced["checks"], "count"),
            "spectral.worst_margin": (traced["worst_margin"], "ratio"),
        }
    )
    for op in ("svd", "eigh", "eigvalsh", "kron"):
        metrics[f"linalg.{op}.calls"] = (calls.get(f"linalg.{op}", 0), "count")
    for op in ("svd", "eigh", "eigvalsh"):
        metrics[f"linalg.{op}.flops"] = (flops.get(f"linalg.{op}", 0), "flop_computed")
    for command in ("verify", "spectrum", "torsion"):
        metrics[f"{command}_s"] = (
            statistics.median(p["by_command"][command] for p in plain), "s"
        )
    return metrics


def baseline() -> int:
    table, failures = {}, []
    for m, column, op in workloads.baseline_ops():
        # spectrum tables at these cutoffs have no reference: exit code and JSON are checked
        seconds, _text, problems = run_op(op, None)
        table.setdefault(m, {})[column] = seconds
        if problems:
            failures.append({"op": " ".join(op.argv), "problems": problems})
    print(json.dumps({"baseline": table, "failures": failures}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.MAX_WEIGHT), default="full")
    ap.add_argument("--spans", help="file for the spans of the reported traced pass")
    ap.add_argument("--perturb-reference", action="store_true",
                    help="move one eigenvalue of each reference table by 1e-6 relative (oracle self-test)")
    ap.add_argument("--baseline", action="store_true", help="time each op of workloads.baseline_ops() once")
    args = ap.parse_args(argv)
    if args.baseline:
        return baseline()
    if args.workload is None:
        ap.error("--workload is required")

    ops = workloads.build_ops(args.workload, args.seed, args.scale)
    references = {op.reference: oracle.load_reference(op.reference) for op in ops if op.reference}
    if args.perturb_reference:
        for ref in references.values():
            row = ref["entries"][len(ref["entries"]) // 2]
            row["eigenvalue"] = repr(float(row["eigenvalue"]) * (1 + 1e-6) + 1e-6)

    plain, traced = [], []
    kinds = ["plain", "traced"] if args.trace else ["plain"]
    t_begin = time.perf_counter()
    while True:
        kind = kinds[(len(plain) + len(traced)) % len(kinds)]
        if kind == "plain":
            plain.append(run_pass(ops, references))
            if len(plain) == 1:
                # the peak of one sequence of the ops, as a fresh `rumin` process
                # would see it; later passes only add allocator carry-over
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            tracer = spans.Tracer()
            rec = run_pass(ops, references, tracer)
            rec["tracer"] = tracer
            traced.append(rec)
        elapsed = time.perf_counter() - t_begin
        nxt = kinds[(len(plain) + len(traced)) % len(kinds)]
        done = plain if nxt == "plain" else traced
        estimate = (done or plain)[-1]["wall_s"]
        if (not args.trace or traced) and elapsed + estimate > args.seconds:
            break

    passes = plain + traced
    result = {
        "ops": [" ".join(op.argv) for op in ops],
        "attempted": len(ops) * len(passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:10],
        "plain_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "op_s": [p["op_s"] for p in plain],
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "numpy_config": np.show_config(mode="dicts").get("Build Dependencies", {}),
    }
    if traced:
        # report the traced pass of median wall time, so its layer times add up
        rep = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
        summary = rep["tracer"].summary(rep["wall_s"])
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer(plain, rep, summary).items()}
        result["calls"] = summary["calls"]
        if args.spans:
            rep["tracer"].write(args.spans, result["ops"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
