"""ruminlab benchmark: times the `rumin` subcommands and traces them layer by layer.

    python3 benchmarks/run.py --workload s3-verify --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --smoke                 # every workload shape at M=2
    python3 benchmarks/run.py --baseline              # one-shot subcommand times at M=6, 10
    python3 benchmarks/run.py --self-test [--scale full]

A workload run (see workloads.py for the three workloads) starts worker.py in
a fresh process with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, RUMIN_THREADS
unset and the checkout's src/ on the path, so it is a plain single-threaded
baseline.  The worker calls `ruminlab.cli.main` in-process, pass after pass
over the workload's ops, for --seconds, and checks every output (exit code,
`"passed": true`, spectrum tables against reference/).  The last line of
stdout is a JSON object with `correct`, `attempted`, `failed` and `metrics`:

* --trace 0: the end-to-end metrics of BENCHMARK.json: `wall_s` (median time
  of one pass over the ops), `setup_s` (median time a fresh interpreter takes
  to import ruminlab.cli, over SETUP_IMPORTS imports) and `peak_rss_mb`
  (peak resident memory of the worker after its first pass).
* --trace 1: the per-layer metrics, from the traced pass of median time (see
  spans.py), with the plain passes of the same process giving `verify_s`,
  `spectrum_s`, `torsion_s` and `trace.overhead_s`.

Each run also writes a record with provenance (CPU, nproc, Python, numpy,
BLAS and its thread count, git commit or source hash, seed) to
benchmarks/_runs/, and a traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
RUNS_DIR = BENCH_DIR / "_runs"
WORKER = BENCH_DIR / "worker.py"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

SETUP_IMPORTS = 11
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import ruminlab.cli; "
    "print(repr(time.perf_counter() - t0))"
)
# counts that two traced runs must reproduce exactly, with the same seed or not;
# cli.output_bytes is only compared at one seed, since the reports print the
# seed-drawn t and s values and their residuals
SEED_INVARIANT_UNITS = ("count", "flop_computed", "B_computed", "B")
SEED_DEPENDENT = ("cli.output_bytes",)


class BenchError(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("RUMIN_THREADS", None)
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def check_checkout() -> None:
    if not (SRC_DIR / "ruminlab" / "cli.py").is_file():
        raise BenchError(f"no ruminlab sources under {SRC_DIR}; run from a full checkout")


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 5:
        raise BenchError("out of time")
    return left


def measure_setup(env: dict, t_start: float) -> list:
    """Import times of ruminlab.cli in fresh interpreters, after one warm-up import."""
    times = []
    for i in range(SETUP_IMPORTS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=_remaining(t_start), check=True,
        ).stdout
        if i:
            times.append(float(out.strip().splitlines()[-1]))
    return times


def run_worker(args: list, env: dict, t_start: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=_remaining(t_start),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC_DIR / "ruminlab").rglob("*.py")):
        digest.update(path.relative_to(SRC_DIR).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def provenance(worker: dict, env: dict) -> dict:
    blas = worker.get("numpy_config", {}).get("blas", {})
    return {
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": worker.get("blas_threads"),
        "env": {k: env.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RUMIN_THREADS", "PYTHONHASHSEED")},
        **_source_identity(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str = "full",
                 extra: tuple = ()) -> dict:
    """One benchmark run: returns the result object printed as the last stdout line."""
    t_start = time.perf_counter()
    check_checkout()
    env = pinned_env()
    RUNS_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-{scale}-seed{seed}-trace{trace}"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(trace), "--scale", scale, *extra]
    if trace:
        # one spans file per workload, replaced by each traced run
        args += ["--spans", str(RUNS_DIR / f"{workload}-{scale}.spans.jsonl.gz")]
    worker = run_worker(args, env, t_start)
    if trace:
        metrics = worker["per_layer"]
    else:
        worker["setup_s"] = measure_setup(env, t_start)
        metrics = {
            "wall_s": {"value": statistics.median(worker["plain_wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(worker["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "provenance": provenance(worker, env), "worker": worker, "result": result,
    }
    (RUNS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


# -- smoke, self-test and baseline modes ------------------------------------------


def _declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
            1: {m["name"]: m["unit"] for m in doc["per_layer"]}}


def smoke() -> int:
    """Every workload shape at M=2, traced and not; every declared metric present with its unit."""
    declared = _declared_metrics()
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            res = run_workload(workload, 1, 0.5, trace, scale="smoke")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            problems = [f"{k}: {got.get(k)!r} != {u!r}" for k, u in declared[trace].items() if got.get(k) != u]
            problems += [f"undeclared metric {k}" for k in got if k not in declared[trace]]
            if not res["correct"]:
                problems.append(f"{res['failed']} of {res['attempted']} ops failed")
            ok &= not problems
            print(f"{'ok  ' if not problems else 'FAIL'} smoke {workload} trace={trace} "
                  f"ops={res['attempted']} {'; '.join(problems)}")
    return 0 if ok else 1


def self_test(scale: str) -> int:
    results = []

    def report(name: str, passed: bool, detail: str = "") -> None:
        results.append(passed)
        print(f"{'ok  ' if passed else 'FAIL'} {name} {detail}")

    # a perturbed reference row must fail the spectrum ops, and only them
    res = run_workload("s3-spectra", 1, 0.5, 0, scale, ("--perturb-reference",))
    per_pass = len(workloads.build_ops("s3-spectra", 1, scale))
    report("oracle catches a perturbed reference row",
           not res["correct"] and res["failed"] * per_pass == 2 * res["attempted"],
           f"failed={res['failed']} attempted={res['attempted']}")

    declared = _declared_metrics()[1]
    counts = [k for k, u in declared.items() if u in SEED_INVARIANT_UNITS or k == "operators.recompute_ratio"]
    for workload in workloads.WORKLOADS:
        runs = [run_workload(workload, seed, 0.5, 1, scale) for seed in (1, 1, 2)]
        report(f"{workload}: every op passes its check", all(r["correct"] for r in runs))
        runs = [r["metrics"] for r in runs]
        first, again, other = ({k: r[k]["value"] for k in counts} for r in runs)
        report(f"{workload}: counts repeat at one seed", first == again,
               str({k: (first[k], again[k]) for k in counts if first[k] != again[k]}))
        diff = {k: (first[k], other[k]) for k in counts if k not in SEED_DEPENDENT and first[k] != other[k]}
        report(f"{workload}: counts do not depend on the seed", not diff, str(diff))
        if len(workloads.build_ops(workload, 1, scale)) > 1:
            report(f"{workload}: the seed changes the op order",
                   workloads.build_ops(workload, 1, scale) != workloads.build_ops(workload, 2, scale))
        m = runs[0]
        total = sum(v["value"] for k, v in m.items() if k.endswith(".self_s")) + m["trace.unattributed_s"]["value"]
        wall = m["trace.wall_s"]["value"]
        report(f"{workload}: layer self times add up to the traced wall time",
               abs(total - wall) <= 1e-9 * wall, f"{total!r} vs {wall!r}")
    return 0 if all(results) else 1


def baseline() -> int:
    """One-shot times of each subcommand at M=6 and M=10, outside the repeated workloads."""
    t_start = time.perf_counter()
    check_checkout()
    env = pinned_env()
    worker = run_worker(["--baseline"], env, t_start)
    print(f"single-threaded BLAS, in-process ruminlab.cli.main, {_cpu_model()}, nproc={os.cpu_count()}")
    print("| M | verify --suite all | torsion | spectrum delta-rn | spectrum delta-dr |")
    print("|---|---|---|---|---|")
    for m, row in sorted(worker["baseline"].items(), key=lambda kv: int(kv[0])):
        print(f"| {m} | " + " | ".join(f"{row[c]:.2f} s" for c in workloads.BASELINE_COLUMNS) + " |")
    for failure in worker["failures"]:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    return 1 if worker["failures"] else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.WORKLOADS)
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--baseline", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.MAX_WEIGHT), default="smoke",
                    help="workload size for --self-test")
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must lie in (0, 120]")
    try:
        if args.smoke:
            return smoke()
        if args.self_test:
            return self_test(args.scale)
        if args.baseline:
            return baseline()
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    if not result["correct"]:
        sys.stderr.write(f"{result['failed']} of {result['attempted']} ops failed; see {RUNS_DIR}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
