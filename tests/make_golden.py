"""Writes the golden reports that `test_golden.py` replays.

    python3 tests/make_golden.py

Runs `verify --suite all`, the four `spectrum` operators and `torsion`, in
JSON, on s3 and every lens(p, l), p = 2..5, at M = 0..12, and one failing
run, `verify --suite all` on s3 at M=3 with `--tol 1e-30` (1,171 runs in one
process), and writes what each run must keep to `golden/reports.json.gz`.
Stored exactly: the exit code, every check's name, tolerance, pass flag and
detail, every spectrum row's degree, block, multiplicity and bidegree, the
torsion dimensions, outcomes and flags, and the name, tolerance and detail
of every stderr FAIL line.  Stored as numbers, compared within
REL_TOL * max(1, |golden|): eigenvalues, nu, lambda10, lambda01, the cutoffs
and the torsion sums.  Check residuals are not stored: they are rounding,
which BLAS may move in the last digits.

Regenerate only when a change is meant to alter a report.  Before writing,
the script prints every run that differs from the committed file, with its
first differences, and then their count; it prints nothing of the kind when
no run changed.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ruminlab import cli  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json.gz"
REL_TOL = 1e-9
MODELS = ["--model s3"] + [f"--model lens --p {p} --character {l}" for p in range(2, 6) for l in range(p)]
COMMANDS = ["verify --suite all"] + [f"spectrum --op {op}" for op in ("delta-rn", "delta-dr", "delta-t", "delta-b")]
COMMANDS.append("torsion")
MAX_WEIGHTS = range(13)
# every check misses a tolerance of 1e-30 unless its residual is exactly 0, so the run exits 1
FAILING = {"--model s3": ["verify --suite all --model s3 --max-weight 3 --tol 1e-30 --format json"]}
FAIL_LINE = re.compile(r"FAIL (.*): residual \S+ > tolerance (\S+) (.*)")  # the line of `cli._list_failures`

CHECK_FIELDS = ("name", "tolerance", "passed", "detail")  # every field of a check but its residual
ROW_FIELDS = ("degree", "block", "multiplicity", "bidegree")  # compared exactly
VALUE_FIELDS = ("eigenvalue", "nu", "lambda10", "lambda01")  # compared within REL_TOL
FLOAT_MAPS = ("kappa_from_reeb", "kappa_from_spectrum", "zeta_partials")


def grid(model: str):
    """The argument strings of every run of one model, in the order they are run."""
    runs = [f"{command} {model} --max-weight {m} --format json" for m in MAX_WEIGHTS for command in COMMANDS]
    return runs + FAILING.get(model, [])


def _number(text):
    return None if text is None else float(text)


def kept(doc: dict) -> dict:
    """What the golden file stores of one JSON report: checks and spectrum rows as lists of their
    stored fields, and every printed float as a number."""
    out = dict(doc)
    if "checks" in doc:
        out["checks"] = [[check[f] for f in CHECK_FIELDS] for check in doc["checks"]]
    if "entries" in doc:
        rows = doc["entries"]
        out["entries"] = [[row[f] for f in ROW_FIELDS] + [_number(row[f]) for f in VALUE_FIELDS] for row in rows]
    if "cutoff" in doc:
        out["cutoff"] = _number(doc["cutoff"])
    if "s_grid" in doc:
        out["s_grid"] = [_number(s) for s in doc["s_grid"]]
    for key in FLOAT_MAPS:
        if key in doc:
            out[key] = {name: _number(value) for name, value in doc[key].items()}
    return out


def stderr_lines(text: str) -> list:
    """Every stderr line of a run: a FAIL line as [name, tolerance, detail], without its residual;
    any other line as [the line]."""
    lines = []
    for line in text.splitlines():
        match = FAIL_LINE.fullmatch(line)
        lines.append(list(match.groups()) if match else [line])
    return lines


def run(args: str):
    """[args, exit code, `kept` of its JSON report, or None if it printed none, `stderr_lines`] of
    one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args.split())
    text = out.getvalue()
    return [args, code, kept(json.loads(text)) if text.strip() else None, stderr_lines(err.getvalue())]


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _tree_differences(got, want, path: str):
    """Where two stored values differ: floats beyond REL_TOL, anything else at all."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if _close(got, want) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in _tree_differences(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} items != {len(want)}"]
        return [d for i, (a, b) in enumerate(zip(got, want)) for d in _tree_differences(a, b, f"{path}[{i}]")]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def _row_differences(got, want):
    """Spectrum rows are matched within groups equal in every exact field, since rows whose
    values tie up to rounding may print in either order."""
    groups = defaultdict(list)
    for row in got:
        groups[tuple(row[: len(ROW_FIELDS)])].append(row[len(ROW_FIELDS):])
    problems = []
    for row in want:
        group, values = groups[tuple(row[: len(ROW_FIELDS)])], row[len(ROW_FIELDS):]
        hit = next((i for i, v in enumerate(group) if all(map(_close, v, values))), None)
        if hit is None:
            problems.append(f"entries: no row matches {row}")
        else:
            group.pop(hit)
    extra = sum(len(group) for group in groups.values())
    return problems + ([f"entries: {extra} rows not in the golden file"] if extra else [])


def differences(got, want):
    """Where a replayed run differs from its golden run; empty when they agree."""
    (args, code, doc, lines), (_, want_code, want_doc, want_lines) = got, want
    problems = [] if code == want_code else [f"exit code {code} != {want_code}"]
    if lines != want_lines:
        problems += [f"stderr line {i}: {a} != {b}" for i, (a, b) in enumerate(zip(lines, want_lines)) if a != b]
        problems += [f"stderr: {len(lines)} lines != {len(want_lines)}"] if len(lines) != len(want_lines) else []
    if doc is None or want_doc is None:
        return problems + ([] if doc is want_doc else ["report: one of the runs printed none"])
    if doc.keys() != want_doc.keys():
        return problems + [f"report keys {sorted(doc)} != {sorted(want_doc)}"]
    for key in want_doc:
        if key == "entries":
            problems += _row_differences(doc[key], want_doc[key])
        else:
            problems += _tree_differences(doc[key], want_doc[key], key)
    return problems


def load() -> dict:
    """The golden runs, by their argument strings."""
    with gzip.open(GOLDEN, "rt") as fh:
        return {item[0]: item for item in json.load(fh)["runs"]}


def report_moves(runs: list, committed: dict) -> None:
    """Print every run that differs from the committed file, with its first differences, and then
    their count; nothing when no run changed."""
    moved = {}
    for item in runs:
        want = committed.get(item[0])
        found = ["not in the committed file"] if want is None else differences(item, want)
        if found:
            moved[item[0]] = found
    for args in sorted(committed.keys() - {item[0] for item in runs}):
        moved[args] = ["no longer run"]
    for args, found in moved.items():
        print(f"{args}: {'; '.join(found[:3])}")
    if moved:
        print(f"{len(moved)} runs moved")


def main() -> int:
    runs = [run(args) for model in MODELS for args in grid(model)]
    if GOLDEN.exists():
        report_moves(runs, load())
    text = json.dumps({"runs": runs}, separators=(",", ":"), sort_keys=True)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes(gzip.compress(text.encode(), mtime=0))
    print(f"wrote {len(runs)} runs to {GOLDEN.name}: {len(text)} bytes of JSON, {GOLDEN.stat().st_size} gzipped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
