"""Regenerates the reference spectrum tables that `oracle.py` compares against.

    python3 benchmarks/make_reference.py

Runs `rumin spectrum --format json` on s3 for both operators at the weight
cutoffs the workloads use (M=12, and M=2 for the smoke mode), single-threaded
like the benchmark, and writes one JSON file per table into reference/.
Regenerate only when a change is meant to alter a spectrum.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("RUMIN_THREADS", None)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oracle import REFERENCE_DIR  # noqa: E402
from ruminlab import cli  # noqa: E402
from workloads import MAX_WEIGHT, reference_name  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for m in sorted({MAX_WEIGHT["full"]["s3-spectra"], MAX_WEIGHT["smoke"]["s3-spectra"]}):
        for op in ("delta-rn", "delta-dr"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["spectrum", "--op", op, "--model", "s3", "--max-weight", str(m), "--format", "json"])
            if code != 0:
                raise SystemExit(f"spectrum {op} M={m} exited with {code}")
            path = REFERENCE_DIR / reference_name(op, "s3", m)
            path.write_text(json.dumps(json.loads(out.getvalue()), indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
