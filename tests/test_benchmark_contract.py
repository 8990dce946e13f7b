"""Every ruminlab name that the benchmark tracer patches still exists.

benchmarks/spans.py wraps the functions and methods it lists by name and
silently skips a name it cannot find, so a rename in ruminlab would drop a
layer from the traced per-layer metrics.  The tracer module is compiled from
its source text, so the test writes nothing under benchmarks/.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    mod = types.ModuleType("benchmark_spans")
    mod.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), mod.__dict__)
    return mod


def _module(short):
    return importlib.import_module(f"ruminlab.{short}")


def test_traced_methods_exist(spans):
    missing = []
    for (short, cls_name), methods in spans.METHODS.items():
        cls = getattr(_module(short), cls_name, None)
        for attr in methods:
            # the tracer wraps only functions defined on the class itself
            if cls is None or not inspect.isfunction(cls.__dict__.get(attr)):
                missing.append(f"{short}.{cls_name}.{attr}")
    assert not missing


def test_traced_private_functions_exist(spans):
    missing = [
        f"{short}.{name}"
        for short, names in spans.PRIVATE_FUNCTIONS.items()
        for name in names
        if not inspect.isfunction(getattr(_module(short), name, None))
    ]
    assert not missing


def test_grouped_names_exist(spans):
    """Names that the per-layer groups and suite timings are keyed on."""
    missing = []
    for name in spans.GROUP_OF:
        short, *path = name.split(".")
        if short not in spans.MODULES:
            continue  # numpy entry points
        obj = _module(short)
        for part in path:
            obj = getattr(obj, part, None)
        if not inspect.isfunction(obj):
            missing.append(name)
    assert not missing
