"""Every report of the golden grid (`make_golden.py`) is unchanged: its exit code, check names,
tolerances, pass flags and details, spectrum rows and torsion fields exactly, and every printed
value within 1e-9 * max(1, |golden|).  The grid is replayed in this process, model by model.

The high-weight slice at M=200 (`make_golden.HIGH`, stored as `make_golden.kept_high` keeps it)
takes about 10 s, so its tests carry the `high_weight` mark, which the default run deselects
(pyproject.toml); run them with `python -m pytest -m high_weight tests/test_golden.py`."""

import functools

import pytest

import make_golden


@functools.lru_cache(maxsize=None)
def _golden(path=make_golden.GOLDEN) -> dict:
    return make_golden.load(path)


def test_the_golden_file_holds_the_whole_grid():
    want = {args for model in make_golden.MODELS for args in make_golden.grid(model)}
    assert set(_golden()) == want
    assert len(want) == 1171


@pytest.mark.parametrize("model", make_golden.MODELS, ids=lambda model: model.split(maxsplit=1)[1].replace(" ", ""))
def test_reports_equal_the_golden_reports(model):
    problems = {}
    for args in make_golden.grid(model):
        found = make_golden.differences(make_golden.run(args), _golden()[args])
        if found:
            problems[args] = found[:5]
    assert not problems, problems


@pytest.mark.high_weight
def test_the_high_weight_file_holds_the_slice():
    assert set(_golden(make_golden.HIGH_GOLDEN)) == set(make_golden.HIGH)
    assert len(make_golden.HIGH) == 7


@pytest.mark.high_weight
@pytest.mark.parametrize("args", make_golden.HIGH, ids=lambda args: " ".join(args.split()[:-4]).replace(" ", ""))
def test_high_weight_reports_equal_the_golden_reports(args):
    found = make_golden.differences(make_golden.run(args), _golden(make_golden.HIGH_GOLDEN)[args])
    assert not found, found[:5]
