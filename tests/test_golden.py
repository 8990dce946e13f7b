"""Every report of the golden grid (`make_golden.py`) is unchanged: its exit code, check names,
tolerances, pass flags and details, spectrum rows and torsion fields exactly, and every printed
value within 1e-9 * max(1, |golden|).  The grid is replayed in this process, model by model."""

import functools

import pytest

import make_golden


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return make_golden.load()


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
