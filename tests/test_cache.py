"""Shared fiber tables and per-block caches against freshly built operators.

An `Assembly` hands one dict of per-frame fiber tables to all of its block
contexts, and each context caches its full-space matrices.  These tests check
that the sharing and the caching change no matrix and no report, that cached
arrays cannot be written, and that the lift fib (x) I_d equals np.kron.
"""

import numpy as np
import pytest

from ruminlab import cli, spectral
from ruminlab.model import ModelManifold, lens_space, su2_model
from ruminlab.operators import BlockContext
from ruminlab.spectral import Assembly

FIBERS = ("theta", "iota", "lef", "lam", "star", "jact", "prim", "horiz", "dmon", "rot")
MODELS = [su2_model(), lens_space(3, character=1)]


@pytest.mark.parametrize("d", [1, 2, 7])
def test_lift_equals_kron_with_identity(s3, d):
    ctx = BlockContext(s3.frame, s3.block(d - 1))
    assert ctx.block.slot_dim == d
    eye = np.eye(d, dtype=complex)
    for name in FIBERS:
        for k in range(4):
            fib = ctx._fiber(name, k)
            lifted, expected = ctx._lift(fib), np.kron(fib, eye)
            assert lifted.dtype == expected.dtype
            assert np.array_equal(lifted, expected), (name, k)


def test_contexts_of_one_assembly_share_fiber_tables():
    asm = Assembly(lens_space(3, character=1), 4)
    first, last = asm.contexts[0], asm.contexts[-1]
    assert first.block.weight != last.block.weight
    assert first._fiber("theta", 1) is last._fiber("theta", 1)
    assert first._wedge_fiber(1, 1) is last._wedge_fiber(1, 1)
    assert first.mons(2) is last.mons(2)
    # tables live as long as their assembly: a second assembly builds its own
    other = Assembly(lens_space(3, character=1), 4).contexts[0]
    assert other._fiber("theta", 1) is not first._fiber("theta", 1)


def test_private_tables_without_an_assembly(s3):
    a, b = BlockContext(s3.frame, s3.block(1)), BlockContext(s3.frame, s3.block(2))
    assert a._fiber("theta", 1) is not b._fiber("theta", 1)
    assert np.array_equal(a._fiber("theta", 1), b._fiber("theta", 1))


def test_tables_of_another_frame_rejected(s3):
    tables = {}
    BlockContext(s3.frame, s3.block(1), tables)
    with pytest.raises(ValueError):
        BlockContext(su2_model().frame, s3.block(1), tables)


def test_cutoff_probe_shares_tables_and_builds_only_probed_weights(monkeypatch):
    model = lens_space(3, character=1)
    asm = Assembly(model, 3)
    seen, built = [], []

    def spy_context(frame, block, tables=None):
        seen.append(tables)
        return BlockContext(frame, block, tables)

    original_block = ModelManifold.block
    monkeypatch.setattr(spectral, "BlockContext", spy_context)
    monkeypatch.setattr(ModelManifold, "blocks", lambda self, mw: pytest.fail("probe built every block"))
    monkeypatch.setattr(ModelManifold, "block", lambda self, w: built.append(w) or original_block(self, w))
    asm.spectral_cutoff()
    assert seen and all(t is asm._tables for t in seen)
    assert built == list(range(asm.max_weight + 1, asm.max_weight + 1 + len(built)))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.name}{m.p}")
def test_shared_tables_change_no_matrix(model):
    asm = Assembly(model, 4)
    for shared in asm.contexts:
        private = BlockContext(model.frame, shared.block)
        assert private._tables is not shared._tables
        for k in asm.degrees:
            for method in ("d0_full", "dT_full", "db_full"):
                assert np.array_equal(getattr(shared, method)(k), getattr(private, method)(k)), (method, k)
            for method in ("laplacian_rn", "laplacian_de_rham"):
                a, b = getattr(shared, method)(k).matrix, getattr(private, method)(k).matrix
                assert np.array_equal(a, b), (method, k)


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command", [["verify", "--suite", "all"], ["torsion", "--format", "json"]])
def test_reports_byte_equal_with_private_tables(capsys, monkeypatch, command):
    argv = command + ["--model", "lens", "--p", "3", "--character", "1", "--max-weight", "4"]
    shared = _run(capsys, argv)
    monkeypatch.setattr(spectral, "BlockContext", lambda frame, block, tables=None: BlockContext(frame, block))
    private = _run(capsys, argv)
    assert shared[0] == 0 and shared[1].startswith("{")
    assert shared == private


@pytest.mark.parametrize(
    "getter",
    [
        lambda c: c._fiber("theta", 1),
        lambda c: c._wedge_fiber(0, 1),
        lambda c: c._norms(1),
        lambda c: c.lifted_fiber("horiz", 1),
        lambda c: c.space(1, "rumin").embed,
        lambda c: c.d_full(1),
        lambda c: c.d0_full(1),
        lambda c: c.dT_full(1),
        lambda c: c.db_full(1),
        lambda c: c.lie_reeb_full(1),
        lambda c: c.del_full(0),
        lambda c: c.laplacian_rn(1).matrix,
        lambda c: c.laplacian_de_rham(1).matrix,
    ],
    ids=[
        "fiber", "wedge_fiber", "norms", "lifted_fiber", "embed", "d", "d0", "dT", "db", "lie_reeb", "del",
        "laplacian_rn", "laplacian_de_rham",
    ],
)
def test_cached_arrays_are_read_only(s3, getter):
    ctx = BlockContext(s3.frame, s3.block(2))
    cached = getter(ctx)
    before = cached.copy()
    with pytest.raises(ValueError):
        cached[(0,) * cached.ndim] = 1  # for "db": ctx.db_full(1)[0, 0] = 1
    assert np.array_equal(getter(ctx), before)
