"""Reeb-sector stacks against the dense block assembly they replace in `rumin spectrum` and in
the joint eigenspaces of the sec4 suite.  Both routes lay their sectors out as a padded
`sectors.RowStack`."""

import functools

import numpy as np
import pytest

from dense_reference import (
    SPECTRUM_OPS,
    dense_q_decomposition,
    half_laplacian_sectors,
    operator_pair,
    spectrum_degrees,
)
from ruminlab import operators
from ruminlab.model import lens_space, su2_block, su2_model
from ruminlab.operators import BlockContext, InternalConsistencyError, max_abs
from ruminlab.rows import solve_rows
from ruminlab.sectors import SPECTRUM_FLAVOR, SectorStacks
from ruminlab.spectral import Assembly, _reeb_sectors, principal_sines, q_decomposition

MAX_WEIGHT = 12
T = 0.1
MODELS = [su2_model()] + [lens_space(p, character=l) for p in range(2, 6) for l in range(p)]
MODEL_IDS = ["s3"] + [f"lens{p}-{l}" for p in range(2, 6) for l in range(p)]


@functools.lru_cache(maxsize=None)
def _context(m: int) -> BlockContext:
    """The block operators of weight m act on the slot alone, so every model shares them."""
    return BlockContext(su2_model().frame, su2_block(m))


@functools.lru_cache(maxsize=None)
def _dense_cut(op: str, m: int, k: int):
    """`_reeb_sectors` of the dense pair, with the dense half-Laplacian sectors where `spectrum` reads them."""
    ctx = _context(m)
    lap, ilt = operator_pair(ctx, op, k, T)
    sectors = _reeb_sectors([(lap, ilt)], 1e-9)
    halves = half_laplacian_sectors(ctx, k, sectors) if op == "delta-rn" and k == 0 else None
    return sectors, halves, max(1.0, max_abs(lap))


def _compressed(rows, sel, *stacks):
    """The sectors `sel` of a `RowStack` with their valid positions moved to the front, in order:
    their valid flags and basis indices (f, n), and the (f, f, n) blocks of every stack."""
    front = np.argsort(~rows.valid[:, sel], axis=0, kind="stable")
    take = lambda a: np.take_along_axis(a[:, sel], front, axis=0)
    blocks = [stack[front[:, None, :], front[None, :, :], sel] for stack in stacks]
    return take(rows.valid), take(rows.index), blocks


def _assert_blocks_close(got, want, scale):
    assert got.shape == want.shape
    assert max_abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("op", SPECTRUM_OPS)
@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_sector_stacks_equal_the_dense_sector_cut(model, op):
    """The sectors in use of every weight in the stacks' rows equal the `_reeb_sectors` cut of the
    dense pair, sector by sector: tau, the valid positions and the basis indices exactly, the
    blocks within 1e-12 * max(1, max |Laplacian entry|), and the half-Laplacian blocks and scale
    where `spectrum` reads them.  A sector of the stacks in no use has no dense sector."""
    weights = [m for m in range(MAX_WEIGHT + 1) if model.multiplicity(m)]
    stacks = SectorStacks(model.frame, weights)
    for k in spectrum_degrees(op):
        rows, labels = stacks.spectrum_rows(op, k, T)
        assert rows.dims.size == len(weights) and np.array_equal(rows.starts, stacks.starts)
        assert len(labels) == rows.valid.shape[0] == stacks.fibers.space_fiber(k, SPECTRUM_FLAVOR[op]).shape[1]
        for w, m in enumerate(weights):
            dense, dense_halves, scale = _dense_cut(op, m, k)
            assert rows.dims[w] == dense.dims[0]
            mine = np.arange(rows.starts[w], rows.starts[w + 1])
            mine = mine[rows.valid[:, mine].any(axis=0)]
            assert mine.size == dense.tau.size
            assert rows.tau.dtype == dense.tau.dtype and np.array_equal(rows.tau[mine], dense.tau)
            stacks_in_use = (rows.stack, *(rows.halves[:2] if rows.halves is not None else ()))
            valid, index, blocks = _compressed(rows, mine, *stacks_in_use)
            f = dense.valid.shape[0]
            assert not valid[f:].any()
            assert np.array_equal(valid[:f], dense.valid)
            assert np.array_equal(index[:f][dense.valid], dense.index[dense.valid])
            _assert_blocks_close(blocks[0][:f, :f], dense.stack, scale)
            assert (rows.halves is None) == (dense_halves is None)
            if dense_halves is not None:
                (da, db), dense_scale = dense_halves
                _assert_blocks_close(blocks[1][:f, :f], da, dense_scale)
                _assert_blocks_close(blocks[2][:f, :f], db, dense_scale)
                assert rows.halves[2][w] == pytest.approx(dense_scale, rel=1e-12)


@pytest.mark.parametrize("max_weight", [0, 3, MAX_WEIGHT])
@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_q_decomposition_equals_the_dense_reference_route(model, max_weight):
    """The components of every block below the middle degree, read from the assembly's sector
    rows, come in the order of the dense route, with the same (lambda10, lambda01), and span
    the same spaces: the largest principal sine is at most 1e-12."""
    asm = Assembly(model, max_weight)
    assert asm.weights == [ctx.block.weight for ctx in asm.contexts]
    for ctx in asm.contexts:
        for k in range(ctx.n):
            comps, dense = q_decomposition(asm, ctx.block.weight, k), dense_q_decomposition(ctx, k)
            assert [(c.lambda10, c.lambda01) for c in comps] == [(c.lambda10, c.lambda01) for c in dense]
            for got, want in zip(comps, dense):
                assert got.basis.shape == want.basis.shape
                assert principal_sines(got.basis, want.basis) <= 1e-12


@pytest.mark.parametrize("op", SPECTRUM_OPS)
def test_bidegree_labels_follow_the_dense_basis_columns(op):
    """Each fiber vector's label is the bidegree that carries its dense basis columns."""
    stacks = SectorStacks(su2_model().frame, [3])
    ctx = _context(3)
    flavor = SPECTRUM_FLAVOR[op]
    for k in spectrum_degrees(op):
        labels = stacks.bidegree_labels(k, flavor)
        embed = ctx.space(k, flavor).embed
        for column, label in zip(embed.T[:: ctx.block.slot_dim], labels):
            vert = label.startswith("theta")
            i, j = (int(x) for x in label[label.index("(") + 1 : -1].split(","))
            mask = ctx.bidegree_mask(k, i, j, vert)
            assert np.sum(mask * np.abs(column) ** 2) == pytest.approx(1.0, abs=1e-12)


def _spoiled_tables(frame, a: int, k: int, row: int, col: int, eps: float = 1e-9):
    """Fiber tables of `frame` whose wedge fiber of field a in degree k has `eps` added at (row, col)."""
    tables: dict = {}
    ctx = BlockContext(frame, su2_block(0), tables)
    wedge = ctx._wedge_fiber(a, k).copy()
    wedge[row, col] += eps
    tables["BlockContext._wedge_fiber", (a, k)] = wedge
    return tables


def test_an_off_sector_wedge_fiber_entry_raises():
    """A 1e-9 coefficient that couples fiber vectors of equal Reeb weight through a ladder field fails."""
    frame = su2_model().frame
    stacks = SectorStacks(frame, range(4))
    rho_in, rho_out = stacks.space(1).rho, stacks.space(2).rho
    # X acts through J_plus and J_minus only, which shift the slot; equal weights cannot couple
    row, col = next((o, i) for o in range(rho_out.size) for i in range(rho_in.size) if rho_out[o] == rho_in[i])
    assert _context(0)._wedge_fiber(1, 1)[row, col] == 0
    spoiled = SectorStacks(frame, range(4), _spoiled_tables(frame, 1, 1, row, col))
    with pytest.raises(InternalConsistencyError, match="leaves its Reeb sector"):
        spoiled.spectrum_rows("delta-dr", 1)
    # the same entry of the T wedge fiber shifts no slot and keeps its sector
    SectorStacks(frame, range(4), _spoiled_tables(frame, 0, 1, row, col)).spectrum_rows("delta-dr", 1)


def test_spoiled_tables_leave_the_shared_tables_clean():
    """The spoiled tables are private dicts: after them, fresh stacks read the shared tables of the
    frame, which hold what a context with private tables computes."""
    test_an_off_sector_wedge_fiber_entry_raises()
    frame = su2_model().frame
    stacks = SectorStacks(frame, range(4))
    stacks.spectrum_rows("delta-dr", 1)
    shared = stacks.fibers._tables
    assert shared is operators.frame_tables(frame)
    private = BlockContext(frame, None, {})
    arrays = 0
    for key, value in list(shared.items()):
        if isinstance(value, np.ndarray):
            qualname, args = key
            assert np.array_equal(value, getattr(private, qualname.split(".")[-1])(*args)), key
            arrays += 1
    assert arrays and ("BlockContext._wedge_fiber", (1, 1)) in shared


def test_empty_weight_list_gives_no_rows():
    stacks = SectorStacks(su2_model().frame, [])
    for op in SPECTRUM_OPS:
        for k in spectrum_degrees(op):
            rows, _ = stacks.spectrum_rows(op, k, T)
            assert rows.dims.size == 0 and rows.stack.shape[2] == 0
            assert solve_rows(rows).owner.size == 0
