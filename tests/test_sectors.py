"""Reeb-sector stacks against the dense block assembly they replace in `rumin spectrum` and in
the joint eigenspaces of the sec4 suite.  Both routes lay their sectors out as a padded
`sectors.RowStack`."""

import functools
from collections import Counter

import numpy as np
import pytest

from dense_reference import (
    SPECTRUM_OPS,
    dense_q_decomposition,
    half_laplacian_sectors,
    operator_pair,
    spectrum_degrees,
)
from ruminlab import cli, operators, sectors, suites
from ruminlab.model import lens_space, su2_block, su2_model
from ruminlab.operators import BlockContext, InternalConsistencyError, max_abs
from ruminlab.rows import solve_rows
from ruminlab.sectors import FIBER_PHASE, SPECTRUM_FLAVOR, SectorStacks, _hermitized, _product, _t
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
        rows, labels = stacks.spectrum_rows(op, k, T), stacks.bidegree_labels(k, SPECTRUM_FLAVOR[op])
        halves = stacks.half_laplacians(k) if op == "delta-rn" and k < stacks.n else None
        assert rows.dims.size == len(weights) and np.array_equal(rows.starts, stacks.starts)
        assert len(labels) == rows.valid.shape[0] == stacks.fibers.space_fiber(k, SPECTRUM_FLAVOR[op]).shape[1]
        for w, m in enumerate(weights):
            dense, dense_halves, scale = _dense_cut(op, m, k)
            assert rows.dims[w] == dense.dims[0]
            mine = np.arange(rows.starts[w], rows.starts[w + 1])
            mine = mine[rows.valid[:, mine].any(axis=0)]
            assert mine.size == dense.tau.size
            assert rows.tau.dtype == dense.tau.dtype and np.array_equal(rows.tau[mine], dense.tau)
            stacks_in_use = (rows.stack, *(halves[:2] if halves is not None else ()))
            valid, index, blocks = _compressed(rows, mine, *stacks_in_use)
            f = dense.valid.shape[0]
            assert not valid[f:].any()
            assert np.array_equal(valid[:f], dense.valid)
            assert np.array_equal(index[:f][dense.valid], dense.index[dense.valid])
            _assert_blocks_close(blocks[0][:f, :f], dense.stack, scale)
            assert (halves is None) == (dense_halves is None)
            if dense_halves is not None:
                (da, db), dense_scale = dense_halves
                _assert_blocks_close(blocks[1][:f, :f], da, dense_scale)
                _assert_blocks_close(blocks[2][:f, :f], db, dense_scale)
                assert halves[2][w] == pytest.approx(dense_scale, rel=1e-12)


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


full = lambda k: ((k + 1, "full"), (k, "full"))  # the (out, in) spaces of a map of full k-forms
rumin = lambda k, out: ((out, "rumin"), (k, "rumin"))
# memo name: (the phase of its stacks, its dense matrix on a block, its (out, in) spaces), from the memo's
# arguments; the frame of every model is su2's, with n = 1
DENSE_TWINS = {
    "SectorStacks.d": (1j, lambda ctx, k: ctx.d_full(k), full),
    "SectorStacks.d0": (1j, lambda ctx, k: ctx.d0_full(k), full),
    "SectorStacks.dT": (1j, lambda ctx, k: ctx.dT_full(k), full),
    "SectorStacks.db": (1j, lambda ctx, k: ctx.db_full(k), full),
    "SectorStacks.split_db": (1j, lambda ctx, k, anti: ctx.del_full(k, anti), lambda k, anti: full(k)),
    "SectorStacks.horizontal_db": (
        1j,
        lambda ctx, k: ctx.compress(ctx.db_full(k), ctx.horizontal_space(k), ctx.horizontal_space(k + 1)).matrix,
        lambda k: ((k + 1, "horizontal"), (k, "horizontal")),
    ),
    "SectorStacks.lie_reeb": (1j, lambda ctx, k: ctx.lie_reeb_full(k), lambda k: ((k, "full"), (k, "full"))),
    "SectorStacks.lie_reeb_rumin": (1j, lambda ctx, k: ctx.lie_reeb_rumin(k).matrix, lambda k: rumin(k, k)),
    "SectorStacks.rumin_d": (1j, lambda ctx, k: ctx.rumin_d(k).matrix, lambda k: rumin(k, k + 1)),
    "SectorStacks.rumin_del": (
        1j,
        lambda ctx, k, anti: ctx.rumin_del(k, anti).matrix,
        lambda k, anti: ((k + 1, "rumin" if k < 1 else "horizontal"), (k, "rumin")),  # n = 1
    ),
    "SectorStacks.embed": (1, lambda ctx, k, fl: ctx.space(k, fl).embed, lambda k, fl: ((k, "full"), (k, fl))),
    "SectorStacks.laplacian": (
        1,
        lambda ctx, op, k, t: operator_pair(ctx, op, k, t)[0],
        lambda op, k, t: ((k, SPECTRUM_FLAVOR[op]),) * 2,
    ),
}


def _dense_block(stacks, stack, out, inn, w: int) -> np.ndarray:
    """The weight block of weights[w] of a sector stack between the spaces `out` and `inn`, in the
    dense basis i*(m+1) + b: zero off the sectors."""
    m, sel = int(stacks.weights[w]), slice(stacks.starts[w], stacks.starts[w + 1])
    so, si = stacks.space(*out), stacks.space(*inn)
    both = so.valid[:, None, sel] & si.valid[None, :, sel]
    rows = (np.arange(so.dim)[:, None] * (m + 1) + so.slot[:, sel])[:, None, :]
    cols = (np.arange(si.dim)[:, None] * (m + 1) + si.slot[:, sel])[None, :, :]
    dense = np.zeros((so.dim * (m + 1), si.dim * (m + 1)))
    dense[np.broadcast_to(rows, both.shape)[both], np.broadcast_to(cols, both.shape)[both]] = stack[:, :, sel][both]
    return dense


def _arrays(value):
    """Every array inside a memoized value."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    else:
        for name in getattr(type(value), "__dataclass_fields__", ()):
            yield from _arrays(getattr(value, name))


def _lifted_fiber_twin(fiber: str, k: int, k_out: int, imag: bool):
    """The phase, dense twin and spaces of a lifted fiber table (`suites._fiber`); J mixes both
    phases, so its two parts are lifted apart."""
    phase = 1 if fiber == "jact" else FIBER_PHASE[fiber]
    part = (lambda a: a.imag if imag else a.real) if fiber == "jact" else (lambda a: a)
    return phase, lambda ctx, *_: part(ctx.lifted_fiber(fiber, k)), lambda *_: ((k_out, "full"), (k, "full"))


@pytest.mark.parametrize("max_weight", [0, 3, MAX_WEIGHT])
@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_every_stack_is_real_with_its_declared_phase(monkeypatch, model, max_weight):
    """After `verify --suite all` and every `spectrum` operator, every array that the stacks keep
    is real, and every kept stack with a dense twin, times its phase, is that twin on every weight
    block within 1e-12 of its largest entry; so is every nonempty lifted fiber table that the
    suites read (they keep none), with the table of J split into its real and imaginary parts,
    and the Kahler middle operator, which nothing keeps.  The comparison may build spaces into
    the memo, so it walks a snapshot, and every entry is checked again after it."""
    lifts = {}  # every lift that the suites read, by its arguments
    lift = suites._fiber

    def spy(stacks, fiber, k, k_out, imag=False):
        lifts[fiber, k, k_out, imag] = value = lift(stacks, fiber, k, k_out, imag)
        return value

    monkeypatch.setattr(suites, "_fiber", spy)
    asm = Assembly(model, max_weight)
    cli.run_suite(asm, "all", cli.RunConfig())
    stacks = asm.sector_stacks
    for op in SPECTRUM_OPS:
        for k in spectrum_degrees(op):
            stacks.spectrum_rows(op, k, T)

    def check_dtypes():
        for (name, args), value in [*stacks._cache.items(), *((("_fiber", a), v) for a, v in lifts.items())]:
            for array in _arrays(value):
                assert array.dtype.kind in "biuU" or array.dtype == np.float64, (name, args, array.dtype)

    check_dtypes()
    compared = set()
    twins = [(name, args, value) for (name, args), value in stacks._cache.items() if name in DENSE_TWINS]
    kept = [(name, args, value, *DENSE_TWINS[name]) for name, args, value in twins]
    nonempty = {args: value for args, value in lifts.items() if value.shape[0]}
    kept += [("_fiber", args, value, *_lifted_fiber_twin(*args)) for args, value in nonempty.items()]
    # the Kahler middle operator, which sec4 reads once and nothing keeps (the factored one is rumin_d(1))
    kahler = (1j, lambda ctx, v: ctx.middle_operator(v).matrix, lambda v: rumin(1, 2))
    kept.append(("middle_operator", ("kahler",), stacks.middle_operator("kahler"), *kahler))
    for name, args, value, phase, twin, spaces in kept:
        compared.add(name)
        for w, m in enumerate(stacks.weights.tolist()):
            want = twin(_context(m), *args)
            got = phase * _dense_block(stacks, value, *spaces(*args), w)
            assert max_abs(got - want) <= 1e-12 * max(1.0, max_abs(want)), (name, args, m)
    check_dtypes()
    if not max_weight and not stacks.weights.size:
        return
    assert compared == {*DENSE_TWINS, "_fiber", "middle_operator"}
    # the lifts compared while the suites kept them: the Lefschetz maps, star and theta in every degree
    # they map within the complex, and J where the constants are harmonic (on weight 0)
    want = {("lef", k, k + 2, False) for k in range(-2, 2)} | {("theta", k, k + 1, False) for k in range(-1, 3)}
    want |= {("star", k, 3 - k, False) for k in range(4)}
    if 0 in stacks.weights.tolist():
        want |= {("jact", k, k, imag) for k in (0, 3) for imag in (False, True)}
    assert set(nonempty) == want


def _spoiled_tables(frame, a: int, k: int, row: int, col: int, eps: complex = 1e-9):
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


def test_a_wrong_phase_fiber_entry_raises():
    """d has phase i: a 1e-9 entry of phase 1 in one of its fiber terms fails the build, in a sector
    that the term keeps, while the same entry of phase i builds."""
    frame = su2_model().frame
    stacks = SectorStacks(frame, range(4))
    rho_in, rho_out = stacks.space(1).rho, stacks.space(2).rho
    # T acts through J_z, so its wedge fiber couples fiber vectors of equal Reeb weight, with coefficient 2i
    row, col = next((o, i) for o in range(rho_out.size) for i in range(rho_in.size) if rho_out[o] == rho_in[i])
    for eps in (1e-9j, 1e-9):  # times 2i: a real entry, then an imaginary one
        spoiled = SectorStacks(frame, range(4), _spoiled_tables(frame, 0, 1, row, col, eps))
        if eps == 1e-9j:
            with pytest.raises(InternalConsistencyError, match="z term has an entry of the wrong phase"):
                spoiled.d(1)
        else:
            assert spoiled.d(1).dtype == np.float64


def _same(a, b) -> bool:
    """Equal memoized values: arrays bit for bit, with their dtype and shape; the rest by ==."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


FRAME_TABLES_OF_THE_STACKS = ("_plan", "_reeb_weights", "bidegree_labels", "_split_masks")


def test_spoiled_tables_leave_the_shared_tables_clean():
    """The spoiled tables are private dicts: after them, fresh stacks read the shared tables of the
    frame, which hold what a context or sector stacks with private tables compute.  Every entry
    is recomputed: the fiber tables of `BlockContext`, and every plan, Reeb weight table,
    bidegree label list and `split_db` mask of `SectorStacks`, arrays bit for bit."""
    test_an_off_sector_wedge_fiber_entry_raises()
    test_a_wrong_phase_fiber_entry_raises()
    frame = su2_model().frame
    stacks = SectorStacks(frame, range(4))
    stacks.spectrum_rows("delta-dr", 1)
    cli.run_suite(Assembly(su2_model(), 3), "all", cli.RunConfig())  # every kind of plan
    shared = stacks.fibers._tables
    assert shared is operators.frame_tables(frame)
    private = {"BlockContext": BlockContext(frame, None, {}), "SectorStacks": SectorStacks(frame, [], {})}
    recomputed = Counter()
    for key, value in list(shared.items()):
        if key == "frame":
            continue
        qualname, args = key
        owner, name = qualname.split(".")
        assert _same(value, getattr(private[owner], name)(*args)), key
        recomputed[name] += 1
    assert recomputed["_fiber"] and ("BlockContext._wedge_fiber", (1, 1)) in shared
    assert all(recomputed[name] for name in FRAME_TABLES_OF_THE_STACKS), recomputed


def test_each_plan_is_built_once_per_frame_and_process(capsys, monkeypatch):
    """Every model has the frame of s3, so every command on s3 and lens models, at several
    cutoffs, in one process, checks and builds each term plan once, in the frame tables; so are
    the other frame tables of the stacks.  The process starts here with no frame tables."""
    monkeypatch.setattr(operators, "_FRAME_TABLES", {})
    built = {name: Counter() for name in FRAME_TABLES_OF_THE_STACKS}
    for name, counts in built.items():
        memo = getattr(SectorStacks, name)

        def spy(stacks, *args, fn=memo.__wrapped__, counts=counts):
            counts[args] += 1
            return fn(stacks, *args)

        monkeypatch.setattr(memo, "__wrapped__", spy)
    commands = [["verify", "--suite", "all"], ["torsion"]] + [["spectrum", "--op", op] for op in SPECTRUM_OPS]
    models = [["--model", "s3"], ["--model", "lens", "--p", "3", "--character", "1"]]
    models.append(["--model", "lens", "--p", "5", "--character", "2"])
    for max_weight in (3, 0, 8):
        for model in models:
            for command in commands:
                assert cli.main(command + model + ["--max-weight", str(max_weight)]) == 0
    capsys.readouterr()
    for name, counts in built.items():
        repeated = {args: n for args, n in counts.items() if n > 1}
        assert counts and not repeated, (name, repeated)
    # iota and lam map the harmonic 0-forms out of the complex, into zero spaces
    ops = {"d", "lie_reeb", "d0", "embed", "lefschetz_inverse", "theta", "horiz", "lef", "star", "jact", "iota", "lam"}
    assert {args[0] for args in built["_plan"]} == ops
    assert {args[2][1] for args in built["_plan"] if args[0] == "jact"} == {"real", "imag"}


def _every_stack(stacks: SectorStacks):
    """(name, stack) of every operator that the sector stacks build from a plan, and of the
    stacks composed of them."""
    top = stacks.Dmax
    for k in range(top + 1):
        yield from ((f"{name}({k})", getattr(stacks, name)(k)) for name in ("d", "lie_reeb", "d0", "dT", "db"))
        yield from ((f"embed({k}, {fl})", stacks.embed(k, fl)) for fl in ("full", "horizontal", "rumin"))
        for name, k_out in (("theta", k + 1), ("iota", k - 1), ("lef", k + 2), ("lam", k - 2), ("star", top - k)):
            yield f"{name}({k})", suites._fiber(stacks, name, k, k_out)
        yield from ((f"jact({k}, {imag})", suites._fiber(stacks, "jact", k, k, imag)) for imag in (False, True))
        yield from ((f"{op}({k})", stacks.laplacian(op, k, T)) for op in SPECTRUM_OPS if k in spectrum_degrees(op))
        if k < top:
            yield f"rumin_d({k})", stacks.rumin_d(k)
    for k in range(stacks.n + 1):
        for anti in (False, True):
            yield f"split_db({k}, {anti})", stacks.split_db(k, anti)
            yield f"rumin_del({k}, {anti})", stacks.rumin_del(k, anti)
    yield from ((f"middle_operator({v})", stacks.middle_operator(v)) for v in ("factored", "kahler"))


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_stacks_from_shared_plans_equal_those_of_private_tables(model):
    """Stacks built from the shared plans, which other models and cutoffs filled, equal those of
    sector stacks with private tables, which build every plan anew, bit for bit."""
    weights = [m for m in range(MAX_WEIGHT + 1) if model.multiplicity(m)]
    shared, private = SectorStacks(model.frame, weights), SectorStacks(model.frame, weights, {})
    assert shared._tables is operators.frame_tables(model.frame) and private._tables is not shared._tables
    names = 0
    for (name, got), (again, want) in zip(_every_stack(shared), _every_stack(private)):
        assert name == again and _same(got, want), name
        names += 1
    assert names == 88  # 15 per degree, 15 Laplacians, 3 Rumin differentials, 8 halves, 2 middle operators


def test_empty_weight_list_gives_no_rows():
    stacks = SectorStacks(su2_model().frame, [])
    for op in SPECTRUM_OPS:
        for k in spectrum_degrees(op):
            rows = stacks.spectrum_rows(op, k, T)
            assert rows.dims.size == 0 and rows.stack.shape[2] == 0
            assert solve_rows(rows).owner.size == 0


END_MODELS = [su2_model(), lens_space(3, character=1)]


def _end_maps(stacks: SectorStacks, k: int):
    """(name, stack, out space, in space) of every map out of degree k that the ends of the complex
    may reach: the first-order stacks, the Rumin differentials and halves, the embeddings and the
    lifted fiber tables."""
    n = stacks.n
    for name in ("d", "d0", "dT", "db"):
        yield name, getattr(stacks, name)(k), (k + 1, "full"), (k, "full")
    yield "dt", stacks.dt(k, T), (k + 1, "full"), (k, "full")
    for anti in (False, True):
        yield f"split_db({anti})", stacks.split_db(k, anti), (k + 1, "full"), (k, "full")
        target = (k + 1, "rumin" if k < n else "horizontal")
        yield f"rumin_del({anti})", stacks.rumin_del(k, anti), target, (k, "rumin")
    yield "rumin_d", stacks.rumin_d(k), (k + 1, "rumin"), (k, "rumin")
    for flavor in ("full", "horizontal", "rumin"):
        yield f"embed({flavor})", stacks.embed(k, flavor), (k, "full"), (k, flavor)
    for name, k_out in (("theta", k + 1), ("iota", k - 1), ("lef", k + 2), ("lam", k - 2), ("horiz", k)):
        yield name, stacks._stack(name, k, k_out), (k_out, "full"), (k, "full")


@pytest.mark.parametrize("model", END_MODELS, ids=["s3", "lens3-1"])
def test_degrees_outside_the_complex_are_zero_spaces(model):
    """Every space of a degree outside 0..Dmax has no fiber vector, and every map from or into one
    builds without error, with the shape of its spaces and no nonzero entry."""
    stacks = SectorStacks(model.frame, [m for m in range(5) if model.multiplicity(m)])
    top = stacks.Dmax
    inside = lambda k: 0 <= k <= top
    for k in (-2, -1, top + 1, top + 2):
        assert all(stacks.space(k, flavor).dim == 0 for flavor in ("full", "horizontal", "rumin")), k
    for k in range(-2, top + 2):
        for name, stack, out, inn in _end_maps(stacks, k):
            assert stack.shape == (stacks.space(*out).dim, stacks.space(*inn).dim, stacks.m.size), (name, k)
            if not (inside(out[0]) and inside(inn[0])):
                assert not stack.any(), (name, k)


@pytest.mark.parametrize("op", SPECTRUM_OPS)
@pytest.mark.parametrize("model", END_MODELS, ids=["s3", "lens3-1"])
def test_end_laplacians_are_their_one_sided_sums(model, op):
    """At the first and last degree of its operator, each `spectrum` Laplacian equals the one-sided
    sum that leaves out the map from or into the zero space beyond, bit for bit."""
    stacks = SectorStacks(model.frame, [m for m in range(5) if model.multiplicity(m)])
    n, degrees = stacks.n, spectrum_degrees(op)
    flavor = SPECTRUM_FLAVOR[op]
    if op == "delta-rn":
        diff = stacks.rumin_d
    elif op == "delta-b":
        diff = lambda j: stacks._compress(stacks.db(j), (j + 1, "horizontal"), (j, "horizontal"))
    else:
        diff = stacks.d if op == "delta-dr" else (lambda j: stacks.dt(j, T))
    for k, above in ((degrees[0], True), (degrees[-1], False)):
        zero = np.zeros((stacks.space(k, flavor).dim,) * 2 + (stacks.m.size,))
        if above:
            square = _product(_t(diff(k)), diff(k))
            middle = k == n
        else:
            square = _product(diff(k - 1), _t(diff(k - 1)))
            middle = k == n + 1
        if op == "delta-rn" and not middle:
            square = _product(square, square)
        want = _hermitized(zero + square, "one-sided sum")
        assert np.array_equal(stacks.laplacian(op, k, T), want), (op, k)


def _with_nan(stack: np.ndarray) -> np.ndarray:
    """A copy of a stack with one NaN entry."""
    out = np.array(stack)
    out[0, 0, 0] = np.nan
    return out


def test_a_nan_entry_fails_every_stack_guard(monkeypatch):
    """A guard of the form `residual > bound` passes a NaN residual, so each guard passes only
    `residual <= bound`, the rule of `VerificationReport.passed`: one NaN entry raises."""
    stacks = SectorStacks(su2_model().frame, [0, 1, 2])
    with pytest.raises(InternalConsistencyError, match="not Hermitian"):
        _hermitized(_with_nan(stacks.laplacian("delta-rn", 0)), "Rumin Laplacian")
    lt, half = stacks.lie_reeb(1), stacks.half_laplacian(0, False)
    with pytest.raises(InternalConsistencyError, match="leaves the Rumin space"):
        stacks._compress_invariant(_with_nan(lt), (1, "rumin"), (1, "rumin"), "L_T leaves the Rumin space")
    monkeypatch.setattr(SectorStacks, "lie_reeb", lambda stacks, k: _with_nan(lt))
    with pytest.raises(InternalConsistencyError, match="not diagonal"):
        stacks._check_reeb(1, "full")
    monkeypatch.setattr(sectors, "_hermitized", lambda stack, what: stack)  # to reach the commutator guard
    monkeypatch.setattr(SectorStacks, "half_laplacian", lambda stacks, k, anti: _with_nan(half) if anti else half)
    with pytest.raises(InternalConsistencyError, match="do not commute"):
        stacks.half_laplacians(0)
