"""Shared fiber tables and per-block caches against freshly built operators.

Every block context and sector stack of an equal frame reads one dict of fiber
tables per process, and each context memoizes its block quantities.  These
tests check that the sharing and the memo change no matrix and no report, that
memoized arrays cannot be written, that a full run computes each shared
quantity once, and that the kron-free assembly equals its np.kron / projector
reference.
"""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

import dense_reference
from dense_reference import operator_pair
from ruminlab import cli, operators, rows, sectors, spectral, suites, torsion
from ruminlab import model as model_module
from ruminlab.model import ParameterError, lens_space, su2_model
from ruminlab.operators import BlockContext
from ruminlab.sectors import SectorStacks
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


def test_assemblies_of_equal_frames_share_fiber_tables():
    """The fiber tables depend on the frame alone, so they live once per frame value and process."""
    asm = Assembly(lens_space(3, character=1), 4)
    first, last = asm.contexts[0], asm.contexts[-1]
    assert first.block.weight != last.block.weight
    assert first._fiber("theta", 1) is last._fiber("theta", 1)
    assert first._wedge_fiber(1, 1) is last._wedge_fiber(1, 1)
    assert first.mons(2) is last.mons(2)
    # a second assembly, of another model with an equal frame, reads the same table objects
    other = Assembly(su2_model(), 2)
    assert other.contexts[0]._tables is first._tables is operators.frame_tables(su2_model().frame)
    assert other.contexts[0]._fiber("theta", 1) is first._fiber("theta", 1)
    assert other.sector_stacks.fibers._tables is first._tables
    # equal values in new arrays make an equal frame
    copy = dataclasses.replace(su2_model().frame, brackets=su2_model().frame.brackets.copy())
    assert copy is not su2_model().frame
    assert BlockContext(copy, None)._tables is first._tables


def test_explicit_tables_stay_private(s3):
    tables = {}
    a, b = BlockContext(s3.frame, s3.block(1), tables), BlockContext(s3.frame, s3.block(2))
    assert a._tables is tables and b._tables is operators.frame_tables(s3.frame)
    assert a._fiber("theta", 1) is not b._fiber("theta", 1)
    assert np.array_equal(a._fiber("theta", 1), b._fiber("theta", 1))
    # what a private dict computes never reaches the shared tables
    a._wedge_fiber(2, 2)
    assert all(value is not a._wedge_fiber(2, 2) for value in b._tables.values())


def test_tables_of_another_frame_rejected(s3):
    """A frame with other bracket constants gets its own tables, and explicit tables of one frame
    cannot be handed to another."""
    bent = s3.frame.brackets.copy()
    bent[0, 1, 2], bent[1, 0, 2] = -1.0, 1.0
    other = dataclasses.replace(s3.frame, brackets=bent)
    assert operators.frame_tables(other) is not operators.frame_tables(s3.frame)
    assert BlockContext(other, None)._tables is operators.frame_tables(other)
    tables = {}
    BlockContext(s3.frame, s3.block(1), tables)
    with pytest.raises(ValueError, match="another frame"):
        BlockContext(other, s3.block(1), tables)
    with pytest.raises(ValueError, match="another frame"):
        BlockContext(other, None, operators.frame_tables(s3.frame))


def test_shared_frame_and_tables_are_read_only(s3):
    """One frame and one set of tables serve every model of the process, so neither can be written."""
    frame = model_module.su2_frame()
    assert frame is s3.frame is lens_space(5, character=2).frame
    for array in (frame.brackets, frame.j_matrix):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    theta = BlockContext(frame, None)._fiber("theta", 1)
    with pytest.raises(ValueError):
        theta[0, 0] = 1.0
    assert frame.brackets[1, 2, 0] == -1.0 and theta[0, 0] == 0.0


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.name}{m.p}")
def test_shared_tables_change_no_matrix(model):
    asm = Assembly(model, 4)
    for shared in asm.contexts:
        private = BlockContext(model.frame, shared.block, {})
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


def _private_tables(monkeypatch):
    """Make every context read fresh fiber tables of its own, as before the tables were shared."""
    monkeypatch.setattr(operators, "frame_tables", lambda frame: {})


@pytest.mark.parametrize("command", [["verify", "--suite", "all"], ["torsion", "--format", "json"]])
def test_reports_byte_equal_with_private_tables(capsys, monkeypatch, command):
    argv = command + ["--model", "lens", "--p", "3", "--character", "1", "--max-weight", "4"]
    shared = _run(capsys, argv)
    _private_tables(monkeypatch)
    assert SectorStacks(su2_model().frame, [0]).fibers._tables is not operators.frame_tables(su2_model().frame)
    private = _run(capsys, argv)
    assert shared[0] == 0 and shared[1].startswith("{")
    assert shared == private


MODEL_ARGS = [["--model", "s3"]] + [
    ["--model", "lens", "--p", str(p), "--character", str(l)] for p in range(2, 6) for l in range(p)
]


def test_reports_byte_equal_in_any_order_across_models(capsys, monkeypatch):
    """Shared tables carry nothing from one op to the next: `verify --suite all` and `torsion` on
    s3 and every lens(p, l), p = 2..5, at M=4, run in one process forwards and backwards, print
    what they print on private tables."""
    argvs = [
        command + model + ["--max-weight", "4"]
        for model in MODEL_ARGS
        for command in (["verify", "--suite", "all"], ["torsion", "--format", "json"])
    ]
    forward = {tuple(argv): _run(capsys, argv) for argv in argvs}
    backward = {tuple(argv): _run(capsys, argv) for argv in reversed(argvs)}
    _private_tables(monkeypatch)
    private = {tuple(argv): _run(capsys, argv) for argv in argvs}
    assert all(code == 0 for code, _ in private.values())
    assert forward == private and backward == private


MEMOIZED = {
    "fiber": lambda c: c._fiber("theta", 1),
    "wedge_fiber": lambda c: c._wedge_fiber(0, 1),
    "norms": lambda c: c._norms(1),
    "lifted_fiber": lambda c: c.lifted_fiber("horiz", 1),
    "embed": lambda c: c.space(1, "rumin").embed,
    "d": lambda c: c.d_full(1),
    "d0": lambda c: c.d0_full(1),
    "dT": lambda c: c.dT_full(1),
    "db": lambda c: c.db_full(1),
    "lie_reeb": lambda c: c.lie_reeb_full(1),
    "del": lambda c: c.del_full(0),
    "laplacian_rn": lambda c: c.laplacian_rn(1).matrix,
    "laplacian_de_rham": lambda c: c.laplacian_de_rham(1).matrix,
    "bidegree_mask": lambda c: c.bidegree_mask(1, 0, 1),
    "lie_reeb_rumin": lambda c: c.lie_reeb_rumin(1).matrix,
    "laplacian_b": lambda c: c.laplacian_b(1).matrix,
    "rumin_del_laplacian": lambda c: c.rumin_del_laplacian(1, anti=True).matrix,
    "sqrt_laplacian_rn": lambda c: c.sqrt_laplacian_rn(1),
    "horizontal_del": lambda c: dense_reference._horizontal_del(c, 1, True),
    "horizontal_lefschetz": lambda c: dense_reference._horizontal_lefschetz(c, 0),
    "harmonic_basis": lambda c: spectral._harmonic_basis(c, 0, "rumin").vectors,
}


@pytest.mark.parametrize("getter", list(MEMOIZED.values()), ids=list(MEMOIZED))
def test_cached_arrays_are_read_only(s3, getter):
    ctx = BlockContext(s3.frame, s3.block(2))
    cached = getter(ctx)
    before = cached.copy()
    with pytest.raises(ValueError):
        cached[(0,) * cached.ndim] = 1  # for "db": ctx.db_full(1)[0, 0] = 1
    assert np.array_equal(getter(ctx), before)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.name}{m.p}")
def test_memoized_values_equal_a_fresh_context_after_a_full_run(model):
    """Every dense suite body reads the block memo in its own order; no value may depend on it.

    `verify` reads the sector stacks and builds no block context, so the dense
    reference bodies run over every block, keeping each memo for the comparison.
    """
    asm = Assembly(model, 4)
    dense_reference.dense_run_suite(asm, "all", cli.RunConfig(), keep_memos=True)
    for ctx in asm.contexts:
        assert ctx._cache
        fresh = BlockContext(model.frame, ctx.block)
        for name, getter in MEMOIZED.items():
            memoized = getter(ctx)
            assert not memoized.flags.writeable, (ctx.block.label, name)
            assert np.array_equal(memoized, getter(fresh)), (ctx.block.label, name)


def test_memo_key_fills_in_keywords_and_defaults(s3):
    ctx = BlockContext(s3.frame, s3.block(2))
    assert ctx.del_full(0) is ctx.del_full(0, False) is ctx.del_full(0, anti=False)
    assert ctx.del_full(0, anti=True) is not ctx.del_full(0)
    assert ctx.space(1) is ctx.space(1, "full") is ctx.space(k=1)
    with pytest.raises(TypeError):
        ctx.del_full(0, False, anti=False)
    with pytest.raises(TypeError):
        ctx.del_full()


def test_assembly_rows_are_memoized_and_read_only():
    """`Assembly.rumin_rows` solves each degree once, keyed by the degree alone, and every array of
    the solved rows is read-only; `q_decomposition` hands out tuples, not shared lists."""
    asm = Assembly(lens_space(3, character=1), 4)
    joint = asm.rumin_rows(0)
    assert joint is asm.rumin_rows(0) is asm.rumin_rows(k=0)
    with pytest.raises(TypeError):
        asm.rumin_rows(0, 1e-10)
    assert joint.rows.dims.size == len(asm.weights) and set(joint.owner.tolist()) == set(range(len(asm.weights)))
    halves = asm.sector_stacks.half_laplacians(0)
    assert halves is asm.sector_stacks.half_laplacians(0)  # kept in the stacks' memo
    assert isinstance(halves, tuple) and len(halves) == 3  # two half Laplacians, their scale
    columns = (joint.order, joint.starts, joint.owner, joint.sector, joint.delta, joint.tau, joint.vectors)
    r = joint.rows
    layout = (r.stack, r.owner, r.tau, r.valid, r.index, r.dims, *halves)
    assert not any(array.flags.writeable for array in (*columns, *layout))
    assert asm.rumin_rows(1).rows.dims.size == len(asm.weights)
    with pytest.raises(ValueError):
        asm.sector_stacks.half_laplacians(1)  # the middle degree has no pair
    assert [args for name, args in asm._cache if name == "Assembly.rumin_rows"] == [(0,), (1,)]
    comps = spectral.q_decomposition(asm, asm.weights[-1], 0)
    assert isinstance(comps, tuple) and comps
    [again] = dense_reference.low_degree_components(asm, asm.contexts[-1])
    assert [(c.lambda10, c.lambda01, c.basis.tobytes()) for c in again] == [
        (c.lambda10, c.lambda01, c.basis.tobytes()) for c in comps
    ]


def _count_half_laplacians(monkeypatch) -> Counter:
    """Count the builds of `SectorStacks.half_laplacian` by (k, anti) from now on."""
    builds = Counter()
    build = SectorStacks.half_laplacian

    def spy(stacks, k, anti):
        builds[k, anti] += 1
        return build(stacks, k, anti)

    monkeypatch.setattr(SectorStacks, "half_laplacian", spy)
    return builds


def _assert_one_pair_per_low_degree(asm, builds):
    """Each half Laplacian below the middle degree was built once, into the one memo entry of the
    assembly's stacks."""
    assert {key: n for key, n in builds.items() if key[0] < asm.n} == {(0, False): 1, (0, True): 1}
    assert [args for name, args in asm.sector_stacks._cache if name == "SectorStacks.half_laplacians"] == [(0,)]


def test_one_rumin_solve_per_degree_across_commands_on_one_assembly(monkeypatch):
    """`verify --suite all`, the Reeb decomposition of `torsion` and `q_decomposition` of every
    weight, run in turn on one assembly, solve the Rumin rows of each degree k <= n once between
    them: they all read the one memo entry of `Assembly.rumin_rows(k)`.  They build the
    half-Laplacian pair below the middle degree once too, sec4 included."""
    solves = []
    solve = rows.solve_rows

    def spy(row_stack):
        solves.append(row_stack)
        return solve(row_stack)

    monkeypatch.setattr(rows, "solve_rows", spy)
    builds = _count_half_laplacians(monkeypatch)
    asm = Assembly(su2_model(), 8)
    cli.run_suite(asm, "all", cli.RunConfig())
    torsion.reeb_decomposition(asm)
    for m in asm.weights:
        spectral.q_decomposition(asm, m, 0)
    assert len(solves) == asm.n + 1 == 2
    memo = sorted(args for name, args in asm._cache if name == "Assembly.rumin_rows")
    assert memo == [(k,) for k in range(asm.n + 1)]
    _assert_one_pair_per_low_degree(asm, builds)


def test_q_decomposition_of_every_weight_builds_one_half_laplacian_pair(monkeypatch):
    """`q_decomposition` of every weight on a fresh assembly reads one half-Laplacian pair, kept
    with the assembly's stacks, not one per weight."""
    builds = _count_half_laplacians(monkeypatch)
    asm = Assembly(su2_model(), 8)
    for m in asm.weights:
        spectral.q_decomposition(asm, m, 0)
    _assert_one_pair_per_low_degree(asm, builds)


def test_kernel_coincidence_alone_builds_no_half_laplacian(monkeypatch):
    """thm1 reads only the Rumin eigenpairs, so `verify --suite thm1` alone builds no half
    Laplacian: the pair is not part of the Rumin solve."""
    builds = _count_half_laplacians(monkeypatch)
    asm = Assembly(su2_model(), 8)
    assert cli.run_suite(asm, "thm1", cli.RunConfig()).passed
    assert not builds, dict(builds)
    assert [name for name, _ in asm._cache].count("Assembly.rumin_rows") == asm.n + 1  # thm1 did solve them


def test_assembly_builds_block_contexts_on_first_access():
    """An assembly reads its weights and multiplicities from the model; `torsion` and the rank
    oracle leave its block contexts unbuilt, and the contexts, once read, follow the weights."""
    model = lens_space(3, character=1)
    asm = Assembly(model, 6)
    counts = [model.multiplicity(m) for m in range(7)]
    assert asm.weights == [m for m in range(7) if counts[m]] and asm.multiplicity == tuple(r for r in counts if r)
    torsion.reeb_decomposition(asm)
    spectral.de_rham_cohomology_dims(asm)
    assert "contexts" not in vars(asm)
    built = [(ctx.block.weight, ctx.block.multiplicity) for ctx in asm.contexts]
    assert built == list(zip(asm.weights, asm.multiplicity))
    assert asm.contexts is asm.contexts
    with pytest.raises(ParameterError):
        Assembly(model, -1)


SUITE_COMMANDS = [["verify", "--suite", suite] for suite in ("all", "thm1", "cor2", "cor3", "sec4", "thm5")]


@pytest.mark.parametrize(
    "command",
    [["torsion"], ["spectrum", "--op", "delta-rn"], ["spectrum", "--op", "delta-dr"], *SUITE_COMMANDS],
    ids=["torsion", "delta-rn", "delta-dr", *(f"verify-{c[-1]}" for c in SUITE_COMMANDS)],
)
def test_sector_commands_build_no_slot_action(capsys, monkeypatch, command):
    """`torsion`, `spectrum` and every `verify` suite read the ladder radicands, never the dense
    slot actions of a block, and build no block context: the only `BlockContext` is the
    fiber-table context of the sector stacks, without a block."""
    calls = Counter()
    actions = model_module.su2_weight_actions

    def spy(m):
        calls[m] += 1
        return actions(m)

    blocks = []
    init = BlockContext.__init__

    def watched_init(ctx, frame, block, tables=None):
        blocks.append(block)
        init(ctx, frame, block, tables)

    monkeypatch.setattr(model_module, "su2_weight_actions", spy)
    monkeypatch.setattr(BlockContext, "__init__", watched_init)
    assert cli.main(command + ["--model", "lens", "--p", "3", "--character", "1", "--max-weight", "6"]) == 0
    capsys.readouterr()
    assert not calls, dict(calls)
    assert blocks == [None]
    asm = Assembly(lens_space(3, character=1), 6)
    asm.contexts  # the block contexts, to show that the spies see them
    assert set(calls) == set(asm.weights)
    assert len(blocks) == 1 + len(asm.weights) and all(blocks[1:])


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.name}{m.p}")
def test_broadcast_and_mask_assembly_equal_dense_reference(model):
    """d and L_T without np.kron, and del without projector products, are exact."""
    asm = Assembly(model, 4)
    for ctx in asm.contexts:
        for k in asm.degrees:
            d = ctx.lifted_fiber("dmon", k)
            for a, name in enumerate(model.frame.field_names):
                d = d + np.kron(ctx._wedge_fiber(a, k), ctx.block.action(name))
            assert np.array_equal(ctx.d_full(k), d), k
            eye = np.eye(len(ctx.mons(k)), dtype=complex)
            lt = np.kron(eye, ctx.block.action("T")) + ctx.lifted_fiber("rot", k)
            assert np.array_equal(ctx.lie_reeb_full(k), lt), k
        for k in range(2 * ctx.n):
            db = ctx.db_full(k) @ ctx.lifted_fiber("horiz", k)
            proj = lambda deg, i, j: ctx._lift(np.diag(ctx._bidegree_fiber_projector(deg, i, j)).astype(complex))
            for anti in (False, True):
                ref = np.zeros_like(db)
                for i in range(k + 1):
                    j = k - i
                    tgt = proj(k + 1, i, j + 1) if anti else proj(k + 1, i + 1, j)
                    ref = ref + tgt @ db @ proj(k, i, j)
                assert np.array_equal(ctx.del_full(k, anti), ref), (k, anti)


def test_verify_all_computes_each_shared_quantity_once(capsys, monkeypatch):
    """One `verify --suite all` computes each shared sector quantity once per run.

    The spies sit on the computations behind the memos of the sector stacks
    and the assembly: the Reeb-sector solve (keyed by its exact input), the
    sector rank oracle, which ranks each complex once for thm1 and the torsion
    checks together, and the suite quantities that several suites read: the
    Laplacians, the de Rham harmonic kernels and the sec4 components.  The
    lifted fiber tables and the Rumin square root are read once each, so the
    memo keeps neither; their spies sit on the functions, and each is still
    built once.  Each Laplacian is built once per (op, k) and solved by one
    `sectors._eigh` on the sectors, by the code that reads it: the Rumin
    Laplacian of degree k <= n by its joint eigenspaces over every weight
    (`Assembly.rumin_rows`), which the Rumin kernels of thm1, the square root
    and components of sec4 and the torsion checks read (two solves in all, on
    lens(3, 1) and on s3), and every other one by the kernel that thm1 (and
    for de Rham, cor2 and cor3) reads.  The first-order stacks (d, d0, dT,
    L_T and its Rumin compression, whose invariance residual is checked when it
    is built, the split halves of d_b and their Rumin compressions, and d_b
    between the horizontal spaces, which both neighbouring `delta-b`
    Laplacians read) are built once per degree and half, and every composite
    of the stacks reads those.
    """
    calls = {}

    def spy(kind, fn, key):
        counts = calls.setdefault(kind, Counter())

        def wrapper(*args, **kwargs):
            counts[key(*args, **kwargs)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def exact(*arrays):
        return tuple((a.shape, a.tobytes()) for a in arrays)

    solve = spy("joint eigenspaces", rows.solve_rows, lambda rows: exact(rows.tau, rows.stack))
    monkeypatch.setattr(rows, "solve_rows", solve)
    laplacians = {}  # the id of every Laplacian built in the run -> (op, k, t)
    build = SectorStacks.laplacian.__wrapped__

    def build_laplacian(stacks, op, k, t):
        lap = build(stacks, op, k, t)
        laplacians[id(lap)] = (op, k, t)  # the memo keeps it for the run, so the id stays its own
        return lap

    solved = calls.setdefault("Laplacian eigensolve", Counter())
    eigh = sectors._eigh

    def sector_eigh(stack, valid, groups):
        if id(stack) in laplacians:
            solved[laplacians[id(stack)]] += 1
        return eigh(stack, valid, groups)

    for module in (sectors, rows, suites):
        monkeypatch.setattr(module, "_eigh", sector_eigh)
    memos = {
        "sector rank": (SectorStacks.cohomology_dims, lambda stacks, complex_name, multiplicity: complex_name),
        "Laplacian": (SectorStacks.laplacian, lambda stacks, op, k, t: (op, k, t), build_laplacian),
        "harmonic kernel": (suites._harmonic, lambda asm, k: k),
        "sec4 components": (suites._low_components, lambda asm: ()),
    }
    for name in FIRST_ORDER:
        memos[name] = (getattr(SectorStacks, name), lambda stacks, *args: args)
    for kind, (memo, key, *fn) in memos.items():
        monkeypatch.setattr(memo, "__wrapped__", spy(kind, fn[0] if fn else memo.__wrapped__, key))
    unkept = {
        "Rumin square root": ("_sqrt_rumin_laplacian", lambda asm, k: k),
        "lifted fiber table": ("_fiber", lambda stacks, name, k, k_out, imag=False: (name, k, k_out, imag)),
    }
    for kind, (name, key) in unkept.items():
        monkeypatch.setattr(suites, name, spy(kind, getattr(suites, name), key))
    for model in (["--model", "lens", "--p", "3", "--character", "1"], ["--model", "s3"]):
        for counts in calls.values():
            counts.clear()
        laplacians.clear()
        assert cli.main(["verify", "--suite", "all", *model, "--max-weight", "4"]) == 0
        capsys.readouterr()
        for kind, counts in calls.items():
            assert counts, kind
            repeated = {key: n for key, n in counts.items() if n > 1}
            assert not repeated, f"{kind}: {len(repeated)} of {len(counts)} computations repeated"
        assert len(calls) == 8 + len(FIRST_ORDER)
        assert set(calls["lie_reeb_rumin"]) == {(0,), (1,)}  # the sec4 suite and the Reeb check of the joint solve
        # degrees outside 0..3 are zero spaces: the sasakian identities read the split halves of d_b
        # in degrees q - 2..q + 1 for q = 0..2, and the Laplacians and half Laplacians degree -1
        assert set(calls["split_db"]) == {(k, anti) for k in range(-2, 4) for anti in (False, True)}
        assert set(calls["rumin_del"]) == {(k, anti) for k in range(-1, 2) for anti in (False, True)}
        assert set(calls["d"]) == {(k,) for k in range(-2, 4)}
        assert set(calls["horizontal_db"]) == {(k,) for k in range(-2, 4)}  # the delta-b Laplacians of -1..3
        assert set(calls["Rumin square root"]) == {0}
        # lef from the horizontal Lefschetz maps of hodge and sec4, theta from hodge, star from the star
        # suite; where the constants are harmonic (s3), cor2 adds J in degrees 0 and 3, iota and lam out
        # of degree 0, theta and lef out of degree 3, and thm1 lam out of degree 1
        lifts = {("lef", k, k + 2, False) for k in range(-2, 3)} | {("star", k, 3 - k, False) for k in range(4)}
        lifts |= {("theta", k, k + 1, False) for k in range(-1, 3)}
        if model == ["--model", "s3"]:
            lifts |= {("jact", k, k, imag) for k in (0, 3) for imag in (False, True)}
            lifts |= {("iota", 0, -1, False), ("lam", 0, -2, False), ("lam", 1, -1, False)}
            lifts |= {("theta", 3, 4, False), ("lef", 3, 5, False)}
        assert set(calls["lifted fiber table"]) == lifts
        assert set(calls["sector rank"]) == {"rumin", "de_rham"}
        assert set(calls["harmonic kernel"]) == set(range(4))  # de Rham; each Rumin kernel is read once
        laps = {(op, k, 1.0) for op in ("delta-rn", "delta-dr") for k in range(4)}
        assert set(calls["Laplacian"]) == laps | {("delta-b", k, 1.0) for k in range(-1, 4)}
        assert set(solved) == laps
        assert sum(calls["joint eigenspaces"].values()) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["torsion"],
        ["verify", "--suite", "thm5"],
        ["verify", "--suite", "sec4"],
        ["spectrum", "--op", "delta-rn"],
        ["spectrum", "--op", "delta-dr", "--format", "json"],
    ],
    ids=["torsion", "thm5", "sec4", "spectrum-delta-rn", "spectrum-delta-dr"],
)
def test_torsion_builds_no_dense_eigenbasis(capsys, monkeypatch, command):
    """The Reeb pieces need only Delta, tau and the dimension of each joint eigenspace, and
    they come from the Reeb-sector stacks: no dense box, square root, eigenbasis or sector cut
    is built, and no per-weight view of the solved rows.  sec4 reads the same sector solve,
    whose components are single sector vectors, and takes its square root on the sectors too."""
    calls = Counter()

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(rows.JointRows, "components")
    for name in ("box_operators", "sqrt_laplacian_rn"):
        spy(BlockContext, name)
    spy(spectral, "_reeb_sectors")
    assert cli.main(command + ["--model", "lens", "--p", "3", "--character", "1", "--max-weight", "4"]) == 0
    capsys.readouterr()
    assert not calls, dict(calls)
    asm = Assembly(lens_space(3, character=1), 4)
    ctx = asm.contexts[-1]
    spectral.q_decomposition(asm, ctx.block.weight, 0)  # the dense callers, to show that the spies see them
    ctx.box_operators(0)
    spectral._sequential_joint_eigenspaces([operator_pair(ctx, "delta-rn", 0, 1.0)], 1e-9).components(0)
    dense = ("box_operators", "sqrt_laplacian_rn", "_reeb_sectors")
    assert calls == {**dict.fromkeys(dense, 1), "components": 2}  # one dense basis for each of the two callers


def _assert_each_dt_built_once(monkeypatch, suite, t_samples, degrees):
    """`suite` on lens(3, 1) at M=4 builds the sector stack of d_t once for each t and each
    degree in `degrees`, over every weight at once."""
    counts = Counter()
    original = SectorStacks.dt

    def spy(stacks, k, t):
        counts[k, t] += 1
        return original(stacks, k, t)

    monkeypatch.setattr(SectorStacks, "dt", spy)
    asm = Assembly(lens_space(3, character=1), 4)
    assert suite(asm, t_samples).passed
    assert set(counts) == {(k, t) for k in degrees for t in t_samples}
    repeated = {key: n for key, n in counts.items() if n > 1}
    assert not repeated, f"{len(repeated)} of {len(counts)} d_t built more than once"


def test_complex_property_builds_each_deformed_differential_once(monkeypatch):
    """`verify_complex_property` builds each d_t once per (degree, t)."""
    suite = lambda asm, t_samples: spectral.verify_complex_property(asm)  # at every t of COMPLEX_T_SAMPLES
    _assert_each_dt_built_once(monkeypatch, suite, spectral.COMPLEX_T_SAMPLES, range(4))


def test_deformation_family_builds_each_deformed_differential_once(monkeypatch):
    """`verify_deformation_family` builds each d_t once per (degree, t), for every degree j = -1..Dmax
    whose d_t is a factor of a Laplacian: d_t(-1) and d_t(Dmax) map from and into zero spaces."""
    _assert_each_dt_built_once(monkeypatch, spectral.verify_deformation_family, (0.1, 1.0, 10.0), range(-1, 4))


LENS31 = ["--model", "lens", "--p", "3", "--character", "1"]
SPECTRUM_OPS = ("delta-rn", "delta-dr", "delta-t", "delta-b")
FIRST_ORDER = ("d", "d0", "dT", "lie_reeb", "lie_reeb_rumin", "split_db", "rumin_del", "horizontal_db")


@pytest.mark.parametrize(
    "command",
    [
        ["torsion"],
        ["verify", "--suite", "thm5"],
        *(["spectrum", "--op", op] for op in SPECTRUM_OPS),
        ["verify", "--suite", "all"],
    ],
    ids=["torsion", "thm5", *SPECTRUM_OPS, "verify-all"],
)
def test_spectrum_and_torsion_keep_no_first_order_stack(capsys, monkeypatch, command):
    """`spectrum` and `torsion` read each first-order stack a few times and keep none, which holds
    their peak memory at high M; only the `verify` suites keep them (d_b between the horizontal
    spaces too), and with them the Laplacians (the last case, which shows that the names are the
    memo's).  No command keeps a lifted fiber table or the Rumin square root, which a run reads
    once each."""
    built = []
    init = SectorStacks.__init__

    def watched_init(stacks, *args, **kwargs):
        built.append(stacks)
        init(stacks, *args, **kwargs)

    monkeypatch.setattr(SectorStacks, "__init__", watched_init)
    assert cli.main(command + ["--model", "s3", "--max-weight", "4"]) == 0
    capsys.readouterr()
    [stacks] = built
    assert stacks._cache
    names = {f"SectorStacks.{name}" for name in (*FIRST_ORDER, "laplacian")}
    kept = {name for name, _ in stacks._cache}
    assert not kept & {"_fiber", "_sqrt_rumin_laplacian"}
    kept &= names
    if command[-1] == "all":
        assert kept == names
    else:
        assert not kept, kept


@pytest.mark.parametrize("model", [["--model", "s3"], LENS31], ids=["s3", "lens3-1"])
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--suite", "all"],
        ["verify", "--suite", "thm5"],
        ["torsion"],
        *(["spectrum", "--op", op] for op in SPECTRUM_OPS),
    ],
    ids=["verify", "thm5", "torsion", *SPECTRUM_OPS],
)
def test_cli_holds_one_block_memo_at_a_time(capsys, monkeypatch, command, model):
    """No block memo gains an entry: `spectrum`, `torsion` and every `verify` suite build their
    operators on the Reeb sectors of every weight at once.  Were a block memo filled, no other
    context of the run could hold one at the same time, and none may hold one at the end."""
    memos = []
    crowded = Counter()  # memoized function -> insertions made while another memo was nonempty
    inserted = Counter()  # memoized function -> insertions

    class WatchedMemo(dict):
        def __setitem__(self, key, value):
            if any(memo for memo in memos if memo is not self):
                crowded[key[0]] += 1
            inserted[key[0]] += 1
            super().__setitem__(key, value)

    init = BlockContext.__init__

    def watched_init(ctx, *args, **kwargs):
        init(ctx, *args, **kwargs)
        ctx._cache = WatchedMemo()
        memos.append(ctx._cache)

    monkeypatch.setattr(BlockContext, "__init__", watched_init)
    assert cli.main(command + model + ["--max-weight", "6"]) == 0
    capsys.readouterr()
    assert not inserted, dict(inserted)
    assert not crowded, dict(crowded)
    assert not any(memos)


SUITES = (
    spectral.verify_kernel_coincidence,
    spectral.verify_primitivity,
    spectral.verify_deformation_family,
    spectral.verify_sasakian_identities,
    spectral.verify_eigenvalue_identity,
    spectral.verify_middle_degree,
    spectral.verify_complex_property,
    spectral.verify_hodge_block_matrix,
    spectral.verify_star_symmetry,
)


@pytest.mark.parametrize(
    "model, max_weight",
    [(su2_model(), 5), (lens_space(3, character=1), 5), (lens_space(3, character=1), 0)],
    ids=["s3-m5", "lens3-1-m5", "lens3-1-m0"],
)
def test_block_at_a_time_suite_equals_the_library_suites(model, max_weight):
    """`run_suite` reports the checks of the whole-assembly library calls, and neither builds a block context."""
    asm = Assembly(model, max_weight)
    library = spectral.VerificationReport("library")
    for suite in SUITES:
        library.extend(suite(asm))
    library.extend(torsion.reeb_decomposition(asm).checks)
    streamed = cli.run_suite(Assembly(model, max_weight), "all", cli.RunConfig())
    rows = json.loads(streamed.to_json())["checks"]
    assert rows == json.loads(library.to_json())["checks"]
    names = {row["name"] for row in rows}
    assert {"rank_oracle_rumin_k=0", "weighted_multiset_identity", "kappa_two_routes_s=2"} <= names
    assert "contexts" not in vars(asm)
