"""Span tracing of ruminlab from outside the program.

`Tracer.install()` replaces the public functions of each ruminlab module, the
methods listed in METHODS, and the numpy entry points in NUMPY with wrappers
that record a span (name, start, end, parent, op id) and call through to the
original, so results and `BlockContext` caching are unchanged.  A module that
imported a function by name holds its own reference (cli imports
`q_decomposition` and the `verify_*` suites, torsion imports
`rumin_cohomology_dims` and `sqrtm_psd`), so every ruminlab namespace is
patched, not only the defining module.  `uninstall()` restores the originals.

Spans are kept in flat arrays and written out after the run.  Each span name
belongs to one layer group; a group's self time is the sum over its spans of
span time minus the time of their child spans, so the group times plus the
time covered by no span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List

import numpy as np

MODULES = ("exterior", "model", "operators", "spectral", "torsion", "cli")

# private module functions that are layer boundaries all the same
PRIVATE_FUNCTIONS = {
    "operators": ("_null_basis", "_range_basis_of_projector"),
    "spectral": ("_sequential_joint_eigenspaces",),
    "cli": ("_emit",),
}

# methods are listed explicitly: hot trivial accessors (BlockContext.mons,
# VerificationReport.add) would only add tracing overhead
METHODS = {
    ("operators", "BlockContext"): (
        "__init__", "_fiber", "fiber_matrix", "fiber_matrix_from_images", "_fiber_selection",
        "space", "compress", "_lift", "d_full", "lie_reeb_full", "d0_full", "dT_full",
        "db_full", "db_direct_full", "dt_full", "_bidegree_fiber_projector", "del_full", "op",
        "rumin_space", "horizontal_space", "middle_operator", "rumin_d", "rumin_del",
        "rumin_del_laplacian", "laplacian_rn", "laplacian_de_rham", "laplacian_t",
        "laplacian_b", "lie_reeb_rumin", "box_operators", "rumin_star",
    ),
    ("spectral", "Assembly"): ("__init__", "spectral_cutoff"),
    ("spectral", "SpectrumTable"): ("to_json", "to_csv"),
    ("spectral", "VerificationReport"): ("to_json", "to_csv"),
    ("torsion", "TorsionReport"): ("to_json", "pairs_csv"),
    ("model", "ModelManifold"): ("blocks", "nonempty_blocks", "describe"),
    ("model", "FrameStructure"): ("coframe_differential",),
}

NUMPY = {
    "linalg.svd": (np.linalg, "svd"),
    "linalg.eigh": (np.linalg, "eigh"),
    "linalg.eigvalsh": (np.linalg, "eigvalsh"),
    "linalg.inv": (np.linalg, "inv"),
    "linalg.norm": (np.linalg, "norm"),
    "linalg.matrix_power": (np.linalg, "matrix_power"),
    "linalg.kron": (np, "kron"),
}

SUITES = {
    "verify_kernel_coincidence": "thm1",
    "verify_primitivity": "cor2",
    "verify_deformation_family": "cor3",
    "verify_sasakian_identities": "sec4",
    "verify_eigenvalue_identity": "sec4",
    "verify_middle_degree": "sec4",
    "verify_complex_property": "complex",
    "verify_hodge_block_matrix": "hodge",
    "verify_star_symmetry": "star",
}

GROUP_OF = {
    "cli._emit": "cli.serialize",
    "spectral.SpectrumTable.to_json": "cli.serialize",
    "spectral.SpectrumTable.to_csv": "cli.serialize",
    "spectral.VerificationReport.to_json": "cli.serialize",
    "spectral.VerificationReport.to_csv": "cli.serialize",
    "torsion.TorsionReport.to_json": "cli.serialize",
    "torsion.TorsionReport.pairs_csv": "cli.serialize",
    "spectral.Assembly.spectral_cutoff": "spectral.cutoff",
    "spectral.rumin_cohomology_dims": "spectral.rank_oracle",
    "spectral.de_rham_cohomology_dims": "spectral.rank_oracle",
    "model.ModelManifold.blocks": "model.blocks",
    "model.ModelManifold.nonempty_blocks": "model.blocks",
    "model.su2_block": "model.blocks",
    "model.su2_weight_actions": "model.blocks",
    "model.allowed_weight_slots": "model.blocks",
    "linalg.svd": "linalg.svd",
    "linalg.eigh": "linalg.eigh",
    "linalg.eigvalsh": "linalg.eigvalsh",
    "linalg.kron": "linalg.kron",
}
GROUP_OF.update({f"spectral.{fn}": f"spectral.suite.{s}" for fn, s in SUITES.items()})
GROUP_OF.update(
    {
        f"spectral.{fn}": "spectral.eigen"
        for fn in (
            "kernel", "block_spectrum", "q_decomposition", "joint_kernel", "principal_sines",
            "_sequential_joint_eigenspaces", "harmonic_bases",
        )
    }
)
GROUP_OF.update(
    {
        f"operators.BlockContext.{m}": "operators.fiber"
        for m in ("_fiber", "fiber_matrix", "fiber_matrix_from_images", "_fiber_selection")
    }
)
GROUP_OF.update(
    {
        f"operators.BlockContext.{m}": "operators.laplacian"
        for m in (
            "laplacian_rn", "laplacian_de_rham", "laplacian_t", "laplacian_b",
            "rumin_del_laplacian", "box_operators",
        )
    }
)
DEFAULT_GROUP = {
    "cli": "cli",
    "exterior": "exterior",
    "model": "model.other",
    "operators": "operators.helpers",
    "operators.BlockContext": "operators.assembly",
    "spectral": "spectral.other",
    "torsion": "torsion.reeb",
    "linalg": "linalg.other",
}

TIME_GROUPS = (
    "cli", "cli.serialize",
    *sorted({f"spectral.suite.{s}" for s in SUITES.values()}),
    "spectral.cutoff", "spectral.eigen", "spectral.rank_oracle", "spectral.other",
    "torsion.reeb",
    "operators.assembly", "operators.laplacian", "operators.fiber", "operators.helpers",
    "exterior", "model.blocks", "model.other",
    "linalg.svd", "linalg.eigh", "linalg.eigvalsh", "linalg.kron", "linalg.other",
)

# builders whose results BlockContext does not cache; recompute_ratio counts
# their calls per distinct (op, block, method, arguments) key
UNCACHED_BUILDERS = (
    "dT_full", "db_full", "dt_full", "laplacian_t", "laplacian_b", "lie_reeb_rumin",
    "box_operators",
)


def group_of(name: str) -> str:
    if name in GROUP_OF:
        return GROUP_OF[name]
    owner = name.rsplit(".", 1)[0]
    return DEFAULT_GROUP.get(owner, DEFAULT_GROUP.get(name.split(".", 1)[0], "unknown"))


def _block_key(ctx) -> tuple:
    block = ctx.block
    return (getattr(block, "group_order", 1), getattr(block, "character", 0), block.label)


class Tracer:
    """Records spans and counts for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: List[int] = []
        self.current_op = -1
        self.flops: Counter = Counter()
        self.kron_bytes = 0
        self.block_dim_sum = 0
        self.builder_calls = 0
        self._builder_keys: set = set()
        self._patches: list = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.start, self.end
        name_ids, parents, ops = self.name_id, self.parent, self.op
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(start)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _hooks(self, name: str):
        before = after = None
        method = name.rsplit(".", 1)[-1]
        if name.startswith("operators.BlockContext.") and method in UNCACHED_BUILDERS:

            def before(args, kwargs, method=method):
                self.builder_calls += 1
                key = (self.current_op, _block_key(args[0]), method, args[1:], tuple(sorted(kwargs.items())))
                self._builder_keys.add(key)

        elif name == "model.ModelManifold.blocks":

            def after(blocks):
                self.block_dim_sum += sum(b.dim for b in blocks)

        elif name == "linalg.svd":

            def before(args, kwargs):
                a = args[0]
                m, n = a.shape[-2:]
                self.flops[name] += int(np.prod(a.shape[:-2])) * m * n * min(m, n)

        elif name in ("linalg.eigh", "linalg.eigvalsh"):

            def before(args, kwargs, name=name):
                a = args[0]
                self.flops[name] += int(np.prod(a.shape[:-2])) * a.shape[-1] ** 3

        elif name == "linalg.kron":

            def before(args, kwargs):
                a, b = args[0], args[1]
                self.kron_bytes += np.size(a) * np.size(b) * np.result_type(a, b).itemsize

        return before, after

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrapped = {}  # id(original) -> wrapper, which holds the original alive
        for short in MODULES:
            mod = importlib.import_module(f"ruminlab.{short}")
            extra = PRIVATE_FUNCTIONS.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in extra)
                ):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self._wrap(obj, name, *self._hooks(name))
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"ruminlab.{short}"), cls_name, None)
            for attr in methods:
                fn = cls.__dict__.get(attr) if cls is not None else None
                if inspect.isfunction(fn):
                    name = f"{short}.{cls_name}.{attr}"
                    self._replace(cls, attr, self._wrap(fn, name, *self._hooks(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ruminlab" or mod_name.startswith("ruminlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._replace(mod, attr, wrapped[id(obj)])
        for name, (owner, attr) in NUMPY.items():
            self._replace(owner, attr, self._wrap(getattr(owner, attr), name, *self._hooks(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-group self time and per-name calls; `wall_s` is the traced pass time."""
        count = len(self.start)
        child = [0.0] * count
        top = 0.0
        for i in range(count):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p < 0:
                top += dur
            else:
                child[p] += dur
        self_s = dict.fromkeys(TIME_GROUPS, 0.0)
        groups = [group_of(n) for n in self.names]
        calls = Counter()
        for i in range(count):
            nid = self.name_id[i]
            g = groups[nid]
            self_s[g] = self_s.get(g, 0.0) + (self.end[i] - self.start[i]) - child[i]
            calls[self.names[nid]] += 1
        return {
            "self_s": self_s,
            "unattributed_s": wall_s - top,
            "calls": dict(calls),
            "spans": count,
            "flops": dict(self.flops),
            "kron_bytes": self.kron_bytes,
            "block_dim_sum": self.block_dim_sum,
            "builder_calls": self.builder_calls,
            "builder_keys": len(self._builder_keys),
        }

    def write(self, path: str, ops: List[str]) -> None:
        """Gzipped JSON lines: a header naming ops and span names, then one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "names": self.names, "ops": ops}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.name_id[i]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]},{self.op[i]}]\n"
                )
