"""One degree's rows over every weight: the joint (Delta, i L_T) solve and its columns.

A row is the operator of one weight block (or one dense pair of
`spectral._reeb_sectors`) in one degree, cut into its Reeb sectors.
`SectorRows` holds the rows of a degree together: per sector size, the
(sectors, s, s) blocks of every row at once, with each sector's row, tau and
basis positions (`sectors.SectorStacks.spectrum_sectors` builds them).
`solve_rows` diagonalizes them with one stacked `eigh` per sector size and
clusters Delta on every row in one pass (`cluster_starts`, `run_means`),
exactly as `util.cluster_values` clusters each row alone.  The `JointRows` it
returns holds the joint eigenspaces as columns over every row (row, Delta,
tau, count), which `rumin spectrum` (`spectrum_columns`), `torsion` and the
sec4 suite read without a loop over weights; `components(row)` gives the dense
basis of one row's components.  The module is imported on first use, like
`sectors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import FrameStructure, block_label
from .operators import InternalConsistencyError


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an integer array.  `np.unique` would do, but it imports
    `numpy.ma`, which `verify` and `torsion` otherwise never load (0.85 MB of peak RSS on s3 at M=10)."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


@dataclass(frozen=True)
class SectorGroup:
    """The Reeb sectors of one size s among the rows of one degree."""

    owner: np.ndarray  # (n,) the row of each sector
    tau: np.ndarray  # (n,) its Reeb value
    index: np.ndarray  # (n, s) its basis positions in its row, ascending
    blocks: Tuple[np.ndarray, ...]  # (n, s, s) sector blocks of the operator, then of the half Laplacians


@dataclass(frozen=True)
class SectorRows:
    """A Hermitian operator of one degree on the Reeb sectors of every row (a weight block, or one
    dense pair of `spectral._reeb_sectors`), grouped by sector size, sizes ascending; within a group
    the sectors run by row, then by ascending tau.  Where `scale` is given, the groups also carry
    the sector blocks of the two half Laplacians, and `scale` is their max(1, max |entry|) per row."""

    dims: np.ndarray  # (W,) the dimension of each row
    groups: Tuple[SectorGroup, ...]
    scale: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return self.dims.size


def stack_rows(parts: Sequence[SectorRows]) -> SectorRows:
    """The rows of every part in one `SectorRows`, in order; sectors of one size share a group."""
    members: Dict[int, list] = {}
    first = 0
    for part in parts:
        for g in part.groups:
            members.setdefault(g.index.shape[1], []).append((first, g))
        first += part.size
    groups = []
    for size in sorted(members):
        cat = lambda field: np.concatenate([getattr(g, field) for _, g in members[size]])
        blocks = tuple(np.concatenate(stack) for stack in zip(*(g.blocks for _, g in members[size])))
        owner = np.concatenate([lo + g.owner for lo, g in members[size]])
        groups.append(SectorGroup(owner, cat("tau"), cat("index"), blocks))
    dims = np.concatenate([part.dims for part in parts]) if parts else np.zeros(0, dtype=int)
    return SectorRows(dims, tuple(groups))


def cluster_starts(segment: np.ndarray, values: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Where each cluster of `util.cluster_values` begins, within every segment of sorted values:
    a value joins the open cluster when it lies within tol (one per value) of the cluster's first
    value.  `segment` is nondecreasing and `values` ascend within a segment."""
    start = np.ones(values.size, dtype=bool)
    if values.size < 2:
        return start
    # a step beyond tol always starts a cluster, and a run within tol of its first value is one
    start[1:] = (segment[1:] != segment[:-1]) | ~(np.abs(values[1:] - values[:-1]) <= tol[1:])
    first = np.flatnonzero(start)
    run = np.cumsum(start) - 1
    for r in _distinct(run[~(np.abs(values - values[first[run]]) <= tol)]).tolist():
        # a chain of steps within tol that spans more than tol: walked value by value
        lo, hi = first[r], first[r + 1] if r + 1 < first.size else values.size
        rep = values[lo]
        for i in range(lo + 1, hi):
            if not abs(values[i] - rep) <= tol[i]:
                start[i], rep = True, values[i]
    return start


def run_means(values: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The mean of every run of `values` that begins where `start` holds, each sum taken value by
    value in order, as `util.cluster_values` sums (a pairwise sum can differ in the last bit)."""
    first = np.flatnonzero(start)
    length = np.diff(np.append(first, values.size))
    by_length = np.argsort(-length, kind="stable")
    lo, size = first[by_length], length[by_length]
    total = values[lo]
    for j in range(1, int(size[0]) if size.size else 0):
        live = np.searchsorted(-size, -j)  # the runs longer than j
        total[:live] += values[lo[:live] + j]
    means = np.empty(first.size)
    means[by_length] = total / size
    return means


def round_sig_values(values: np.ndarray, digits: int = 12) -> np.ndarray:
    """`util.round_sig` of every value of a float array, as it rounds a numpy float.

    `round` of an `np.float64` is numpy's rounding (scale by 10^d, round half
    to even, scale back), not Python's, which rounds the exact binary value;
    so the values that share one decimal count d = digits - 1 - floor(log10
    |x|) are rounded by one `np.round`.  The magnitudes come from `math.log10`,
    as in `util.round_sig`, and zero stays 0.0.
    """
    out = np.zeros(values.size)
    nonzero = np.flatnonzero(values != 0)
    decimals = np.array([digits - 1 - math.floor(math.log10(abs(x))) for x in values[nonzero].tolist()], dtype=int)
    for d in _distinct(decimals).tolist():
        at = nonzero[decimals == d]
        out[at] = np.round(values[at], d)
    return out


@dataclass(frozen=True)
class JointRows:
    """The joint (Delta, i L_T) eigenspaces of every row of a `SectorRows`, held as columns.

    `vectors[g]` holds the (n, s, s) sector eigenvectors of group g.  The
    eigenvector columns are numbered group by group, sector by sector, by
    ascending eigenvalue within a sector.  `order` lists them in component
    order: component i is `order[starts[i]:starts[i + 1]]`, columns of one
    sector of row `owner[i]`, with Delta cluster mean `delta[i]` and Reeb value
    `tau[i]`.  Components run by row, Delta cluster, then tau.
    """

    rows: SectorRows
    vectors: Tuple[np.ndarray, ...]
    order: np.ndarray
    starts: np.ndarray
    owner: np.ndarray
    delta: np.ndarray
    tau: np.ndarray

    @property
    def count(self) -> np.ndarray:
        return np.diff(self.starts)

    def row_components(self, row: int) -> Tuple[int, int]:
        """The components of one row, as the range lo:hi."""
        lo, hi = np.searchsorted(self.owner, [row, row + 1])
        return int(lo), int(hi)

    def column_component(self) -> np.ndarray:
        """The component of every eigenvector column."""
        out = np.empty(self.order.size, dtype=int)
        out[self.order] = np.repeat(np.arange(self.owner.size), self.count)
        return out

    def per_group(self, columns: np.ndarray) -> List[np.ndarray]:
        """A value per eigenvector column, as one (n, 1, s) array per group."""
        out, lo = [], 0
        for q in self.vectors:
            n, s, _ = q.shape
            out.append(columns[lo : lo + n * s].reshape(n, 1, s))
            lo += n * s
        return out

    def row_max(self, per_sector: Sequence[np.ndarray]) -> np.ndarray:
        """The largest of one value per sector (an (n,) array per group) on each row, 0 on none."""
        out = np.zeros(self.rows.size)
        for g, values in zip(self.rows.groups, per_sector):
            np.maximum.at(out, g.owner, values)
        return out

    def half_pairs(self, tol: float = 1e-9) -> Tuple[np.ndarray, np.ndarray]:
        """(lambda10, lambda01) of every component, from the half-Laplacian sector blocks of the
        rows (below the middle degree), each rounded as `util.round_sig` rounds it
        (`round_sig_values`).

        Each half Laplacian must act on a component as its Rayleigh quotient;
        there sqrt(Delta) and i L_T are the sum and difference of the two half
        Laplacians.
        """
        if not self.owner.size:
            return np.zeros(0), np.zeros(0)
        component = self.column_component()
        pairs = []
        for half in (1, 2):
            images = [g.blocks[half] @ q for g, q in zip(self.rows.groups, self.vectors)]
            per_column = np.concatenate(
                [np.real(np.sum(q.conj() * image, axis=1)).ravel() for q, image in zip(self.vectors, images)]
            )
            ray = np.add.reduceat(per_column[self.order], self.starts[:-1]) / self.count
            scaled = self.per_group(ray[component])
            resid = self.row_max([np.abs(im - q * r).max(axis=(1, 2)) for im, q, r in zip(images, self.vectors, scaled)])
            if np.any(resid > 10 * tol * self.rows.scale):
                raise InternalConsistencyError("half Laplacians are not scalar on a joint eigenspace")
            pairs.append(np.where(0.0 > ray, 0.0, ray))
        return tuple(round_sig_values(values) for values in pairs)

    def bidegree_tags(self, labels: Sequence[np.ndarray], n_labels: int, tol: float = 1e-9) -> np.ndarray:
        """The label index of every component, or -1 where its eigenspace is not
        bidegree-homogeneous: one weighted count over all eigenvector entries.  `labels[g]` is the
        (n, s) label index of every basis position of group g."""
        if not self.owner.size:
            return np.zeros(0, dtype=int)
        keys, weights = [], []
        for q, lab, comp in zip(self.vectors, labels, self.per_group(self.column_component())):
            # entry r of column e of a sector counts for the label of position r, by r, then column
            keys.append((comp * n_labels + lab[:, :, None]).transpose(1, 0, 2).ravel())
            weights.append((np.abs(q) ** 2).transpose(1, 0, 2).ravel())
        size = self.owner.size
        mass = np.bincount(np.concatenate(keys), np.concatenate(weights), size * n_labels).reshape(size, n_labels)
        best = np.argmax(mass, axis=1)
        homogeneous = mass[np.arange(size), best] >= (1.0 - tol) * np.sum(mass, axis=1)
        return np.where(homogeneous, best, -1)

    def components(self, row: int) -> List[tuple]:
        """(Delta, tau, basis) of every component of one row, each basis a run of columns of one
        dense matrix in the row's basis positions."""
        lo, hi = self.row_components(row)
        cols = self.order[self.starts[lo] : self.starts[hi]]
        vecs = np.zeros((int(self.rows.dims[row]), cols.size), dtype=complex)
        first = 0
        for g, q in zip(self.rows.groups, self.vectors):
            n, s, _ = q.shape
            mine = np.flatnonzero((cols >= first) & (cols < first + n * s))
            sector, e = np.divmod(cols[mine] - first, s)
            vecs[g.index[sector], mine[:, None]] = q[sector, :, e]
            first += n * s
        bounds = (self.starts[lo : hi + 1] - self.starts[lo]).tolist()
        return [
            (d, t, vecs[:, a:b])
            for d, t, a, b in zip(self.delta[lo:hi].tolist(), self.tau[lo:hi].tolist(), bounds, bounds[1:])
        ]


def solve_rows(rows: SectorRows, tol: float = 1e-9) -> JointRows:
    """The joint (Delta, i L_T) eigenspaces of every row: one stacked `eigh` per sector size, then
    one clustering pass over every row.

    Each sector is diagonalized on its own, so the eigenpairs of one row do not
    depend on the others.  Delta is clustered per row as `util.cluster_values`
    clusters it, with the row's tolerance tol * max(1, max |Delta| on the row),
    and a cluster's mean is taken over all of its sectors.
    """
    values, vectors, owner, tau = [np.zeros(0)], [], [np.zeros(0, dtype=int)], [np.zeros(0)]
    for g in rows.groups:
        w, q = np.linalg.eigh(g.blocks[0])
        size = w.shape[1]
        values.append(w.ravel())
        vectors.append(q)
        owner.append(np.repeat(g.owner, size))
        tau.append(np.repeat(g.tau, size))
    values, owner, tau = (np.concatenate(parts) for parts in (values, owner, tau))
    by_value = np.lexsort((values, owner))  # Delta ascending on every row
    row, ascending = owner[by_value], values[by_value]
    top = np.zeros(rows.size)
    np.maximum.at(top, row, np.abs(ascending))
    start = cluster_starts(row, ascending, (tol * np.maximum(1.0, top))[row])
    cluster = np.empty(values.size, dtype=int)
    cluster[by_value] = np.cumsum(start) - 1
    means = run_means(ascending, start)
    # one component per (row, Delta cluster, sector), as a run of columns
    order = np.lexsort((tau, cluster))
    c, t = cluster[order], tau[order]
    new = np.ones(values.size, dtype=bool)
    new[1:] = (c[1:] != c[:-1]) | (t[1:] != t[:-1])
    first = np.flatnonzero(new)
    return JointRows(rows, tuple(vectors), order, np.append(first, values.size), owner[order[first]], means[c[first]], t[first])


def spectrum_columns(frame: FrameStructure, weights: Sequence[int], multiplicity: Sequence[int], op: str, degrees, t: float):
    """The columns of the `spectrum` table of `op` over the weight blocks `weights` (with their
    `multiplicity`), as `spectral.SpectrumTable.columns`.

    `SectorStacks` builds each degree's operator on the Reeb sectors of every
    weight at once, one row per weight; a basis position i*(m+1) + b carries
    the bidegree label of its fiber vector i.  The stacks are freed once every
    degree is cut, and each degree is solved by `solve_rows` and dropped once
    its columns exist.  The table is sorted when it is written.
    """
    from .sectors import SectorStacks

    stacks = SectorStacks(frame, weights)
    names: dict = {}
    tables = []  # per degree: the degree, its rows, and the label index of every fiber vector
    for k in degrees:
        rows, labels = stacks.spectrum_sectors(op, k, t)
        tables.append((k, rows, np.array([names.setdefault(label, len(names)) for label in labels], dtype=int)))
    del stacks
    tags = np.array([*names, None], dtype=object)  # tag -1: not bidegree-homogeneous
    blocks = np.array([block_label(m) for m in weights], dtype=str)
    weights, multiplicity = np.asarray(weights, dtype=int), np.asarray(multiplicity, dtype=int)
    parts = []
    while tables:
        k, rows, ids = tables.pop()
        joint = solve_rows(rows)
        labels = [ids[g.index // (weights[g.owner] + 1)[:, None]] for g in joint.rows.groups]
        size = joint.owner.size
        l10, l01 = joint.half_pairs() if joint.rows.scale is not None else (np.full(size, np.nan),) * 2
        parts.append(
            {
                "degree": np.full(size, k),
                "block": blocks[joint.owner],
                "eigenvalue": np.where(0.0 > joint.delta, 0.0, joint.delta),
                "multiplicity": multiplicity[joint.owner] * joint.count,
                "nu": 0.0 - joint.tau,  # L_T acts by i*nu; never -0.0
                "lambda10": l10,
                "lambda01": l01,
                "bidegree": tags[joint.bidegree_tags(labels, len(names))],
            }
        )
        del joint
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
