"""One degree's rows over every weight: the joint (Delta, i L_T) solve and its columns.

A row is the operator of one weight block (or one dense pair of
`spectral._reeb_sectors`) in one degree, cut into its Reeb sectors.  The rows
of a degree share one `sectors.RowStack`: the operator as a zero-padded
(f, f, S) stack over the sectors of every row, with each sector's row and tau
and each position's valid flag and basis index
(`sectors.SectorStacks.spectrum_rows` builds it).  `solve_rows` takes the
eigenpairs of every sector from `sectors._eigh`, one stacked `eigh` per sector
size on the valid blocks only, and clusters Delta on every row in one pass
(`cluster_starts`, `run_means`), exactly as `util.cluster_values` clusters each
row alone, at the fixed `CLUSTER_TOL`.  The `JointRows` it returns holds the
joint eigenspaces as columns over every row (row, sector, Delta, tau, count)
next to the padded eigenpairs, which `rumin spectrum` (`spectrum_columns`),
`torsion` and the `verify` suites read without a loop over weights; the
products on the eigenvectors run group by group on the valid sector blocks
(`JointRows.sector_blocks`), so the padding enters none of them.
`components(row)` gives the dense basis of one row's components, `half_pairs`
their (lambda10, lambda01).  Like `sectors`, the module is imported on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .model import block_label
from .operators import InternalConsistencyError
from .sectors import BIDEGREE_TOL, SPECTRUM_FLAVOR, RowStack, SectorStacks, _distinct, _eigh, _gather, _per_row

CLUSTER_TOL = 1e-9  # Delta clusters within CLUSTER_TOL * max(1, max |Delta| on its row); half_pairs checks at 10x it


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


def round_sig_values(values: np.ndarray) -> np.ndarray:
    """`util.round_sig` of every value of a float array, to 12 significant digits, as it rounds a
    numpy float.

    `round` of an `np.float64` is numpy's rounding (scale by 10^d, round half
    to even, scale back), not Python's, which rounds the exact binary value;
    so the values that share one decimal count d = 11 - floor(log10 |x|) are
    rounded by one `np.round`.  The magnitudes come from `math.log10`, as in
    `util.round_sig`, and zero stays 0.0.
    """
    out = np.zeros(values.size)
    nonzero = np.flatnonzero(values != 0)
    decimals = np.array([11 - math.floor(math.log10(abs(x))) for x in values[nonzero].tolist()], dtype=int)
    for d in _distinct(decimals).tolist():
        at = nonzero[decimals == d]
        out[at] = np.round(values[at], d)
    return out


@dataclass(frozen=True)
class JointRows:
    """The joint (Delta, i L_T) eigenspaces of every row of a `sectors.RowStack`, held as columns.

    `values`, `vectors` and `used` are the (f, S) eigenvalues, (f, f, S) eigenvectors and (f, S)
    used-column mask of `sectors._eigh` on every sector: column e of sector s is the eigenvector of
    its e-th smallest eigenvalue, zero where unused, and is numbered e * S + s.  `order` lists the
    columns in use in component order: component i is `order[starts[i]:starts[i + 1]]`, columns of
    sector `sector[i]` of row `owner[i]`, with Delta cluster mean `delta[i]` and Reeb value
    `tau[i]`.  Components run by row, Delta cluster, then tau.
    """

    rows: RowStack
    values: np.ndarray
    vectors: np.ndarray
    used: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    owner: np.ndarray
    sector: np.ndarray
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
        """The component of every eigenvector column, -1 where the column is unused."""
        out = np.full(self.rows.valid.size, -1)
        out[self.order] = np.repeat(np.arange(self.owner.size), self.count)
        return out

    def sector_blocks(self, *stacks: np.ndarray):
        """Per group of sectors of one size s > 0 (`RowStack.groups`): the sectors (n,), their
        eigenvector columns (n, s), and the (n, s, s) valid blocks of the eigenvectors and of every
        given stack."""
        sectors = self.rows.valid.shape[1]
        for sel, pos, _ in self.rows.groups:
            if pos.shape[1]:
                cols = np.broadcast_to(np.arange(pos.shape[1]), pos.shape)
                blocks = [_gather(stack, sel, pos, pos) for stack in stacks]
                yield sel, cols * sectors + sel[:, None], _gather(self.vectors, sel, pos, cols), blocks

    def half_pairs(self, halves) -> Tuple[np.ndarray, np.ndarray]:
        """(lambda10, lambda01) of every component, from the half-Laplacian pair `halves` of its
        degree (`SectorStacks.half_laplacians`, below the middle degree), each rounded as
        `util.round_sig` rounds it (`round_sig_values`).

        Each half Laplacian must act on a component as its Rayleigh quotient,
        within 10 * CLUSTER_TOL * the stacks' scale; there sqrt(Delta) and i L_T
        are the sum and difference of the two half Laplacians.
        """
        if not self.owner.size:
            return np.zeros(0), np.zeros(0)
        component = self.column_component()
        *halves, scale = halves
        pairs = []
        for half in halves:
            images = [(sel, cols, q, h @ q) for sel, cols, q, (h,) in self.sector_blocks(half)]
            per_column = np.zeros(component.size)
            for _, cols, q, image in images:
                per_column[cols] = np.sum(q * image, axis=1)  # the stacks' eigenvectors are real
            ray = np.add.reduceat(per_column[self.order], self.starts[:-1]) / self.count
            resid = np.zeros(self.rows.tau.size)
            for sel, cols, q, image in images:
                resid[sel] = np.abs(image - q * ray[component[cols]][:, None, :]).max(axis=(1, 2))
            if np.any(_per_row(resid, self.rows.starts, np.maximum) > 10 * CLUSTER_TOL * scale):
                raise InternalConsistencyError("half Laplacians are not scalar on a joint eigenspace")
            pairs.append(np.where(0.0 > ray, 0.0, ray))
        return tuple(round_sig_values(values) for values in pairs)

    def bidegree_tags(self, labels: np.ndarray, n_labels: int) -> np.ndarray:
        """The label index of every component, or -1 where its eigenspace is not
        bidegree-homogeneous: one weighted count over all eigenvector entries.  `labels` is the
        label index of every position, an (f, S) array or one (f, 1) column for every sector."""
        if not self.owner.size:
            return np.zeros(0, dtype=int)
        valid = self.rows.valid
        comp = self.column_component().reshape(valid.shape)
        # entry r of column e of sector s counts for the label of position r, by r, then column
        keys = comp[None, :, :] * n_labels + np.broadcast_to(labels, valid.shape)[:, None, :]
        use = valid[:, None, :] & (comp >= 0)[None, :, :]
        size = self.owner.size
        mass = np.bincount(keys[use], (np.abs(self.vectors) ** 2)[use], size * n_labels).reshape(size, n_labels)
        best = np.argmax(mass, axis=1)
        homogeneous = mass[np.arange(size), best] >= (1.0 - BIDEGREE_TOL) * np.sum(mass, axis=1)
        return np.where(homogeneous, best, -1)

    def components(self, row: int) -> List[tuple]:
        """(Delta, tau, basis) of every component of one row, each basis a run of columns of one
        dense matrix in the row's basis positions."""
        lo, hi = self.row_components(row)
        cols = self.order[self.starts[lo] : self.starts[hi]]
        e, s = np.divmod(cols, self.rows.tau.size)
        r, j = np.nonzero(self.rows.valid[:, s])
        vecs = np.zeros((int(self.rows.dims[row]), cols.size), dtype=self.vectors.dtype)
        vecs[self.rows.index[r, s[j]], j] = self.vectors[r, e[j], s[j]]
        bounds = (self.starts[lo : hi + 1] - self.starts[lo]).tolist()
        return [
            (d, t, vecs[:, a:b])
            for d, t, a, b in zip(self.delta[lo:hi].tolist(), self.tau[lo:hi].tolist(), bounds, bounds[1:])
        ]


def solve_rows(rows: RowStack) -> JointRows:
    """The joint (Delta, i L_T) eigenspaces of every row: the eigenpairs of every sector
    (`sectors._eigh` of the stack), then one clustering pass over every row.

    Each sector is diagonalized on its own, so the eigenpairs of one row do not
    depend on the others.  Delta is clustered per row as `util.cluster_values`
    clusters it, within CLUSTER_TOL * max(1, max |Delta| on the row), and a
    cluster's mean is taken over all of its sectors.
    """
    w, vectors, used = _eigh(rows.stack, rows.valid, rows.groups)
    col = np.flatnonzero(used)  # the columns in use, e * S + s
    values, sector = w.ravel()[col], col % used.shape[1]
    owner, tau = rows.owner[sector], rows.tau[sector]
    by_value = np.lexsort((values, owner))  # Delta ascending on every row
    row, ascending = owner[by_value], values[by_value]
    top = np.zeros(rows.dims.size)
    np.maximum.at(top, row, np.abs(ascending))
    start = cluster_starts(row, ascending, (CLUSTER_TOL * np.maximum(1.0, top))[row])
    cluster = np.empty(values.size, dtype=int)
    cluster[by_value] = np.cumsum(start) - 1
    means = run_means(ascending, start)
    # one component per (row, Delta cluster, sector), as a run of columns
    order = np.lexsort((tau, cluster))
    c, t = cluster[order], tau[order]
    new = np.ones(values.size, dtype=bool)
    new[1:] = (c[1:] != c[:-1]) | (t[1:] != t[:-1])
    first = np.flatnonzero(new)
    at = order[first]
    columns = (col[order], np.append(first, values.size), owner[at], sector[at], means[c[first]], t[first])
    return JointRows(rows, w, vectors, used, *columns)


def spectrum_columns(asm, op: str, degrees: Sequence[int], t: float) -> dict:
    """The columns of the `spectrum` table of `op` in `degrees` over the weight blocks of the
    assembly `asm` (`spectral.Assembly`), as `spectral.SpectrumTable.columns`.

    A private `SectorStacks` (not `asm.sector_stacks`, which the assembly would
    keep) builds each degree's operator on the Reeb sectors of every weight at
    once, one row per weight, and the half-Laplacian pair of delta-rn below the
    middle degree; position i of a sector is fiber vector i, with its bidegree
    label.  The stacks are freed once every degree's rows exist, and each degree
    is solved by `solve_rows` and dropped once its columns exist.
    """
    stacks = SectorStacks(asm.model.frame, asm.weights)
    names: dict = {}
    tables = []  # per degree: the degree, its rows, its half-Laplacian pair, the label index of every fiber vector
    for k in degrees:
        rows, labels = stacks.spectrum_rows(op, k, t), stacks.bidegree_labels(k, SPECTRUM_FLAVOR[op])
        halves = stacks.half_laplacians(k) if op == "delta-rn" and k < stacks.n else None
        tables.append((k, rows, halves, np.array([names.setdefault(label, len(names)) for label in labels], dtype=int)))
    del stacks
    tags = np.array([*names, None], dtype=object)  # tag -1: not bidegree-homogeneous
    blocks = np.array([block_label(m) for m in asm.weights], dtype=str)
    multiplicity = np.asarray(asm.multiplicity, dtype=int)
    parts = []
    while tables:
        k, rows, halves, ids = tables.pop()
        joint = solve_rows(rows)
        size = joint.owner.size
        l10, l01 = joint.half_pairs(halves) if halves is not None else (np.full(size, np.nan),) * 2
        parts.append(
            {
                "degree": np.full(size, k),
                "block": blocks[joint.owner],
                "eigenvalue": np.where(0.0 > joint.delta, 0.0, joint.delta),
                "multiplicity": multiplicity[joint.owner] * joint.count,
                "nu": 0.0 - joint.tau,  # L_T acts by i*nu; never -0.0
                "lambda10": l10,
                "lambda01": l01,
                "bidegree": tags[joint.bidegree_tags(ids[:, None], len(names))],
            }
        )
        del joint, rows, halves
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
