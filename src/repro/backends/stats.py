"""Backend-neutral cut-statistics containers and columnar kernels.

:class:`CutStats` is the stacked per-interval answer every causality
backend produces for a batched cut fill — the complete per-interval
state the vectorized relation conditions consume.  The segmented
gather-and-reduce kernel :func:`_stats_from_extrema` operates on
*columnar clock matrices* and therefore belongs to the vector-clock
substrate; it is kept here, next to :func:`flatten_extrema` (the
shared front half of every backend's batched fill) and
:func:`extrema_matrices` (its scatter into per-node first/last
matrices), so the flattening layout and the kernels that consume it
cannot drift apart.
"""

from __future__ import annotations

# repro: hot, dtype-strict

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..events.clocks import CLOCK_DTYPE

if TYPE_CHECKING:
    from ..nonatomic.event import NonatomicEvent

__all__ = [
    "CLOCK_DTYPE",
    "CutStats",
    "extrema_matrices",
    "flatten_extrema",
]


@dataclass(frozen=True, slots=True)
class CutStats:
    """Stacked per-interval cut and extremal vectors for k intervals.

    Six read-only ``(k, P)`` int64 matrices, rows aligned with the
    interval order they were built from: the four Table-2 cut
    timestamps plus the per-node first/last component indices (0
    encoding "node not in ``N_X``").  This is the complete per-interval
    state the vectorized relation conditions consume (the all-pairs
    kernel of :mod:`repro.core.pairwise` and the family kernel of
    :mod:`repro.core.family`).
    """

    c1: np.ndarray  # T(∩⇓X)
    c2: np.ndarray  # T(∪⇓X)
    c3: np.ndarray  # T(∩⇑X)
    c4: np.ndarray  # T(∪⇑X)
    first: np.ndarray
    last: np.ndarray

    def __len__(self) -> int:
        return self.c1.shape[0]


def flatten_extrema(
    intervals: "Sequence[NonatomicEvent]",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten ``intervals``' per-node extremal events, interval-major.

    Returns ``(nodes, first_idx, last_idx, counts)`` — the exact input
    shape of the segmented kernel :func:`_stats_from_extrema`, with
    ``counts[i]`` entries for interval ``i``.  This is the shared front
    half of every backend's batched ``cut_stats`` entry point (the
    vector backend follows it with dense-table gathers, the
    reachability backend with closure-row reconstruction), kept here so
    the flattening layout cannot drift between backends.
    """
    k = len(intervals)
    counts = np.fromiter((iv.width for iv in intervals), np.intp, count=k)
    total = int(counts.sum())
    nodes = np.empty(total, dtype=np.int64)
    first_idx = np.empty(total, dtype=np.int64)
    last_idx = np.empty(total, dtype=np.int64)
    pos = 0
    for iv in intervals:
        for node, j in iv.first_ids():
            nodes[pos] = node
            first_idx[pos] = j
            pos += 1
    pos = 0
    for iv in intervals:
        for _node, j in iv.last_ids():
            last_idx[pos] = j
            pos += 1
    return nodes, first_idx, last_idx, counts


def extrema_matrices(
    nodes: np.ndarray,
    first_idx: np.ndarray,
    last_idx: np.ndarray,
    counts: np.ndarray,
    num_nodes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter :func:`flatten_extrema` output into ``(k, P)`` matrices.

    Returns the per-node ``first`` and ``last`` component indices of
    each of the k intervals, int64, with 0 encoding "node not in
    ``N_X``" (real indices start at 1) — the layout of
    :attr:`CutStats.first`/:attr:`CutStats.last`.
    """
    k = len(counts)
    first = np.zeros((k, num_nodes), dtype=np.int64)
    last = np.zeros((k, num_nodes), dtype=np.int64)
    row_of = np.repeat(np.arange(k, dtype=np.intp), counts)
    first[row_of, nodes] = first_idx
    last[row_of, nodes] = last_idx
    return first, last


def _stats_from_extrema(
    fwd: np.ndarray,
    rev: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    nodes: np.ndarray,
    first_idx: np.ndarray,
    last_idx: np.ndarray,
    counts: np.ndarray,
) -> CutStats:
    """The one-pass columnar cut fill.

    ``nodes``/``first_idx``/``last_idx`` are the flattened per-node
    extremal events of all intervals (interval-major, ``counts[i]``
    entries for interval ``i``); ``fwd``/``rev`` are the columnar clock
    matrices and ``offsets`` the node-major row offsets.  All four
    Table-2 cut vectors for every interval come out of four gathers and
    four segmented min/max reductions — no per-interval Python loop.
    """
    k = len(counts)
    num_nodes = fwd.shape[1]
    if k == 0:
        empty = np.zeros((0, num_nodes), dtype=np.int64)
        return CutStats(empty, empty, empty, empty, empty, empty)
    starts = np.zeros(k, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    fi = offsets[nodes] + first_idx - 1
    li = offsets[nodes] + last_idx - 1
    beyond = lengths.astype(np.int64) + 1  # T(e↑) = k_i + 1 - T^R(e)
    c1 = np.minimum.reduceat(fwd[fi], starts, axis=0).astype(np.int64)
    c2 = np.maximum.reduceat(fwd[li], starts, axis=0).astype(np.int64)
    c3 = beyond - np.maximum.reduceat(rev[fi], starts, axis=0)
    c4 = beyond - np.minimum.reduceat(rev[li], starts, axis=0)
    first, last = extrema_matrices(
        nodes, first_idx, last_idx, counts, num_nodes
    )
    for mat in (c1, c2, c3, c4, first, last):
        mat.setflags(write=False)
    return CutStats(c1, c2, c3, c4, first, last)
