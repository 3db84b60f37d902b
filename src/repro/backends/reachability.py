"""Transitive reachability over breakpoint-compressed step functions.

The vector-clock substrate materialises two dense ``(|E|, |P|)``
matrices.  On *sparse-communication* traces that is mostly redundant: a
component ``T((n, j))[m]`` (``m ≠ n``) only changes at the receive
events of node ``n`` whose transitive past reaches deeper into node
``m`` — between receives it is constant in ``j``.  Following the
interval/summary encodings of graph reachability ("Causality is
Graphically Simple"), :class:`ReachabilityBackend` stores, per ordered
node pair ``(n, m)``, only the *breakpoints* of that step function:
ascending local indices where the value increases, with the value at
each.  The own component needs no storage at all
(``T((n, j))[n] = j``).

Queries bisect the breakpoint arrays:

* ``a = (m, i) ≼ b = (n, j)`` ⟺ value of ``(n, ·)[m]`` at ``j`` is
  ``≥ i`` — one ``O(log B)`` bisection (``B`` = breakpoints);
* timestamp-row reconstruction for the cut fills is one vectorized
  ``searchsorted`` per (node, column) over all queried indices of that
  node.

The *reverse* structure (Definition 14) is the same construction run on
the time-reversed trace; both directions are built lazily and
independently (at most one ``O(|E| + |M|·|P|)`` pass each per execution
version), so past-only consumers never pay for the future side —
matching the laziness contract of the vector substrate.

Total storage is ``O(|P|² + Σ breakpoints)`` with at most one
breakpoint per (receive, column): ``O(|P|² + |M|·|P|)`` worst case,
``≪ |E|·|P|`` whenever messages are rare — exactly the regime the
``backend_sparse`` benchmark section measures.
"""

from __future__ import annotations

# repro: dtype-strict

from bisect import bisect_right
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..events.clocks import CyclicTraceError
from ..events.event import EventId
from .base import CausalityBackend, register_backend
from .stats import CutStats, extrema_matrices, flatten_extrema

if TYPE_CHECKING:
    from ..events.poset import Execution
    from ..nonatomic.event import NonatomicEvent

__all__ = ["ReachabilityBackend"]


class _SparseClosure:
    """Breakpoint-compressed timestamps for one direction.

    ``bp[n]`` maps a column ``m ≠ n`` to a pair of aligned int64
    arrays ``(idx, val)``: ascending local indices on node ``n`` where
    component ``m`` of the timestamp increases, and the value from that
    index on.  Columns that never advance are simply absent (their
    component is 0 everywhere), so storage and iteration scale with the
    breakpoints that exist, not with ``|P|²``.  Component ``n`` of
    ``T((n, j))`` is ``j`` implicitly.
    """

    __slots__ = ("num_nodes", "lengths", "bp")

    def __init__(
        self,
        lengths: Sequence[int],
        bp: list[dict[int, tuple[np.ndarray, np.ndarray]]],
    ) -> None:
        self.num_nodes = len(lengths)
        self.lengths = tuple(lengths)
        self.bp = bp

    # ------------------------------------------------------------------
    def component(self, node: int, idx: int, col: int) -> int:
        """``T((node, idx))[col]`` — one bisection."""
        if col == node:
            return idx
        ent = self.bp[node].get(col)
        if ent is None:
            return 0
        pos = bisect_right(ent[0], idx) - 1
        return int(ent[1][pos]) if pos >= 0 else 0

    def rows(self, node: int, idxs: np.ndarray) -> np.ndarray:
        """Timestamp rows of events ``(node, idxs[i])`` as ``(k, P)``
        int64 — one vectorized ``searchsorted`` per *stored* column."""
        out = np.zeros((len(idxs), self.num_nodes), dtype=np.int64)
        out[:, node] = idxs
        for col, (bi, bv) in self.bp[node].items():
            pos = np.searchsorted(bi, idxs, side="right") - 1
            hit = pos >= 0
            out[hit, col] = bv[pos[hit]]
        return out

    @property
    def num_breakpoints(self) -> int:
        """Total stored breakpoints (compression diagnostic)."""
        return sum(
            int(bi.size) for per_node in self.bp for bi, _ in per_node.values()
        )


def _build_closure(
    lengths: Sequence[int],
    cross_deps: Mapping[EventId, tuple[EventId, ...]],
) -> _SparseClosure:
    """One worklist topological pass recording breakpoints only.

    Mirrors the scheduling of the dense clock pass
    (:func:`repro.events.clocks._run_clock_pass`) but keeps a single
    rolling row per node: events without cross dependencies cost O(1)
    (only the implicit own component moves), and each dependency-bearing
    event folds its predecessors' reconstructed rows and records a
    breakpoint per column that actually advanced.
    """
    num_nodes = len(lengths)
    # During the build, breakpoints live in per-node dicts of Python
    # lists (appended in ascending index order by construction) and are
    # frozen to arrays at the end; only columns that actually advance
    # ever exist, so nothing here scales with |P|².
    bp_l: list[dict[int, tuple[list[int], list[int]]]] = [
        {} for _ in range(num_nodes)
    ]
    # cur[n][m] = component m of the latest processed event of node n.
    cur = np.zeros((num_nodes, num_nodes), dtype=np.int64)

    def row_at(node: int, idx: int) -> np.ndarray:
        row = np.zeros(num_nodes, dtype=np.int64)
        row[node] = idx
        for col, (il, vl) in bp_l[node].items():
            pos = bisect_right(il, idx) - 1
            if pos >= 0:
                row[col] = vl[pos]
        return row

    done = [0] * num_nodes
    waiters: dict[EventId, list[int]] = {}
    stack = list(range(num_nodes))
    processed = 0
    total = sum(lengths)

    while stack:
        node = stack.pop()
        k = lengths[node]
        while done[node] < k:
            idx = done[node] + 1
            eid = (node, idx)
            deps = cross_deps.get(eid, ())
            blocked_on = None
            for dep_node, dep_idx in deps:
                if done[dep_node] < dep_idx:
                    blocked_on = (dep_node, dep_idx)
                    break
            if blocked_on is not None:
                waiters.setdefault(blocked_on, []).append(node)
                break
            if deps:
                row = cur[node]
                for dep_node, dep_idx in deps:
                    np.maximum(row, row_at(dep_node, dep_idx), out=row)
                per = bp_l[node]
                for col in map(int, np.flatnonzero(row)):
                    if col == node:
                        continue
                    v = int(row[col])
                    ent = per.get(col)
                    if ent is None:
                        per[col] = ([idx], [v])
                    elif v > ent[1][-1]:
                        ent[0].append(idx)
                        ent[1].append(v)
            done[node] = idx
            processed += 1
            woken = waiters.pop(eid, None)
            if woken:
                stack.extend(woken)

    if processed != total:
        stuck = [
            (i, done[i] + 1) for i in range(num_nodes) if done[i] < lengths[i]
        ]
        raise CyclicTraceError(
            f"trace has a causal cycle; events stuck at {stuck[:5]}"
        )
    bp = [
        {
            col: (
                np.asarray(il, dtype=np.int64),
                np.asarray(vl, dtype=np.int64),
            )
            for col, (il, vl) in per.items()
        }
        for per in bp_l
    ]
    return _SparseClosure(lengths, bp)


@register_backend
class ReachabilityBackend(CausalityBackend):
    """Causality queries via breakpoint-compressed reachability.

    Answers every protocol query without dense ``(|E|, |P|)`` matrices
    and without the execution's own reverse clock pass — the forward
    and reverse sparse closures are built directly from the trace,
    lazily per direction, keyed on the execution version.
    """

    __slots__ = ("_version", "_fwd", "_rev")

    name = "reachability"

    # Version-discipline contract enforced by `python -m repro lint`
    # (REP001/REP005); the decorator form lives in repro.core.versioning,
    # which this layer cannot import (core depends on backends).
    _REPRO_VERSIONED = {
        "version": "_version",
        "state": (),
        "caches": ("_fwd", "_rev"),
        "guards": ("invalidate", "_forward", "_reverse"),
    }

    def __init__(self, execution: "Execution") -> None:
        super().__init__(execution)
        self._version = execution.version
        self._fwd: _SparseClosure | None = None
        self._rev: _SparseClosure | None = None

    # ------------------------------------------------------------------
    # version discipline
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop both closures and re-arm against the current version."""
        self._fwd = None
        self._rev = None
        self._version = self._execution.version

    def _forward(self) -> _SparseClosure:
        """The forward closure, (re)built lazily per execution version."""
        if self._version != self._execution.version:
            self.invalidate()
        fwd = self._fwd
        if fwd is None:
            trace = self._execution.trace
            deps: dict[EventId, tuple[EventId, ...]] = {}
            for msg in trace.messages:
                deps[msg.recv] = deps.get(msg.recv, ()) + (msg.send,)
            fwd = self._fwd = _build_closure(self._execution.lengths, deps)
        return fwd

    def _reverse(self) -> _SparseClosure:
        """The reverse closure: the forward construction on the
        time-reversed trace (built lazily, independently of forward)."""
        if self._version != self._execution.version:
            self.invalidate()
        rev = self._rev
        if rev is None:
            trace = self._execution.trace
            lengths = self._execution.lengths

            def flip(eid: EventId) -> EventId:
                node, idx = eid
                return (node, lengths[node] - idx + 1)

            deps: dict[EventId, tuple[EventId, ...]] = {}
            for msg in trace.messages:
                r_send = flip(msg.send)
                deps[r_send] = deps.get(r_send, ()) + (flip(msg.recv),)
            rev = self._rev = _build_closure(lengths, deps)
        return rev

    # ------------------------------------------------------------------
    # pairwise order
    # ------------------------------------------------------------------
    def leq(self, a: EventId, b: EventId) -> bool:
        """``a ≼ b`` via one bisection on ``b``'s step function."""
        if a == b:
            return True
        a_node, a_idx = a
        b_node, b_idx = b
        if a_node == b_node:
            return a_idx <= b_idx
        return self._forward().component(b_node, b_idx, a_node) >= a_idx

    # ------------------------------------------------------------------
    # timestamp-row queries
    # ------------------------------------------------------------------
    def _rows(self, closure: _SparseClosure, ids: Sequence[EventId],
              flip: bool) -> np.ndarray:
        """Stacked rows for arbitrary ids, grouped by node so each
        (node, column) pair costs one vectorized bisection."""
        arr = np.asarray(ids, dtype=np.int64).reshape(-1, 2)
        out = np.zeros((arr.shape[0], self.num_nodes), dtype=np.int64)
        if flip:
            lengths = np.asarray(self._execution.lengths, dtype=np.int64)
            arr = arr.copy()
            arr[:, 1] = lengths[arr[:, 0]] - arr[:, 1] + 1
        for node in np.unique(arr[:, 0]):
            sel = np.flatnonzero(arr[:, 0] == node)
            out[sel] = closure.rows(int(node), arr[sel, 1])
        return out

    def forward_rows(self, ids: Sequence[EventId]) -> np.ndarray:
        """Stacked ``T(e)`` rows reconstructed from the forward closure."""
        return self._rows(self._forward(), ids, flip=False)

    def reverse_rows(self, ids: Sequence[EventId]) -> np.ndarray:
        """Stacked ``T^R(e)`` rows: the reverse closure is indexed by
        time-reversed local indices ``k_n - j + 1``."""
        return self._rows(self._reverse(), ids, flip=True)

    # ------------------------------------------------------------------
    # batched cut fill
    # ------------------------------------------------------------------
    def cut_stats(self, intervals: Sequence["NonatomicEvent"]) -> CutStats:
        """All four Table-2 cuts via extremal-row reconstruction.

        Reconstructs the forward and reverse timestamp rows of every
        per-node extremal event (grouped by node, one bisection batch
        per (node, column)), then reuses the segmented-reduction kernel
        of the columnar fill on the *gathered* rows — the dense
        matrices are never materialised.
        """
        ex = self._execution
        for iv in intervals:
            if iv.execution is not ex:
                raise ValueError("interval does not belong to this execution")
        nodes, first_idx, last_idx, counts = flatten_extrema(intervals)
        total = int(counts.sum())
        extremal_ids = np.empty((2 * total, 2), dtype=np.int64)
        extremal_ids[:total, 0] = nodes
        extremal_ids[:total, 1] = first_idx
        extremal_ids[total:, 0] = nodes
        extremal_ids[total:, 1] = last_idx
        fwd_rows = self.forward_rows(extremal_ids)
        rev_rows = self.reverse_rows(extremal_ids)
        lengths = np.asarray(ex.lengths, dtype=np.int64)
        return self._stats_from_rows(
            fwd_rows[:total], fwd_rows[total:],
            rev_rows[:total], rev_rows[total:],
            nodes, first_idx, last_idx, counts, lengths,
        )

    @staticmethod
    def _stats_from_rows(
        fwd_first: np.ndarray,
        fwd_last: np.ndarray,
        rev_first: np.ndarray,
        rev_last: np.ndarray,
        nodes: np.ndarray,
        first_idx: np.ndarray,
        last_idx: np.ndarray,
        counts: np.ndarray,
        lengths: np.ndarray,
    ) -> CutStats:
        """Segmented reductions over pre-gathered extremal rows."""
        k = len(counts)
        num_nodes = lengths.shape[0]
        if k == 0:
            empty = np.zeros((0, num_nodes), dtype=np.int64)
            return CutStats(empty, empty, empty, empty, empty, empty)
        starts = np.zeros(k, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        beyond = lengths + 1
        c1 = np.minimum.reduceat(fwd_first, starts, axis=0)
        c2 = np.maximum.reduceat(fwd_last, starts, axis=0)
        c3 = beyond - np.maximum.reduceat(rev_first, starts, axis=0)
        c4 = beyond - np.minimum.reduceat(rev_last, starts, axis=0)
        first, last = extrema_matrices(
            nodes, first_idx, last_idx, counts, num_nodes
        )
        for mat in (c1, c2, c3, c4, first, last):
            mat.setflags(write=False)
        return CutStats(c1, c2, c3, c4, first, last)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def forward_breakpoints(self) -> int:
        """Stored forward breakpoints (builds the closure if needed)."""
        return self._forward().num_breakpoints
