"""Canonical vector clocks and reverse vector clocks, stored columnar.

Implements the timestamping machinery of Section 2.3 of the paper:

* **Forward timestamps** (Definition 13, the canonical vector clocks of
  Fidge and Mattern): ``T(e)[i]`` is the number of real events on node
  ``i`` that causally precede or equal ``e``.  The fundamental property
  is ``e ≺ e'  ⟺  T(e) < T(e')`` (componentwise ``≤`` with at least one
  strict), and for distinct events the cheap test
  ``e ≺ e'  ⟺  T(e')[node(e)] ≥ index(e)``.

* **Reverse timestamps** (Definition 14): ``T^R(e)[i]`` is the number of
  real events on node ``i`` that causally happen after or equal ``e``.
  As the paper observes, *"once the timestamp structure is established
  for the entire computation, the 'reverse' timestamp structure can also
  be established"* — we compute it by running the forward algorithm on
  the time-reversed trace.

Both computations run in a single topological pass over the trace using
a work-list (no transitive closure), with per-event cost ``O(|P|)`` from
the componentwise ``max``.

Storage layout
--------------
Each structure is one contiguous ``(|E|, |P|)`` int32 matrix — a
:class:`ClockTable` — indexed by the *flat event index*
``offsets[node] + idx - 1`` (node-major, local order within a node).
One matrix per structure (instead of one small array per event, or one
matrix per node) is what makes the columnar cut kernels of
:mod:`repro.core.cuts` single-gather operations.  Per-event and
per-node accessors return views into the matrix, so the historical
per-event API is preserved without copies.
"""

from __future__ import annotations

# repro: hot, dtype-strict

from collections.abc import Mapping, Sequence

import numpy as np

from .event import EventId
from .trace import Trace, TraceError

__all__ = [
    "CLOCK_DTYPE",
    "ClockTable",
    "GrowableClockTable",
    "CyclicTraceError",
    "compute_forward_table",
    "compute_reverse_table",
    "extend_forward_table",
    "compute_forward_clocks",
    "compute_reverse_clocks",
    "extend_forward_clocks",
    "clock_pass_counts",
    "reset_clock_pass_counts",
]

#: dtype of the columnar clock matrices.  int32 halves the memory
#: traffic of the previous int64 representation; clock components count
#: events on one node, so the range is ample.
CLOCK_DTYPE = np.int32

#: Number of full/incremental clock passes executed since the last reset
#: *in this process*, keyed by pass kind.  Purely diagnostic: regression
#: tests use it to assert that lazy code paths (e.g. the online
#: monitor's ingestion) never trigger a pass they should not pay for.
_PASS_COUNTS: dict[str, int] = {"forward": 0, "reverse": 0, "extend": 0}


def clock_pass_counts() -> dict[str, int]:
    """A snapshot of this process's pass counters.

    Keys ``forward``/``reverse``/``extend``.
    """
    return dict(_PASS_COUNTS)


def reset_clock_pass_counts() -> None:
    """Zero this process's pass counters (test-isolation helper)."""
    for key in _PASS_COUNTS:
        _PASS_COUNTS[key] = 0


class CyclicTraceError(TraceError):
    """Raised when a trace's happened-before relation contains a cycle.

    A cycle can only arise from message edges that contradict local
    orders (e.g. node 0 receives from node 1 before sending it the
    message that causally enabled that send).
    """


class ClockTable:
    """One timestamp structure as a contiguous ``(|E|, |P|)`` matrix.

    Row ``offsets[i] + j - 1`` holds the vector timestamp of event
    ``(i, j)``; node ``i``'s rows are the contiguous block
    ``data[offsets[i]:offsets[i+1]]``.  ``data`` is C-contiguous int32
    and read-only, which makes every accessor a zero-copy view.
    """

    __slots__ = ("data", "offsets", "lengths")

    def __init__(self, data: np.ndarray, lengths: Sequence[int]) -> None:
        lens = np.asarray(lengths, dtype=np.int64)
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        if data.shape != (int(offsets[-1]), len(lens)):
            raise ValueError(
                f"clock matrix must have shape {(int(offsets[-1]), len(lens))}, "
                f"got {data.shape}"
            )
        if data.dtype != CLOCK_DTYPE or not data.flags.c_contiguous:
            data = np.ascontiguousarray(data, dtype=CLOCK_DTYPE)
        data.setflags(write=False)
        offsets.setflags(write=False)
        lens.setflags(write=False)
        self.data = data
        self.offsets = offsets
        self.lengths = lens

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``|P|`` — the vector width."""
        return self.data.shape[1]

    @property
    def total_events(self) -> int:
        """``|E|`` — the number of rows."""
        return self.data.shape[0]

    def row(self, node: int, idx: int) -> np.ndarray:
        """The timestamp of event ``(node, idx)`` (read-only view)."""
        return self.data[self.offsets[node] + idx - 1]

    def node_view(self, node: int) -> np.ndarray:
        """All of ``node``'s rows as a ``(k_i, P)`` view (zero-copy)."""
        return self.data[self.offsets[node]:self.offsets[node + 1]]

    def views(self) -> list[np.ndarray]:
        """Per-node ``(k_i, P)`` views, in node order (zero-copy)."""
        return [self.node_view(i) for i in range(self.num_nodes)]

    def flat_indices(self, ids: Sequence[EventId]) -> np.ndarray:
        """Flat row indices for a sequence of event ids (vectorized)."""
        arr = np.asarray(ids, dtype=np.int64).reshape(-1, 2)
        return self.offsets[arr[:, 0]] + arr[:, 1] - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClockTable(events={self.total_events}, "
            f"nodes={self.num_nodes}, dtype={self.data.dtype})"
        )


class GrowableClockTable:
    """Append-only forward-clock storage for streaming ingestion.

    :class:`ClockTable` is the right substrate for a *finished* trace —
    one immutable node-major matrix — but a live monitor appends one
    event at a time in arbitrary cross-node interleaving.  This class
    keeps one capacity-doubling ``(cap_i, |P|)`` int32 block per node,
    so an append is an in-place row write (copy the node's previous
    row, fold message dependencies with ``np.maximum``, tick own
    component): amortized O(|P|) with **no per-event allocation**.

    Rows are written exactly once and never mutated afterwards, so
    views handed out by :meth:`row` / :meth:`node_view` remain valid
    snapshots even across a capacity-doubling reallocation (the old
    buffer's values are final).

    :meth:`snapshot` materialises the live contents as a regular
    :class:`ClockTable` — one block copy per node, **zero clock
    passes** (the ``forward``/``extend`` counters of
    :func:`clock_pass_counts` do not move) — and memoizes the result
    keyed by :attr:`version`, so repeated finalisations of an unchanged
    stream are free.
    """

    __slots__ = ("_blocks", "_counts", "_version", "_snapshot",
                 "_snapshot_version")

    # Version-discipline contract enforced by `python -m repro lint`
    # (REP001/REP005); the decorator form lives in repro.core.versioning,
    # which this layer cannot import (core depends on events).
    _REPRO_VERSIONED = {
        "version": "_version",
        "state": ("_blocks", "_counts"),
        "caches": ("_snapshot",),
        "guards": (),
    }

    def __init__(self, num_nodes: int, capacity: int = 16) -> None:
        if num_nodes <= 0:
            raise ValueError("need at least one node")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._blocks: list[np.ndarray] = [
            np.zeros((capacity, num_nodes), dtype=CLOCK_DTYPE)
            for _ in range(num_nodes)
        ]
        self._counts: list[int] = [0] * num_nodes
        self._version = 0
        self._snapshot: "ClockTable | None" = None
        self._snapshot_version = -1

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``|P|`` — the vector width."""
        return len(self._blocks)

    @property
    def total_events(self) -> int:
        """Total appended events across all nodes."""
        return self._version

    @property
    def version(self) -> int:
        """Monotonic append counter (equals :attr:`total_events`).

        :meth:`snapshot` and downstream finalisation caches key on it.
        """
        return self._version

    def count(self, node: int) -> int:
        """Number of events appended on ``node``."""
        return self._counts[node]

    @property
    def lengths(self) -> tuple[int, ...]:
        """Per-node appended event counts."""
        return tuple(self._counts)

    def row(self, node: int, idx: int) -> np.ndarray:
        """The timestamp of event ``(node, idx)`` (live view; treat as
        read-only — rows are immutable once written)."""
        if not 1 <= idx <= self._counts[node]:
            raise IndexError(
                f"event ({node}, {idx}) has not been appended "
                f"(node has {self._counts[node]} events)"
            )
        return self._blocks[node][idx - 1]

    def node_view(self, node: int) -> np.ndarray:
        """``node``'s appended rows as a ``(count, P)`` view (zero-copy)."""
        return self._blocks[node][: self._counts[node]]

    # ------------------------------------------------------------------
    def advance(self, node: int, extra: "np.ndarray | None" = None) -> np.ndarray:
        """Append the next event on ``node`` and return its clock row.

        The new row is the node's previous row (or zeros for the first
        event) folded with ``extra`` (a message dependency's clock, if
        any) under componentwise max, with the own component ticked —
        Mattern/Fidge maintenance, written straight into preallocated
        storage.
        """
        blk = self._blocks[node]
        k = self._counts[node]
        if k == blk.shape[0]:
            grown = np.zeros((2 * k, len(self._blocks)), dtype=CLOCK_DTYPE)
            grown[:k] = blk
            blk = self._blocks[node] = grown
        row = blk[k]
        if k:
            row[:] = blk[k - 1]
        if extra is not None:
            np.maximum(row, extra, out=row)
        row[node] = k + 1
        self._counts[node] = k + 1
        self._version += 1
        return row

    # ------------------------------------------------------------------
    def snapshot(self) -> ClockTable:
        """The live contents as an immutable :class:`ClockTable`.

        One C-level block copy per node; no clock pass.  Memoized by
        :attr:`version`: finalising an unchanged stream twice returns
        the same table object.
        """
        if self._snapshot is not None and self._snapshot_version == self._version:
            return self._snapshot
        data = np.concatenate(
            [self.node_view(i) for i in range(self.num_nodes)], axis=0
        )
        table = ClockTable(data, self.lengths)
        self._snapshot = table
        self._snapshot_version = self._version
        return table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GrowableClockTable(events={self.total_events}, "
            f"nodes={self.num_nodes})"
        )


def _run_clock_pass(
    lengths: Sequence[int],
    cross_deps: Mapping[EventId, tuple[EventId, ...]],
    prior: "ClockTable | None" = None,
) -> ClockTable:
    """Generic forward vector-clock pass over the columnar matrix.

    Parameters
    ----------
    lengths:
        ``lengths[i]`` is the number of events to process on node ``i``;
        events are ``(i, 1) .. (i, lengths[i])`` in processing order.
    cross_deps:
        Maps an event id to the cross-node events it directly depends on
        (its message predecessors).  Local predecessors are implicit.
    prior:
        Optional :class:`ClockTable` of already-computed timestamp rows
        (an append-only per-node prefix of the new computation).  Its
        node blocks are copied in verbatim (one C-level copy each) and
        only events beyond them are processed — the incremental path
        used by :func:`extend_forward_table`.

    Returns
    -------
    ClockTable
        The filled ``(sum(lengths), P)`` matrix.

    Raises
    ------
    CyclicTraceError
        If the dependency structure cannot be scheduled (a causal cycle).
    """
    num_nodes = len(lengths)
    lens = np.asarray(lengths, dtype=np.int64)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    total = int(offsets[-1])
    data = np.zeros((total, num_nodes), dtype=CLOCK_DTYPE)
    done = [0] * num_nodes  # events completed per node
    if prior is not None:
        for i in range(num_nodes):
            block = prior.node_view(i)
            k = block.shape[0]
            data[offsets[i]:offsets[i] + k] = block
            done[i] = k
    # waiters[(m, d)] = nodes whose next event is blocked until node m
    # has completed d events.
    waiters: dict[EventId, list[int]] = {}
    stack = list(range(num_nodes))
    processed = sum(done)

    while stack:
        node = stack.pop()
        k = lengths[node]
        base = offsets[node]
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
            row = data[base + idx - 1]
            if idx > 1:
                row[:] = data[base + idx - 2]
            for dep_node, dep_idx in deps:
                np.maximum(
                    row, data[offsets[dep_node] + dep_idx - 1], out=row
                )
            row[node] = idx
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
    return ClockTable(data, lengths)


def _forward_cross_deps(trace: Trace) -> dict[EventId, tuple[EventId, ...]]:
    """Cross-node dependencies for the forward pass: recv depends on send."""
    deps: dict[EventId, tuple[EventId, ...]] = {}
    for msg in trace.messages:
        deps[msg.recv] = deps.get(msg.recv, ()) + (msg.send,)
    return deps


def compute_forward_table(trace: Trace) -> ClockTable:
    """Forward vector timestamps (Definition 13) as one columnar matrix.

    Raises
    ------
    CyclicTraceError
        If the trace's happened-before relation is cyclic.
    """
    _PASS_COUNTS["forward"] += 1
    lengths = [trace.num_real(i) for i in range(trace.num_nodes)]
    return _run_clock_pass(lengths, _forward_cross_deps(trace))


def extend_forward_table(trace: Trace, prior: ClockTable) -> ClockTable:
    """Advance a forward :class:`ClockTable` over an append-only extension.

    ``prior`` holds the timestamps of a prefix of ``trace``; rows for
    the appended suffix events are computed without re-folding any
    prefix event, so the cost is proportional to the *new* events only
    (plus one C-level copy per node block into the larger matrix).

    The caller is responsible for the append-only precondition: per-node
    event sequences of the prefix trace must be prefixes of ``trace``'s,
    and no new message may target a prefix event (both are validated by
    :meth:`repro.events.poset.Execution.extend`).

    Raises
    ------
    CyclicTraceError
        If the extension's happened-before relation is cyclic.
    """
    _PASS_COUNTS["extend"] += 1
    lengths = [trace.num_real(i) for i in range(trace.num_nodes)]
    return _run_clock_pass(lengths, _forward_cross_deps(trace), prior=prior)


def compute_reverse_table(trace: Trace) -> ClockTable:
    """Reverse vector timestamps (Definition 14) as one columnar matrix.

    ``T^R(e)[i]`` counts real events on node ``i`` with ``e_i ≽ e``.
    Computed by running the forward algorithm on the time-reversed
    execution: local orders are flipped and every message edge
    ``send → recv`` becomes a dependency of (reversed) ``send`` on
    (reversed) ``recv``.
    """
    _PASS_COUNTS["reverse"] += 1
    num_nodes = trace.num_nodes
    lengths = [trace.num_real(i) for i in range(num_nodes)]

    def rev(eid: EventId) -> EventId:
        node, idx = eid
        return (node, lengths[node] - idx + 1)

    cross: dict[EventId, tuple[EventId, ...]] = {}
    for msg in trace.messages:
        r_send = rev(msg.send)
        cross[r_send] = cross.get(r_send, ()) + (rev(msg.recv),)

    table = _run_clock_pass(lengths, cross)

    # Row j-1 of the output must be T^R((node, j)) which the reversed
    # pass computed at reversed index k - j + 1; flip each node block.
    data = np.empty_like(table.data)
    for node in range(num_nodes):
        lo, hi = table.offsets[node], table.offsets[node + 1]
        data[lo:hi] = table.data[lo:hi][::-1]
    return ClockTable(data, lengths)


def _table_from_node_matrices(matrices: Sequence[np.ndarray]) -> ClockTable:
    """Stack caller-supplied per-node matrices into one :class:`ClockTable`."""
    if not len(matrices):
        raise ValueError("need at least one node matrix")
    lengths = [int(mat.shape[0]) for mat in matrices]
    num_nodes = len(matrices)
    data = np.zeros((sum(lengths), num_nodes), dtype=CLOCK_DTYPE)
    pos = 0
    for mat in matrices:
        data[pos:pos + mat.shape[0]] = mat
        pos += mat.shape[0]
    return ClockTable(data, lengths)


# ----------------------------------------------------------------------
# per-node list API (thin wrappers over the columnar tables)
# ----------------------------------------------------------------------
def compute_forward_clocks(trace: Trace) -> list[np.ndarray]:
    """Forward vector timestamps (Definition 13) for every real event.

    Returns one read-only ``(k_i, P)`` matrix per node whose row
    ``j - 1`` is ``T((i, j))`` — zero-copy views into one columnar
    :class:`ClockTable` (see :func:`compute_forward_table`).

    Raises
    ------
    CyclicTraceError
        If the trace's happened-before relation is cyclic.
    """
    return compute_forward_table(trace).views()


def extend_forward_clocks(
    trace: Trace, prior: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Advance forward timestamps to cover an append-only trace extension.

    Per-node-matrix wrapper over :func:`extend_forward_table`; ``prior``
    is a sequence of per-node matrices (as returned by
    :func:`compute_forward_clocks`).

    Raises
    ------
    CyclicTraceError
        If the extension's happened-before relation is cyclic.
    """
    return extend_forward_table(trace, _table_from_node_matrices(prior)).views()


def compute_reverse_clocks(trace: Trace) -> list[np.ndarray]:
    """Reverse vector timestamps (Definition 14) for every real event.

    Returns one read-only ``(k_i, P)`` matrix per node whose row
    ``j - 1`` is ``T^R((i, j))`` — zero-copy views into one columnar
    :class:`ClockTable` (see :func:`compute_reverse_table`).
    """
    return compute_reverse_table(trace).views()
