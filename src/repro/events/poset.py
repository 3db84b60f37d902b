"""The analysed execution poset ``(E, ≺)``.

:class:`Execution` wraps a recorded :class:`~repro.events.trace.Trace`
with the forward and reverse vector timestamp structures of Section 2.3
and exposes the causality relation ``≺`` between atomic events.  It is
the substrate on which nonatomic events, cuts and the synchronization
relations are defined.

Index conventions (see DESIGN.md §2): real events of node ``i`` have
local indices ``1..k_i``; the dummy initial event ``⊥_i`` is index 0 and
the dummy final event ``⊤_i`` is index ``k_i + 1``.  The paper's model
axiom ``∀⊥_i ∀⊤_j ∀e ∈ (E \\ E^⊥ \\ E^⊤): ⊥_i ≺ e ≺ ⊤_j`` is built into
the precedence methods.
"""

from __future__ import annotations

# repro: hot

from collections.abc import Iterator

import numpy as np

from .clocks import (
    CLOCK_DTYPE,
    ClockTable,
    GrowableClockTable,
    compute_forward_table,
    compute_reverse_table,
    extend_forward_table,
)
from typing import TYPE_CHECKING

from .event import Event, EventId
from .trace import Trace, TraceError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Execution", "Ordering"]


class Ordering:
    """Symbolic outcomes of :meth:`Execution.compare`."""

    __slots__ = ()

    BEFORE = "before"
    AFTER = "after"
    EQUAL = "equal"
    CONCURRENT = "concurrent"


class Execution:
    """A distributed execution with its timestamp structures.

    Parameters
    ----------
    trace:
        The recorded trace.  Its happened-before relation must be
        acyclic; otherwise :class:`~repro.events.clocks.CyclicTraceError`
        is raised.

    forward_clocks:
        Optional precomputed forward timestamps: a columnar
        :class:`~repro.events.clocks.ClockTable` (adopted zero-copy), a
        live :class:`~repro.events.clocks.GrowableClockTable` (its
        version-keyed :meth:`~repro.events.clocks.GrowableClockTable.snapshot`
        is adopted), or one ``(k_i, P)`` matrix per node (as produced
        by :func:`~repro.events.clocks.compute_forward_clocks`).
        Callers that already maintain the forward structure — e.g. the
        online monitor's streaming ingestion — pass it here to skip
        the forward pass entirely.

    Notes
    -----
    Building an execution performs the *forward* timestamping pass the
    paper assumes (Def. 13), an ``O(|E|·|P|)`` computation.  The reverse
    structure (Def. 14) is established lazily on first access to
    :meth:`rclock` / :meth:`rclock_matrix` / :meth:`causal_future_ids`,
    so past-only workloads (online monitoring, R1/R2-style queries)
    never pay for it.  All query methods are ``O(1)`` or ``O(|P|)``
    once the structures exist.

    Both structures are stored columnar — one contiguous ``(|E|, |P|)``
    int32 matrix each (:class:`~repro.events.clocks.ClockTable`),
    exposed via :attr:`forward_table` / :attr:`reverse_table` for the
    batch cut kernels; the per-event/per-node accessors below are views
    into those matrices.
    """

    __slots__ = ("_trace", "_fwd", "_rev", "_lengths", "_version", "__weakref__")

    # Version-discipline contract enforced by `python -m repro lint`
    # (REP001): growing the substrate must bump `_version` so every
    # derived cache (CutCache, SharedVerdictCache) can detect
    # staleness.  `_rev` is reset to None on growth rather than
    # freshness-checked on read, so it is deliberately not registered
    # as a cache.
    _REPRO_VERSIONED = {
        "version": "_version",
        "state": ("_trace", "_fwd", "_lengths"),
        "caches": (),
        "guards": (),
    }

    def __init__(
        self,
        trace: Trace,
        forward_clocks: "Optional[Sequence[np.ndarray] | ClockTable | GrowableClockTable]" = None,
    ) -> None:
        self._trace = trace
        if forward_clocks is None:
            self._fwd = compute_forward_table(trace)
        else:
            self._fwd = self._adopt_forward(trace, forward_clocks)
        self._rev: ClockTable | None = None
        self._lengths: tuple[int, ...] = tuple(
            trace.num_real(i) for i in range(trace.num_nodes)
        )
        self._version = 0

    @staticmethod
    def _adopt_forward(
        trace: Trace,
        forward_clocks: "Sequence[np.ndarray] | ClockTable | GrowableClockTable",
    ) -> ClockTable:
        """Validate caller-supplied forward clocks into a columnar table."""
        num_nodes = trace.num_nodes
        lengths = [trace.num_real(i) for i in range(num_nodes)]
        if isinstance(forward_clocks, GrowableClockTable):
            forward_clocks = forward_clocks.snapshot()
        if isinstance(forward_clocks, ClockTable):
            if forward_clocks.num_nodes != num_nodes or not np.array_equal(
                forward_clocks.lengths, lengths
            ):
                raise ValueError(
                    f"forward_clocks table shape does not match the trace: "
                    f"expected lengths {lengths}"
                )
            return forward_clocks
        if len(forward_clocks) != num_nodes:
            raise ValueError(
                f"forward_clocks must have one matrix per node "
                f"({num_nodes}), got {len(forward_clocks)}"
            )
        data = np.zeros((sum(lengths), num_nodes), dtype=CLOCK_DTYPE)
        pos = 0
        for i, mat in enumerate(forward_clocks):
            arr = np.asarray(mat)
            if arr.shape != (lengths[i], num_nodes):
                raise ValueError(
                    f"forward_clocks[{i}] must have shape "
                    f"{(lengths[i], num_nodes)}, got {arr.shape}"
                )
            data[pos:pos + lengths[i]] = arr
            pos += lengths[i]
        return ClockTable(data, lengths)

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------
    @property
    def trace(self) -> Trace:
        """The underlying recorded trace."""
        return self._trace

    @property
    def version(self) -> int:
        """Monotonic growth counter, bumped by every :meth:`extend`.

        Derived caches (cut quadruples, extremal vectors — see
        :class:`repro.core.context.CutCache`) key their validity on this
        value: a version change means future-side structures computed
        against the shorter trace are stale.
        """
        return self._version

    @property
    def reverse_ready(self) -> bool:
        """True once the reverse timestamp structure has been built.

        Diagnostic for the laziness contract: past-only consumers can
        assert they never forced the reverse pass.
        """
        return self._rev is not None

    @property
    def num_nodes(self) -> int:
        """Number of process/node partitions ``|P|``."""
        return self._trace.num_nodes

    @property
    def lengths(self) -> tuple[int, ...]:
        """Per-node real event counts ``(k_0, ..., k_{P-1})``."""
        return self._lengths

    def num_real(self, node: int) -> int:
        """Number of real events ``k_i`` of ``node``."""
        return self._lengths[node]

    def top_index(self, node: int) -> int:
        """Local index of the dummy final event ``⊤_node``."""
        return self._lengths[node] + 1

    def event(self, eid: EventId) -> Event:
        """The real :class:`Event` with identifier ``eid``."""
        return self._trace.event(eid)

    def is_real(self, eid: EventId) -> bool:
        """True if ``eid`` denotes a real (non-dummy) event."""
        node, idx = eid
        return 0 <= node < self.num_nodes and 1 <= idx <= self._lengths[node]

    def is_bottom(self, eid: EventId) -> bool:
        """True if ``eid`` denotes a dummy initial event ``⊥_i``."""
        node, idx = eid
        return 0 <= node < self.num_nodes and idx == 0

    def is_top(self, eid: EventId) -> bool:
        """True if ``eid`` denotes a dummy final event ``⊤_i``."""
        node, idx = eid
        return 0 <= node < self.num_nodes and idx == self._lengths[node] + 1

    def check_id(self, eid: EventId, allow_dummy: bool = False) -> None:
        """Validate ``eid``; raise :class:`KeyError` if out of range."""
        node, idx = eid
        if not (0 <= node < self.num_nodes):
            raise KeyError(eid)
        lo = 0 if allow_dummy else 1
        hi = self._lengths[node] + (1 if allow_dummy else 0)
        if not (lo <= idx <= hi):
            raise KeyError(eid)

    def iter_ids(self) -> Iterator[EventId]:
        """All real event ids, node-major."""
        return self._trace.iter_ids()

    # ------------------------------------------------------------------
    # timestamps
    # ------------------------------------------------------------------
    def clock(self, eid: EventId) -> np.ndarray:
        """Forward vector timestamp ``T(eid)`` (read-only view).

        Only defined for real events; dummies are handled symbolically
        by the precedence methods.
        """
        node, idx = eid
        return self._fwd.row(node, idx)

    def _reverse(self) -> ClockTable:
        """The reverse table, computing it on first use (lazy)."""
        rev = self._rev
        if rev is None:
            rev = self._rev = compute_reverse_table(self._trace)
        return rev

    def rclock(self, eid: EventId) -> np.ndarray:
        """Reverse vector timestamp ``T^R(eid)`` (read-only view).

        First access triggers the one-time reverse clock pass.
        """
        node, idx = eid
        return self._reverse().row(node, idx)

    def clock_matrix(self, node: int) -> np.ndarray:
        """All forward timestamps of ``node`` as a ``(k_i, P)`` view."""
        return self._fwd.node_view(node)

    def rclock_matrix(self, node: int) -> np.ndarray:
        """All reverse timestamps of ``node`` as a ``(k_i, P)`` view.

        First access triggers the one-time reverse clock pass.
        """
        return self._reverse().node_view(node)

    @property
    def forward_table(self) -> ClockTable:
        """The columnar forward timestamp structure (zero-copy)."""
        return self._fwd

    @property
    def reverse_table(self) -> ClockTable:
        """The columnar reverse timestamp structure (zero-copy).

        First access triggers the one-time reverse clock pass.
        """
        return self._reverse()

    # ------------------------------------------------------------------
    # causality
    # ------------------------------------------------------------------
    def leq(self, a: EventId, b: EventId) -> bool:
        """``a ≼ b``: ``a`` causally precedes or equals ``b``.

        Handles dummy events per the model axiom: every ``⊥_i`` precedes
        every non-``⊥`` event, and every ``⊤_j`` follows every
        non-``⊤`` event.  Distinct ``⊥``s (resp. ``⊤``s) are
        incomparable.
        """
        if a == b:
            return True
        a_node, a_idx = a
        b_node, b_idx = b
        if a_idx == 0:  # ⊥ precedes everything except other ⊥s
            return b_idx != 0
        if self.is_top(a):  # ⊤ precedes nothing but itself
            return False
        if b_idx == 0:
            return False
        if self.is_top(b):  # everything except ⊤s precedes ⊤
            return not self.is_top(a)
        # both real and distinct: the canonical clock test
        return bool(self._fwd.row(b_node, b_idx)[a_node] >= a_idx)

    def precedes(self, a: EventId, b: EventId) -> bool:
        """``a ≺ b``: strict causal precedence (irreflexive)."""
        return a != b and self.leq(a, b)

    def concurrent(self, a: EventId, b: EventId) -> bool:
        """``a ∥ b``: neither ``a ≼ b`` nor ``b ≼ a``."""
        return not self.leq(a, b) and not self.leq(b, a)

    def compare(self, a: EventId, b: EventId) -> str:
        """Classify the causal order of two events (:class:`Ordering`)."""
        if a == b:
            return Ordering.EQUAL
        if self.leq(a, b):
            return Ordering.BEFORE
        if self.leq(b, a):
            return Ordering.AFTER
        return Ordering.CONCURRENT

    # ------------------------------------------------------------------
    # causal past / future enumeration
    # ------------------------------------------------------------------
    def causal_past_ids(self, eid: EventId) -> set[EventId]:
        """All real event ids ``e'`` with ``e' ≼ eid`` (the set ``↓e``).

        ``O(|E|)`` via the forward clock: ``T(eid)[i]`` is exactly the
        number of node-``i`` events in the causal past.
        """
        clock = self.clock(eid)
        return {
            (i, j)
            for i in range(self.num_nodes)
            for j in range(1, int(clock[i]) + 1)
        }

    def causal_future_ids(self, eid: EventId) -> set[EventId]:
        """All real event ids ``e'`` with ``e' ≽ eid``.

        ``O(|E|)`` via the reverse clock: the node-``i`` events in the
        causal future are the last ``T^R(eid)[i]`` events of ``E_i``.
        """
        rclock = self.rclock(eid)
        out: set[EventId] = set()
        for i in range(self.num_nodes):
            k = self._lengths[i]
            out.update((i, j) for j in range(k - int(rclock[i]) + 1, k + 1))
        return out

    # ------------------------------------------------------------------
    # append-only growth
    # ------------------------------------------------------------------
    def extend(self, trace: Trace) -> "Execution":
        """Grow this execution in place to an append-only extension.

        ``trace`` must extend the current trace: same node count, every
        node's current event sequence a prefix of its new one, the
        current messages a subset of the new ones, and every *new*
        message received by a *new* event (so no existing timestamp can
        change).  Forward clocks are advanced incrementally — only the
        appended events are processed (see
        :func:`~repro.events.clocks.extend_forward_table`); the reverse
        structure is discarded and will be rebuilt lazily if queried,
        since every reverse timestamp can change when the future grows.

        Bumps :attr:`version` so shared caches invalidate; returns
        ``self`` for chaining.

        Raises
        ------
        TraceError
            If ``trace`` is not an append-only extension.
        CyclicTraceError
            If the extension introduces a causal cycle.
        """
        old = self._trace
        if trace.num_nodes != old.num_nodes:
            raise TraceError(
                f"extension changes node count: {old.num_nodes} -> "
                f"{trace.num_nodes}"
            )
        for i in range(old.num_nodes):
            k_old = old.num_real(i)
            if trace.num_real(i) < k_old or (
                trace.events_of(i)[:k_old] != old.events_of(i)
            ):
                raise TraceError(
                    f"node {i}: existing events are not a prefix of the "
                    "extension"
                )
        old_messages = set(old.messages)
        for msg in trace.messages:
            if msg in old_messages:
                old_messages.discard(msg)
                continue
            node, idx = msg.recv
            if idx <= old.num_real(node):
                raise TraceError(
                    f"new message {msg} targets existing event {msg.recv}; "
                    "extensions may only deliver to appended events"
                )
        if old_messages:
            raise TraceError(
                f"extension drops existing message(s): "
                f"{sorted(old_messages, key=str)[:3]}"
            )
        self._fwd = extend_forward_table(trace, self._fwd)
        self._trace = trace
        self._lengths = tuple(
            trace.num_real(i) for i in range(trace.num_nodes)
        )
        self._rev = None
        self._version += 1
        return self

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.DiGraph":
        """The covering digraph of real events (local + message edges).

        Returns a :class:`networkx.DiGraph` whose transitive closure is
        the strict causality relation ``≺`` restricted to real events.
        Used by tests as a ground-truth oracle for the clock algebra.
        """
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self.iter_ids())
        for i in range(self.num_nodes):
            for j in range(1, self._lengths[i]):
                g.add_edge((i, j), (i, j + 1))
        for msg in self._trace.messages:
            g.add_edge(msg.send, msg.recv)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Execution(nodes={self.num_nodes}, "
            f"events={self._trace.total_events}, "
            f"messages={len(self._trace.messages)})"
        )
