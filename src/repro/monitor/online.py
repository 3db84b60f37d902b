"""Online (streaming) monitoring of synchronization conditions.

The offline engines need the *reverse* timestamp structure, which only
exists once the whole trace is recorded.  A real-time monitor cannot
wait for termination — so this module evaluates the relations through
equivalent **past-only** conditions that use nothing but the forward
vector clocks available the moment an event is observed:

======== ============================================================ ==========
Relation Past-only condition (disjoint X, Y)                          Cost
======== ============================================================ ==========
R1, R1'  ``∀m ∈ N_X: T(∩⇓Y)[m] ≥ lastX[m]``                           |N_X|
R2       ``∀m ∈ N_X: T(∪⇓Y)[m] ≥ lastX[m]``                           |N_X|
R3       ``∃m ∈ N_X: T(∩⇓Y)[m] ≥ firstX[m]``                          |N_X|
R4, R4'  ``∃m ∈ N_X: T(∪⇓Y)[m] ≥ firstX[m]``                          |N_X|
R2'      ``∃i ∈ N_Y ∀m ∈ N_X: T(y_last(i))[m] ≥ lastX[m]``            |N_X|·|N_Y|
R3'      ``∀i ∈ N_Y ∃m ∈ N_X: T(y_first(i))[m] ≥ firstX[m]``          |N_X|·|N_Y|
======== ============================================================ ==========

(The future-cut forms of R2'/R3' are linear but need ``T^R``; online,
those two relations fall back to the polynomial past-only form — the
price of not knowing the future.)

Streaming fast path
-------------------
Ingestion writes forward clocks straight into a
streaming clock table (:func:`~repro.backends.base.make_streaming_table`)
— capacity-doubling
``(cap, |P|)`` int32 blocks, one amortized-O(|P|) in-place row write
per event, no per-event allocation.  Each :class:`OnlineInterval`
*maintains* its past-cut timestamps incrementally as events are tagged
(one vectorized min/max against the live clock row), so ``close()``
and watch firing evaluate the past-only conditions with **zero
re-scans** of previously tagged events; the only deferred fold is
``T(∩⇓U_Y)`` (a min over per-node *last* rows, which is not
incrementally foldable — a later last event can *raise* the min) and
it is computed once at close.  Finalisation
(:meth:`OnlineMonitor.to_execution`) hands the live table to
:class:`~repro.events.poset.Execution` via its version-keyed snapshot:
**zero** forward/extend clock passes, and the reverse pass stays
unbuilt until a future-cut consumer asks
(regression-tested via :func:`repro.events.clocks.clock_pass_counts`).

Usage: feed events through :meth:`OnlineMonitor.internal` /
:meth:`send` / :meth:`recv`, tag them into named intervals, ``close``
an interval when the application activity completes, and query
:meth:`holds` — or register :meth:`watch` conditions that fire as soon
as every interval they mention is closed.  Pending watches are indexed
by the intervals they wait for: registration reads a condition's
interval names once, and a ``close`` touches only the watches waiting
on that interval, so its cost does not grow with the number of
unrelated pending watches.  All watches decidable at one ``close`` are
batch-evaluated in one NumPy pass over the stacked per-atom operand
matrices.
"""

from __future__ import annotations

# repro: hot, dtype-strict

from dataclasses import dataclass

import numpy as np

from ..core.relations import Relation, RelationSpec, parse_spec
from ..events.builder import MessageHandle, TraceBuilder
from ..backends.base import CLOCK_DTYPE, StreamingClockTable, make_streaming_table
from ..events.event import EventId
from ..events.poset import Execution
from ..nonatomic.proxies import Proxy
from .predicates import Atom, Condition, parse_condition

__all__ = ["OnlineInterval", "OnlineMonitor", "WatchNotification"]

#: Relations whose past-only condition reads only the interval-level
#: past-cut vectors (the maintained ``T(∩⇓Ŷ)``/``T(∪⇓Ŷ)``); R2'/R3'
#: additionally need the per-node clock stacks.
_VECTOR_RELATIONS = (
    Relation.R1,
    Relation.R1P,
    Relation.R2,
    Relation.R3,
    Relation.R4,
    Relation.R4P,
)


class OnlineInterval:
    """A nonatomic event being assembled from a live stream.

    Alongside the per-node first/last extremal indices, the interval
    *maintains* the vectors the past-only conditions consume, updated
    with one vectorized min/max per tagged event:

    * ``T(∩⇓L_Y)`` (min over first-event clocks) and the max over
      first-event clocks — folded when a node's **first** event is
      tagged (firsts never change afterwards);
    * ``T(∪⇓Y) = T(∪⇓U_Y)`` (max over last-event clocks) — folded on
      **every** tag (per-node clocks are monotone, so the running max
      over all tagged events equals the max over per-node lasts);
    * dense first/last local-index vectors (0 off the node set).

    ``T(∩⇓U_Y)`` (min over last-event clocks) is the one quantity a
    running fold cannot maintain — replacing a node's last event with a
    later one can *raise* the min — so it is recomputed lazily (one
    |N_Y|-row fold) when the interval is finalised at ``close``,
    together with the stacked first/last clock matrices that R2'/R3'
    scan.
    """

    __slots__ = (
        "name", "first", "last", "count", "closed",
        "_table", "_min_first", "_max_first", "_max_last",
        "_first_vec", "_last_vec",
        "_min_last", "_first_stack", "_last_stack", "_dirty",
    )

    def __init__(
        self, name: str, table: StreamingClockTable | None = None
    ) -> None:
        self.name = name
        self.first: dict[int, int] = {}
        self.last: dict[int, int] = {}
        self.count = 0
        self.closed = False
        self._table = table
        self._min_first: np.ndarray | None = None
        self._max_first: np.ndarray | None = None
        self._max_last: np.ndarray | None = None
        self._first_vec: np.ndarray | None = None
        self._last_vec: np.ndarray | None = None
        self._min_last: np.ndarray | None = None
        self._first_stack: np.ndarray | None = None
        self._last_stack: np.ndarray | None = None
        self._dirty = True

    def add(self, eid: EventId, row: np.ndarray | None = None) -> None:
        """Tag event ``eid`` into the interval.

        ``row`` is the event's forward clock row; when omitted it is
        read from the monitor's live table (the event must have been
        ingested).  Each tag costs one vectorized min/max fold.
        """
        node, idx = eid
        if row is None:
            if self._table is None:
                raise ValueError(
                    f"interval {self.name!r} is not attached to a monitor"
                )
            row = self._table.row(node, idx)
        if self._min_first is None:
            width = row.shape[0]
            self._min_first = row.astype(CLOCK_DTYPE, copy=True)
            self._max_first = row.astype(CLOCK_DTYPE, copy=True)
            self._max_last = row.astype(CLOCK_DTYPE, copy=True)
            self._first_vec = np.zeros(width, dtype=np.int64)
            self._last_vec = np.zeros(width, dtype=np.int64)
        elif node not in self.first:
            np.minimum(self._min_first, row, out=self._min_first)
            np.maximum(self._max_first, row, out=self._max_first)
            np.maximum(self._max_last, row, out=self._max_last)
        else:
            np.maximum(self._max_last, row, out=self._max_last)
        if node not in self.first:
            self.first[node] = idx
            self._first_vec[node] = idx
        self.last[node] = idx
        self._last_vec[node] = idx
        self.count += 1
        self._dirty = True

    @property
    def node_set(self) -> tuple[int, ...]:
        """Nodes the interval spans (sorted)."""
        return tuple(sorted(self.first))

    # ------------------------------------------------------------------
    # maintained past-only state
    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        """Compute the close-time folds: ``T(∩⇓U_Y)`` and the stacked
        first/last clock matrices.  One |N_Y|-row gather; no event
        re-scans."""
        if not self._dirty:
            return
        if self._table is None:
            raise ValueError(
                f"interval {self.name!r} is not attached to a monitor"
            )
        nodes = sorted(self.first)
        self._first_stack = np.stack(
            [self._table.row(n, self.first[n]) for n in nodes]
        )
        self._last_stack = np.stack(
            [self._table.row(n, self.last[n]) for n in nodes]
        )
        self._min_last = np.min(self._last_stack, axis=0)
        self._dirty = False

    def past_cuts(
        self, proxy: Proxy | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(T(∩⇓Ŷ), T(∪⇓Ŷ))`` for the interval or one of its proxies.

        ``T(∩⇓Y) = T(∩⇓L_Y)`` and ``T(∪⇓Y) = T(∪⇓U_Y)`` (the proxy
        coincidences), so the full interval shares its proxies'
        vectors.
        """
        if proxy is Proxy.L:
            return self._min_first, self._max_first
        if proxy is Proxy.U:
            if self._dirty:
                self._finalize()
            return self._min_last, self._max_last
        return self._min_first, self._max_last

    def extremal_vectors(
        self, proxy: Proxy | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(first, last)`` local-index vectors (0 off the node
        set) of the interval or one of its proxies."""
        if proxy is Proxy.L:
            return self._first_vec, self._first_vec
        if proxy is Proxy.U:
            return self._last_vec, self._last_vec
        return self._first_vec, self._last_vec

    def clock_stacks(
        self, proxy: Proxy | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(|N_Y|, P)`` first/last clock matrices (node-sorted
        rows) of the interval or one of its proxies."""
        if self._dirty:
            self._finalize()
        if proxy is Proxy.L:
            return self._first_stack, self._first_stack
        if proxy is Proxy.U:
            return self._last_stack, self._last_stack
        return self._first_stack, self._last_stack


@dataclass(frozen=True, slots=True)
class WatchNotification:
    """Emitted when a watched condition becomes decidable."""

    name: str
    condition: Condition
    passed: bool
    decided_at: float


class OnlineMonitor:
    """Streaming trace ingestion + past-only relation evaluation.

    Events must be fed in per-node program order (any interleaving
    across nodes); receives must follow their sends — exactly the order
    a real monitoring point observes.
    """

    __slots__ = (
        "_builder", "num_nodes", "_table", "_intervals", "_watches",
        "_next_watch", "_waiting", "_open", "_ready", "_watch_counts",
        "notifications", "_now", "_finalized",
    )

    def __init__(self, num_nodes: int) -> None:
        self._builder = TraceBuilder(num_nodes)
        self.num_nodes = num_nodes
        self._table = make_streaming_table(num_nodes)
        self._intervals: dict[str, OnlineInterval] = {}
        # pending watches by registration number (dicts keep insertion,
        # i.e. registration, order); a watch waits in ``_waiting`` under
        # each interval it names that is still open, ``_open`` counts
        # those intervals, and a watch with none left is ``_ready``
        self._watches: dict[int, tuple[str, Condition]] = {}
        self._next_watch = 0
        self._waiting: dict[str, list[int]] = {}
        self._open: dict[int, int] = {}
        self._ready: list[int] = []
        self._watch_counts: dict[str, int] = {}
        self.notifications: list[WatchNotification] = []
        self._now = 0.0
        self._finalized: tuple[int, Execution] | None = None

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _check_open(self, interval: str | None) -> None:
        """Refuse a tag into a closed interval *before* the event is
        appended, so a rejected event leaves no trace or clock row."""
        if interval is not None:
            iv = self._intervals.get(interval)
            if iv is not None and iv.closed:
                raise ValueError(f"interval {interval!r} is already closed")

    def _tag(
        self, eid: EventId, interval: str | None, row: np.ndarray
    ) -> EventId:
        if interval is not None:
            iv = self._intervals.get(interval)
            if iv is None:
                iv = self._intervals[interval] = OnlineInterval(
                    interval, self._table
                )
            iv.add(eid, row)
        return eid

    def internal(
        self,
        node: int,
        *,
        label: str | None = None,
        time: float | None = None,
        interval: str | None = None,
    ) -> EventId:
        """Observe an internal event (optionally tagged into an interval)."""
        self._check_open(interval)
        eid = self._builder.internal(node, label=label, time=time)
        if time is not None:
            self._now = max(self._now, time)
        row = self._table.advance(node)
        return self._tag(eid, interval, row)

    def send(
        self,
        node: int,
        *,
        label: str | None = None,
        time: float | None = None,
        interval: str | None = None,
    ) -> MessageHandle:
        """Observe a send event; returns the handle for its receive."""
        self._check_open(interval)
        handle = self._builder.send(node, label=label, time=time)
        if time is not None:
            self._now = max(self._now, time)
        row = self._table.advance(node)
        self._tag(handle.send, interval, row)
        return handle

    def recv(
        self,
        node: int,
        handle: MessageHandle,
        *,
        label: str | None = None,
        time: float | None = None,
        interval: str | None = None,
    ) -> EventId:
        """Observe the receive matching ``handle``."""
        self._check_open(interval)
        s_node, s_idx = handle.send
        if s_idx > self._table.count(s_node):
            raise ValueError("receive observed before its send")
        eid = self._builder.recv(node, handle, label=label, time=time)
        if time is not None:
            self._now = max(self._now, time)
        row = self._table.advance(node, self._table.row(s_node, s_idx))
        return self._tag(eid, interval, row)

    # ------------------------------------------------------------------
    # clock queries
    # ------------------------------------------------------------------
    def clock(self, eid: EventId) -> np.ndarray:
        """Forward vector timestamp of an observed event."""
        node, idx = eid
        return self._table.row(node, idx)

    def precedes(self, a: EventId, b: EventId) -> bool:
        """``a ≺ b`` among observed events."""
        return a != b and bool(self.clock(b)[a[0]] >= a[1])

    # ------------------------------------------------------------------
    # intervals and watches
    # ------------------------------------------------------------------
    def interval(self, name: str) -> OnlineInterval:
        """Get (or create) the named interval."""
        iv = self._intervals.get(name)
        if iv is None:
            iv = self._intervals[name] = OnlineInterval(name, self._table)
        return iv

    def close(self, name: str) -> list[WatchNotification]:
        """Mark an interval complete; fires any now-decidable watches.

        The interval's close-time folds (``T(∩⇓U_Y)`` and the stacked
        clock matrices) are computed here, once.  Only the watches
        waiting on this interval are touched: each one's count of open
        intervals drops by one, and those left with none become ready.
        Every ready watch is then evaluated by :meth:`poll_watches` in
        one batched NumPy pass over the stacked per-atom operand
        matrices.  Closing an already closed interval only polls.

        Raises
        ------
        KeyError
            If no such interval exists.
        ValueError
            If the interval is empty.
        """
        iv = self._intervals[name]
        if iv.count == 0:
            raise ValueError(f"cannot close empty interval {name!r}")
        if not iv.closed:
            iv.closed = True
            for wid in self._waiting.pop(name, ()):
                left = self._open[wid] - 1
                if left:
                    self._open[wid] = left
                else:
                    del self._open[wid]
                    self._ready.append(wid)
        iv._finalize()
        return self.poll_watches()

    def poll_watches(self) -> list[WatchNotification]:
        """Fire every ready watch: those whose intervals are all closed.

        Normally driven by :meth:`close`, but callable directly — e.g.
        when a watch is registered *after* all the intervals it
        mentions have already closed (the networked service accepts
        watches at any point in a session), which makes it ready at
        once.  Only ready watches are read, never the other pending
        ones; they are batch-evaluated in one NumPy pass, fired in
        registration order and removed, so each fires at most once.
        """
        if not self._ready:
            return []
        ready = sorted(self._ready)
        decidable = [self._watches[wid] for wid in ready]
        verdicts = self._batch_eval_atoms([c for _, c in decidable])
        self._ready = []
        fired: list[WatchNotification] = []
        for wid, (wname, cond) in zip(ready, decidable, strict=True):
            del self._watches[wid]
            left = self._watch_counts[wname] - 1
            if left:
                self._watch_counts[wname] = left
            else:
                del self._watch_counts[wname]
            note = WatchNotification(
                name=wname,
                condition=cond,
                passed=cond.evaluate(lambda atom: verdicts[atom]),
                decided_at=self._now,
            )
            fired.append(note)
            self.notifications.append(note)
        return fired

    def watch(self, name: str, condition: str | Condition) -> None:
        """Register a condition to evaluate once its intervals close.

        The condition's interval names are read here, once; the watch
        then waits under each of them that is not closed yet.  Several
        watches may share a name; each fires on its own.
        """
        if isinstance(condition, str):
            condition = parse_condition(condition)
        wid = self._next_watch
        self._next_watch += 1
        self._watches[wid] = (name, condition)
        self._watch_counts[name] = self._watch_counts.get(name, 0) + 1
        still_open = 0
        for needed in condition.names():
            iv = self._intervals.get(needed)
            if iv is None or not iv.closed:
                self._waiting.setdefault(needed, []).append(wid)
                still_open += 1
        if still_open:
            self._open[wid] = still_open
        else:
            self._ready.append(wid)

    def watch_names(self) -> tuple[str, ...]:
        """Names of the watches still pending (not yet fired), in
        registration order."""
        return tuple(name for name, _ in self._watches.values())

    def watch_pending(self, name: str) -> bool:
        """Whether a watch named ``name`` is still pending; O(1)."""
        return name in self._watch_counts

    # ------------------------------------------------------------------
    # past-only relation evaluation
    # ------------------------------------------------------------------
    def _closed(self, name: str) -> OnlineInterval:
        iv = self._intervals[name]
        if not iv.closed:
            raise ValueError(f"interval {name!r} is not closed yet")
        return iv

    def _eval(
        self,
        relation: Relation,
        x: OnlineInterval,
        proxy_x: Proxy | None,
        y: OnlineInterval,
        proxy_y: Proxy | None,
    ) -> bool:
        """One past-only condition over the maintained vectors.

        The universal/existential rows compare ``T(∩⇓Ŷ)``/``T(∪⇓Ŷ)``
        against X̂'s dense extremal-index vectors (0 off N_X is neutral:
        every clock component is ≥ 0, and the ∃-rows mask on
        ``first ≥ 1``); R2'/R3' scan the stacked per-node clock
        matrices.  No tagged event is revisited.
        """
        xfirst, xlast = x.extremal_vectors(proxy_x)
        if relation in _VECTOR_RELATIONS:
            ty1, ty2 = y.past_cuts(proxy_y)
            return bool(_past_only(relation, xfirst, xlast, ty1, ty2))
        first_stack, last_stack = y.clock_stacks(proxy_y)
        if relation is Relation.R2P:
            return bool(
                np.any(np.all((xlast == 0) | (last_stack >= xlast), axis=1))
            )
        if relation is Relation.R3P:
            return bool(
                np.all(np.any((xfirst >= 1) & (first_stack >= xfirst), axis=1))
            )
        raise ValueError(f"unknown relation: {relation!r}")  # pragma: no cover

    def holds(
        self,
        spec: str | Relation | RelationSpec,
        x_name: str,
        y_name: str,
    ) -> bool:
        """Evaluate a relation between two *closed* intervals online.

        Semantically identical to the offline engines (for disjoint
        intervals), but uses only forward clocks — and only the
        incrementally maintained interval vectors, so each query is
        ``O(|P|)`` (R2'/R3': ``O(|N_Y|·|P|)``) regardless of how many
        events were tagged.
        """
        if isinstance(spec, str):
            spec = parse_spec(spec)
        x = self._closed(x_name)
        y = self._closed(y_name)
        if isinstance(spec, RelationSpec):
            return self._eval(
                spec.relation, x, spec.proxy_x, y, spec.proxy_y
            )
        return self._eval(spec, x, None, y, None)

    def _batch_eval_atoms(
        self, conditions: list[Condition]
    ) -> dict[Atom, bool]:
        """Evaluate every distinct atom of ``conditions`` in one pass.

        Atoms whose relation reads only the interval-level past-cut
        vectors are grouped by relation and answered with a single
        NumPy reduction over the stacked ``(a, P)`` operand matrices;
        R2'/R3' atoms (per-node clock-stack scans) are evaluated
        individually but still vectorized over ``(|N_Y|, P)``.
        """
        atoms: list[Atom] = []
        seen = set()
        for cond in conditions:
            for atom in _collect_atoms(cond):
                if atom not in seen:
                    seen.add(atom)
                    atoms.append(atom)
        groups: dict[Relation, list[Atom]] = {}
        verdicts: dict[Atom, bool] = {}
        for atom in atoms:
            spec = atom.spec
            if isinstance(spec, str):
                spec = parse_spec(spec)
            relation = spec.relation if isinstance(spec, RelationSpec) else spec
            groups.setdefault(relation, []).append(atom)
        for relation, members in groups.items():
            if relation not in _VECTOR_RELATIONS:
                for atom in members:
                    verdicts[atom] = self.holds(atom.spec, atom.left, atom.right)
                continue
            xf_rows, xl_rows, t1_rows, t2_rows = [], [], [], []
            for atom in members:
                spec = atom.spec
                if isinstance(spec, str):
                    spec = parse_spec(spec)
                px = spec.proxy_x if isinstance(spec, RelationSpec) else None
                py = spec.proxy_y if isinstance(spec, RelationSpec) else None
                x = self._closed(atom.left)
                y = self._closed(atom.right)
                xfirst, xlast = x.extremal_vectors(px)
                ty1, ty2 = y.past_cuts(py)
                xf_rows.append(xfirst)
                xl_rows.append(xlast)
                t1_rows.append(ty1)
                t2_rows.append(ty2)
            out = _past_only(
                relation,
                np.stack(xf_rows), np.stack(xl_rows),
                np.stack(t1_rows), np.stack(t2_rows),
            )
            for atom, v in zip(members, out.tolist(), strict=True):
                verdicts[atom] = v
        return verdicts

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def to_execution(self) -> Execution:
        """Finalise the observed trace into an offline execution.

        The monitor already maintains every forward vector timestamp in
        its growable columnar table, so the execution adopts the
        table's version-keyed snapshot instead of re-running the
        forward pass — and the reverse structure stays unbuilt until a
        future-cut consumer actually asks for it.  Ingestion plus
        finalisation therefore performs **zero** offline clock passes
        (regression-tested via
        :func:`repro.events.clocks.clock_pass_counts`).  The finalised
        execution is memoized by table version: calling again without
        new events returns the same object (and hence the same shared
        :class:`~repro.core.context.AnalysisContext`).
        """
        version = self._table.version
        if self._finalized is not None and self._finalized[0] == version:
            return self._finalized[1]
        trace = self._builder.build()
        ex = Execution(trace, forward_clocks=self._table)
        self._finalized = (version, ex)
        return ex

    def to_context(self):
        """Finalise into a shared :class:`~repro.core.context.AnalysisContext`.

        The offline hand-off point: the returned context owns the
        finalised execution (with the monitor's forward clocks adopted
        zero-copy) and the cut cache every offline engine will share.
        """
        from ..core.context import AnalysisContext

        return AnalysisContext.of(self.to_execution())


def _past_only(
    relation: Relation,
    xfirst: np.ndarray,
    xlast: np.ndarray,
    ty1: np.ndarray,
    ty2: np.ndarray,
) -> np.ndarray:
    """The past-only conditions of :data:`_VECTOR_RELATIONS`, reduced
    over the last (node) axis.

    ``xfirst``/``xlast`` are X̂'s dense extremal-index vectors (0 off
    ``N_X``: neutral for the ∀-rows because clock components are ≥ 0,
    masked for the ∃-rows by ``first ≥ 1``); ``ty1``/``ty2`` are
    ``T(∩⇓Ŷ)``/``T(∪⇓Ŷ)``.  Single vectors give a scalar, ``(a, P)``
    stacks one verdict per row.
    """
    if relation in (Relation.R1, Relation.R1P):
        return np.all((xlast == 0) | (ty1 >= xlast), axis=-1)
    if relation is Relation.R2:
        return np.all((xlast == 0) | (ty2 >= xlast), axis=-1)
    if relation is Relation.R3:
        return np.any((xfirst >= 1) & (ty1 >= xfirst), axis=-1)
    return np.any((xfirst >= 1) & (ty2 >= xfirst), axis=-1)  # R4 / R4'


def _collect_atoms(cond: Condition) -> list[Atom]:
    """All :class:`Atom` leaves of a condition AST."""
    if isinstance(cond, Atom):
        return [cond]
    out: list[Atom] = []
    for attr in ("operand", "antecedent", "consequent"):
        sub = getattr(cond, attr, None)
        if sub is not None:
            out.extend(_collect_atoms(sub))
    for sub in getattr(cond, "operands", ()):
        out.extend(_collect_atoms(sub))
    return out
