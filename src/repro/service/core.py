"""Transport-agnostic ingest state machine for the monitoring service.

:class:`MonitorCore` owns everything about live ingest that is *not*
networking, so the asyncio front end stays a thin frame router and the
failover tests can drive the state machine directly:

* **Sharded ingest** — every node has its own FIFO pending queue (a
  shard groups ``num_nodes / num_shards`` of them for the counters;
  the default is one shard per node).  Events flow through the
  wrapped :class:`~repro.monitor.online.OnlineMonitor`, whose clock
  storage comes from the
  :func:`~repro.backends.base.make_streaming_table` seam — ingest and
  finalisation keep the streaming fast path's **zero offline clock
  passes**.
* **Causal parking** — a receive arriving before its send (normal
  under multi-client sharded replay) parks its node's queue.  Parked
  work is indexed by what unblocks it: a parked queue head waits under
  the ``(node, index)`` of the send it receives, and applying that send
  wakes that node's queue alone.  Interval closes carry the *expected*
  tag count and apply once the count is reached, so any client of a
  sharded replay may issue them; a pending close waits under its
  interval and is checked only when it is submitted and when an event
  is tagged into that interval.  No submit rescans the other queues
  or pending closes, so the cost of an in-order event does not grow
  with the number of nodes.
* **The log** — every applied operation is appended (in application
  order, which makes the log replayable without parking) before its
  effects are visible to any client; see :mod:`repro.service.log`.
* **Exactly-once watch notifications** — emitted verdicts get a
  monotone ``watch_seq`` and are themselves logged; a replica stashes
  the notifications it derives from replayed closes as *unconfirmed*
  until the primary's matching verdict record arrives, and
  :meth:`promote` emits exactly the unconfirmed remainder — no watch
  is lost, none is duplicated.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from ..backends.base import clock_pass_counts
from ..events.event import EventId
from ..monitor.online import OnlineMonitor, WatchNotification
from .log import EventLog, LogError

__all__ = ["EventRejected", "MonitorCore", "ShardCounters"]

_KINDS = ("internal", "send", "recv")


class EventRejected(ValueError):
    """A queued event the monitor refused when its turn came.

    For instance, a tag into an interval that closed after the event
    was queued.  The event is dropped: it is not applied or logged, and
    its shard's ``queued`` count and its session are settled.  Raised
    to the submitter whose own event it was, once the pump that refused
    it has finished; :attr:`verdicts` holds what that pump fired.
    """

    def __init__(self, message: str, verdicts: list[dict[str, Any]]) -> None:
        super().__init__(message)
        self.verdicts = verdicts


@dataclass
class ShardCounters:
    """Ingest counters for one shard (a group of node queues)."""

    applied: int = 0
    queued: int = 0
    queued_peak: int = 0
    throttles: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-ready snapshot for the ``stats`` frame."""
        return {
            "applied": self.applied,
            "queued": self.queued,
            "queued_peak": self.queued_peak,
            "throttles": self.throttles,
        }


@dataclass
class _PendingClose:
    """A ``close`` op waiting for its interval (the key it is parked
    under) to reach ``expected``."""

    expected: int
    session: int | None
    submitted_at: float = 0.0


class MonitorCore:
    """Sharded, log-backed, failover-aware wrapper of the online monitor.

    Parameters
    ----------
    num_nodes:
        Width of the monitored system.
    num_shards:
        Counter granularity for ingest sharding; defaults to one shard
        per node (``shard = node % num_shards``).
    log:
        The durable :class:`~repro.service.log.EventLog`; ``None``
        keeps records in memory only (tests, benchmarks) with the same
        sequencing semantics.
    role:
        ``"primary"`` emits watch verdicts as they fire; ``"replica"``
        stashes them unconfirmed until the primary's verdict records
        arrive (see :meth:`promote`).
    clock:
        Monotonic time source (injectable for tests); used for the
        watch-latency counters only.
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        num_shards: int | None = None,
        log: EventLog | None = None,
        role: str = "primary",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if role not in ("primary", "replica"):
            raise ValueError(f"unknown role: {role!r}")
        self.num_nodes = num_nodes
        self.num_shards = (
            num_nodes if num_shards is None else max(1, min(num_shards, num_nodes))
        )
        self.role = role
        self._clock = clock
        self._monitor = OnlineMonitor(num_nodes)
        self._handles: dict[EventId, Any] = {}
        self._queues: list[deque] = [deque() for _ in range(num_nodes)]
        # the send each parked queue head awaits (None: not parked),
        # the parked nodes by awaited send, and the woken nodes whose
        # queues the pump still has to drain
        self._blocked: list[tuple[int, int] | None] = [None] * num_nodes
        self._awaiting: dict[tuple[int, int], list[int]] = {}
        self._runnable: deque[int] = deque()
        self._pending_closes: dict[str, list[_PendingClose]] = {}
        self._pending_by_session: dict[int, int] = {}
        # refused events not yet reported: (session, message)
        self._rejected: list[tuple[int | None, str]] = []
        self.shards = [ShardCounters() for _ in range(self.num_shards)]
        self._log = log
        self._mem_records: list[dict[str, Any]] = []
        self._mem_next_seq = 1
        self._replayed_last_seq = 0
        self.throttles = 0
        self._watch_seq = 0
        self._emitted: set[str] = set()
        self._unconfirmed: dict[str, dict[str, Any]] = {}
        self._closes_applied = 0
        self._watch_count = 0
        self._latency_count = 0
        self._latency_total = 0.0
        self._latency_max = 0.0
        # the pass counters are process-global; report deltas since
        # this core came up (other code in the process may run offline
        # analyses of its own)
        self._passes_at_start = dict(clock_pass_counts())
        if log is not None and not log.records:
            self._append({"op": "init", "num_nodes": num_nodes})
        elif log is None:
            self._append({"op": "init", "num_nodes": num_nodes})

    # ------------------------------------------------------------------
    # construction from a replicated log
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: list[dict[str, Any]],
        *,
        log: EventLog | None = None,
        role: str = "primary",
        num_shards: int | None = None,
    ) -> "MonitorCore":
        """Rebuild the full monitor state by replaying log records.

        ``records`` is typically :func:`~repro.service.log.read_records`
        output (or :attr:`EventLog.records` of a freshly opened log —
        pass that same log as ``log`` and the replay will not
        re-append).  The returned core resumes at the records' last
        sequence number; when ``role`` is ``"primary"`` (promotion from
        a dead primary's replicated log), watches that were decidable
        but have no logged verdict are re-derived and will be emitted
        by the first :meth:`promote` call.
        """
        if not records:
            raise LogError("cannot rebuild from an empty record list")
        head = records[0]
        if head.get("op") != "init" or "num_nodes" not in head:
            raise LogError("log must start with an init record")
        core = cls(
            int(head["num_nodes"]),
            num_shards=num_shards,
            log=None,
            role="replica",
        )
        core._mem_records.clear()  # drop the fresh init; replay the real one
        for rec in records:
            core._replay(rec)
        core._mem_records = list(records)
        core._mem_next_seq = core._replayed_last_seq + 1
        core._log = log
        if role == "primary":
            core.role = "primary"
        return core

    # ------------------------------------------------------------------
    # record plumbing
    # ------------------------------------------------------------------
    def _append(self, record: dict[str, Any]) -> int:
        """Durably record one applied operation; returns its seq."""
        if self._log is not None:
            return self._log.append(record)
        seq = record.get("seq")
        if seq is None:
            record = {"seq": self._mem_next_seq, **record}
        self._mem_records.append(record)
        self._mem_next_seq = record["seq"] + 1
        return record["seq"]

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent record."""
        if self._log is not None:
            return self._log.last_seq
        return self._mem_next_seq - 1

    def records_from(self, seq: int) -> list[dict[str, Any]]:
        """Records with sequence number strictly greater than ``seq``
        (replication catch-up reads)."""
        if self._log is not None:
            return self._log.records_from(seq)
        return [r for r in self._mem_records if r["seq"] > seq]

    @property
    def log_needs_sync(self) -> bool:
        """Whether the backing log has a full unsynced batch pending."""
        return self._log is not None and self._log.needs_sync

    def flush_log(self) -> None:
        """Fsync batched appends.  Blocking: event-loop owners must run
        this in an executor (``MonitorService._flush_log`` does)."""
        if self._log is not None:
            self._log.sync()

    def close_log(self) -> None:
        """Sync and close the backing log (idempotent).  Blocking, like
        :meth:`flush_log`."""
        if self._log is not None:
            self._log.close()

    # ------------------------------------------------------------------
    # submission (live clients)
    # ------------------------------------------------------------------
    def _validate_event(self, rec: dict[str, Any]) -> dict[str, Any]:
        node = rec.get("node")
        if not isinstance(node, int) or not (0 <= node < self.num_nodes):
            raise ValueError(f"event names no such node: {node!r}")
        kind = rec.get("kind", "internal")
        if kind not in _KINDS:
            raise ValueError(f"unknown event kind: {kind!r}")
        out: dict[str, Any] = {"node": node, "kind": kind}
        for key in ("label", "interval"):
            val = rec.get(key)
            if val is not None and not isinstance(val, str):
                raise ValueError(f"event {key} must be a string")
            if val is not None:
                out[key] = val
        t = rec.get("time")
        if t is not None:
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                raise ValueError("event time must be a number")
            out["time"] = float(t)
        if kind == "recv":
            send = rec.get("send")
            if (
                not isinstance(send, (list, tuple))
                or len(send) != 2
                or not all(isinstance(v, int) for v in send)
            ):
                raise ValueError("recv events need send=[node, index]")
            s_node, s_idx = send
            if not (0 <= s_node < self.num_nodes) or s_idx < 1:
                raise ValueError(f"recv references no such send: {send!r}")
            out["send"] = [s_node, s_idx]
        elif rec.get("send") is not None:
            raise ValueError("only recv events carry a send reference")
        return out

    def submit_event(
        self, rec: dict[str, Any], session: int | None = None
    ) -> list[dict[str, Any]]:
        """Enqueue one event frame; returns any verdicts that fired.

        The event is validated and queued on its node's shard.  Unless
        that queue is parked behind a receive, the pump applies the
        event and everything it unblocks: queues parked on a send it
        applied, and pending closes of an interval it completed.
        """
        rec = self._validate_event(rec)
        node = rec["node"]
        shard = self.shards[node % self.num_shards]
        self._queues[node].append((rec, session))
        shard.queued += 1
        shard.queued_peak = max(shard.queued_peak, shard.queued)
        if session is not None:
            self._pending_by_session[session] = (
                self._pending_by_session.get(session, 0) + 1
            )
        if self._blocked[node] is None:
            self._runnable.append(node)
        out = self._pump()
        if self._rejected:
            self._raise_own_rejections(session, out)
        return out

    def submit_close(
        self, interval: str, expected: int, session: int | None = None
    ) -> list[dict[str, Any]]:
        """Declare an interval complete at ``expected`` tagged events.

        The close applies (fires watches, is logged) as soon as the
        interval's tag count reaches ``expected`` — immediately if it
        already has.
        """
        if not isinstance(interval, str) or not interval:
            raise ValueError("close needs a non-empty interval name")
        if not isinstance(expected, int) or expected < 1:
            raise ValueError("close needs expected >= 1")
        self._pending_closes.setdefault(interval, []).append(
            _PendingClose(expected, session, self._clock())
        )
        if session is not None:
            self._pending_by_session[session] = (
                self._pending_by_session.get(session, 0) + 1
            )
        out = self._pump()
        self._check_closes(interval, out)
        if self._rejected:
            self._raise_own_rejections(session, out)
        return out

    def submit_watch(
        self, name: str, condition: str, session: int | None = None
    ) -> list[dict[str, Any]]:
        """Register a watch; fires immediately if already decidable."""
        if not isinstance(name, str) or not name:
            raise ValueError("watch needs a non-empty name")
        if self.has_watch(name):
            raise ValueError(f"watch {name!r} already registered")
        self._monitor.watch(name, condition)  # parse errors propagate
        self._watch_count += 1
        self._append({"op": "watch", "name": name, "condition": condition})
        notes = self._monitor.poll_watches()
        return self._handle_notifications(notes, submitted_at=self._clock())

    def has_watch(self, name: str) -> bool:
        """Whether ``name`` is already registered (or already decided);
        lets a restarted service skip re-submitting startup watches that
        the resumed log replayed."""
        return name in self._emitted or self._monitor.watch_pending(name)

    def pending(self, session: int | None = None) -> int:
        """Unapplied (parked) operations — of one session, or total."""
        if session is not None:
            return self._pending_by_session.get(session, 0)
        return sum(len(q) for q in self._queues) + sum(
            len(closes) for closes in self._pending_closes.values()
        )

    def session_gone(self, session: int) -> None:
        """Forget per-session accounting after a disconnect."""
        self._pending_by_session.pop(session, None)
        self._rejected = [r for r in self._rejected if r[0] != session]

    def take_rejections(self) -> list[tuple[int | None, str]]:
        """The ``(session, message)`` of every refused event not yet
        reported: events that another submitter's pump reached (a
        submitter's own refusals raise :class:`EventRejected` instead)."""
        taken, self._rejected = self._rejected, []
        return taken

    def _raise_own_rejections(
        self, session: int | None, out: list[dict[str, Any]]
    ) -> None:
        """After a pump: raise :class:`EventRejected`, carrying the
        pump's verdicts ``out``, if it refused events of ``session``."""
        mine = [msg for sid, msg in self._rejected if sid == session]
        if mine:
            self._rejected = [r for r in self._rejected if r[0] != session]
            raise EventRejected("; ".join(mine), out)

    # ------------------------------------------------------------------
    # the pump
    # ------------------------------------------------------------------
    def _applicable(self, rec: dict[str, Any]) -> bool:
        if rec["kind"] != "recv":
            return True
        return tuple(rec["send"]) in self._handles

    def _apply_event(self, rec: dict[str, Any]) -> None:
        """Feed one validated event into the monitor (no logging here:
        the pump logs live submissions; replay must not re-log).  An
        applied send wakes the queues parked on it."""
        node, kind = rec["node"], rec["kind"]
        label = rec.get("label")
        t = rec.get("time")
        tag = rec.get("interval")
        if kind == "send":
            handle = self._monitor.send(node, label=label, time=t, interval=tag)
            self._handles[handle.send] = handle
            woken = self._awaiting.pop(handle.send, None)
            if woken is not None:
                for parked in woken:
                    self._blocked[parked] = None
                self._runnable.extend(woken)
        elif kind == "recv":
            handle = self._handles[tuple(rec["send"])]
            self._monitor.recv(node, handle, label=label, time=t, interval=tag)
        else:
            self._monitor.internal(node, label=label, time=t, interval=tag)

    def _settle(self, session: int | None) -> None:
        if session is not None and session in self._pending_by_session:
            left = self._pending_by_session[session] - 1
            if left <= 0:
                del self._pending_by_session[session]
            else:
                self._pending_by_session[session] = left

    def _pump(self) -> list[dict[str, Any]]:
        """Drain every runnable queue; returns the verdict notifications
        emitted along the way."""
        out: list[dict[str, Any]] = []
        while self._runnable:
            self._drain(self._runnable.popleft(), out)
        return out

    def _drain(self, node: int, out: list[dict[str, Any]]) -> None:
        """Apply ``node``'s queued events in order until it is empty or
        its head is a receive whose send has not been applied; then
        the node parks under that send."""
        queue = self._queues[node]
        shard = self.shards[node % self.num_shards]
        while queue:
            rec, session = queue[0]
            if rec["kind"] == "recv":
                s_node, s_idx = rec["send"]
                send = (s_node, s_idx)
                if send not in self._handles:
                    self._blocked[node] = send
                    self._awaiting.setdefault(send, []).append(node)
                    return
            queue.popleft()
            try:
                self._apply_event(rec)
            except ValueError as exc:
                # the monitor validates before it appends, so a refused
                # event left nothing behind: settle it, note it against
                # its own session, and keep draining
                shard.queued -= 1
                self._settle(session)
                self._rejected.append((session, f"event rejected: {exc}"))
                continue
            except BaseException:
                self._runnable.append(node)  # the rest of its queue stays due
                raise
            self._append({"op": "event", **rec})
            shard.queued -= 1
            shard.applied += 1
            self._settle(session)
            tag = rec.get("interval")
            if tag is not None and tag in self._pending_closes:
                self._check_closes(tag, out)

    def _check_closes(self, interval: str, out: list[dict[str, Any]]) -> None:
        """Apply the pending closes of ``interval`` its tag count has
        reached, in submission order; the first to apply wins and the
        rest are settled as duplicates."""
        waiting = self._pending_closes.get(interval)
        if not waiting:
            return
        iv = self._monitor.interval(interval)
        still: list[_PendingClose] = []
        for close in waiting:
            if iv.closed:
                self._settle(close.session)  # duplicate close; first one won
            elif iv.count >= close.expected:
                notes = self._monitor.close(interval)
                self._closes_applied += 1
                self._append({
                    "op": "close",
                    "interval": interval,
                    "expected": close.expected,
                })
                out.extend(
                    self._handle_notifications(
                        notes, submitted_at=close.submitted_at
                    )
                )
                self._settle(close.session)
            else:
                still.append(close)
        if still:
            self._pending_closes[interval] = still
        else:
            del self._pending_closes[interval]

    # ------------------------------------------------------------------
    # watch emission / replication / failover
    # ------------------------------------------------------------------
    def _handle_notifications(
        self, notes: Iterable[WatchNotification], submitted_at: float
    ) -> list[dict[str, Any]]:
        """Route fired watches: emit (primary) or stash (replica)."""
        out: list[dict[str, Any]] = []
        for note in notes:
            if note.name in self._emitted:
                continue
            verdict = {
                "op": "verdict",
                "name": note.name,
                "passed": note.passed,
                "decided_at": note.decided_at,
            }
            if self.role == "primary":
                out.append(self._emit(verdict, submitted_at))
            else:
                self._unconfirmed.setdefault(note.name, verdict)
        return out

    def _emit(
        self, verdict: dict[str, Any], submitted_at: float | None
    ) -> dict[str, Any]:
        self._watch_seq += 1
        verdict = {**verdict, "watch_seq": self._watch_seq}
        self._emitted.add(verdict["name"])
        self._append(verdict)
        if submitted_at is not None:
            lat = max(self._clock() - submitted_at, 0.0)
            self._latency_count += 1
            self._latency_total += lat
            self._latency_max = max(self._latency_max, lat)
        return verdict

    def _replay(self, rec: dict[str, Any]) -> None:
        """Apply one already-sequenced record without re-logging."""
        op = rec.get("op")
        if op == "init":
            if int(rec["num_nodes"]) != self.num_nodes:
                raise LogError(
                    f"init record num_nodes={rec['num_nodes']} does not "
                    f"match core width {self.num_nodes}"
                )
        elif op == "event":
            body = self._validate_event(rec)
            if not self._applicable(body):
                raise LogError(
                    f"record seq={rec.get('seq')}: receive precedes its "
                    "send in the log (corrupt replication order)"
                )
            self._apply_event(body)
            self.shards[body["node"] % self.num_shards].applied += 1
        elif op == "close":
            notes = self._monitor.close(rec["interval"])
            self._closes_applied += 1
            self._handle_notifications(notes, submitted_at=self._clock())
        elif op == "watch":
            self._monitor.watch(rec["name"], rec["condition"])
            self._watch_count += 1
            notes = self._monitor.poll_watches()
            self._handle_notifications(notes, submitted_at=self._clock())
        elif op == "verdict":
            name = rec["name"]
            self._emitted.add(name)
            self._unconfirmed.pop(name, None)
            self._watch_seq = max(self._watch_seq, int(rec["watch_seq"]))
        else:
            raise LogError(f"unknown log op: {op!r}")
        if "seq" in rec:
            self._replayed_last_seq = int(rec["seq"])

    def apply_record(self, rec: dict[str, Any]) -> None:
        """Standby path: durably append one replicated record, then
        apply it.  Records must arrive in sequence order."""
        self._append(dict(rec))
        self._replay(rec)

    def promote(self) -> list[dict[str, Any]]:
        """Become primary; emit the unconfirmed watch remainder.

        Returns the verdicts for every watch that had fired on the
        (dead) primary's behalf but whose emission was never confirmed
        by a replicated verdict record — plus nothing else, which is
        the exactly-once guarantee: already-confirmed watches stay in
        ``emitted`` and are never re-announced.
        """
        self.role = "primary"
        out = []
        for verdict in list(self._unconfirmed.values()):
            out.append(self._emit(verdict, submitted_at=None))
        self._unconfirmed.clear()
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def monitor(self) -> OnlineMonitor:
        """The wrapped online monitor (finalisation, offline hand-off)."""
        return self._monitor

    @property
    def watch_seq(self) -> int:
        """Highest emitted watch sequence number."""
        return self._watch_seq

    def note_throttle(self, node: int | None = None) -> None:
        """Count one throttle frame (against a node's shard if known)."""
        self.throttles += 1
        if node is not None:
            self.shards[node % self.num_shards].throttles += 1

    def stats(self) -> dict[str, Any]:
        """JSON-ready counters for the ``stats`` frame and CLI line."""
        passes = {
            key: count - self._passes_at_start.get(key, 0)
            for key, count in clock_pass_counts().items()
        }
        lat = {
            "count": self._latency_count,
            "avg_ms": (
                self._latency_total / self._latency_count * 1e3
                if self._latency_count
                else 0.0
            ),
            "max_ms": self._latency_max * 1e3,
        }
        return {
            "role": self.role,
            "num_nodes": self.num_nodes,
            "num_shards": self.num_shards,
            "events_applied": sum(s.applied for s in self.shards),
            "closes_applied": self._closes_applied,
            "watches_registered": self._watch_count,
            "verdicts_emitted": self._watch_seq,
            "throttles": self.throttles,
            "parked": self.pending(),
            "last_seq": self.last_seq,
            "shards": [s.as_dict() for s in self.shards],
            "watch_latency": lat,
            "clock_passes": dict(passes),
        }
