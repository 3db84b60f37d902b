"""Tests for the live networked monitoring service.

Layers covered bottom-up: the wire protocol (framing, size limits),
the append-only event log (torn tails, sequence continuity), the
transport-agnostic :class:`~repro.service.core.MonitorCore` (causal
parking, deferred closes, exactly-once verdicts, record replay), the
asyncio service end-to-end over loopback (sharded multi-client ingest,
verdict pushes, backpressure), and warm-standby failover.

The headline property mirrors the repo's online/offline agreement
suite: N concurrent clients streaming a labelled trace through the
live service produce exactly the watch verdicts the offline
:class:`~repro.core.evaluator.SynchronizationAnalyzer` computes from
the recorded trace — on both causality backends — with zero offline
clock passes during ingest.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import AnalysisContext
from repro.core.evaluator import SynchronizationAnalyzer
from repro.events.poset import Execution
from repro.events.serialization import loads, save
from repro.events.trace import Trace, causal_schedule
from repro.monitor.checker import ConditionChecker
from repro.nonatomic.selection import by_label
from repro.service import (
    EventLog,
    EventRejected,
    FrameDecoder,
    FrameTooLargeError,
    LogError,
    MonitorClient,
    MonitorCore,
    MonitorService,
    ProtocolError,
    ServiceError,
    ServiceHandle,
    encode_frame,
    plan_replay,
    read_records,
)
from repro.service.client import replay_trace
from repro.simulation.workloads import barrier_trace
from tests.strategies import traces


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        frame = {"type": "event", "node": 3, "kind": "send", "label": "x"}
        dec = FrameDecoder()
        assert dec.feed(encode_frame(frame)) == [frame]

    def test_incremental_feed(self):
        frames = [{"type": "event", "node": i} for i in range(5)]
        blob = b"".join(encode_frame(f) for f in frames)
        dec = FrameDecoder()
        got = []
        for i in range(0, len(blob), 3):  # drip 3 bytes at a time
            got.extend(dec.feed(blob[i : i + 3]))
        assert got == frames

    def test_multiple_frames_one_chunk(self):
        frames = [{"type": "a"}, {"type": "b"}, {"type": "c"}]
        blob = b"".join(encode_frame(f) for f in frames)
        assert FrameDecoder().feed(blob) == frames

    def test_oversized_frame_rejected_at_header(self):
        dec = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(FrameTooLargeError):
            dec.feed(b"100000\n")

    def test_garbage_header_rejected(self):
        with pytest.raises(ProtocolError, match="length prefix"):
            FrameDecoder().feed(b"nonsense\n")

    def test_unbounded_header_rejected(self):
        with pytest.raises(ProtocolError, match="too long"):
            FrameDecoder().feed(b"9" * 64)

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="'type'"):
            FrameDecoder().feed(b"5\n[1,2]\n")

    def test_body_must_be_json(self):
        with pytest.raises(ProtocolError, match="JSON"):
            FrameDecoder().feed(b"3\n{{{\n")


# ----------------------------------------------------------------------
# event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_append_assigns_dense_seq(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with EventLog(path, fsync_every=0) as log:
            assert log.append({"op": "init", "num_nodes": 2}) == 1
            assert log.append({"op": "event", "node": 0}) == 2
            assert log.last_seq == 2
        recs = read_records(path)
        assert [r["seq"] for r in recs] == [1, 2]

    def test_reopen_resumes_sequence(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with EventLog(path, fsync_every=0) as log:
            log.append({"op": "init", "num_nodes": 2})
        with EventLog(path, fsync_every=0) as log:
            assert log.append({"op": "event", "node": 1}) == 2

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with EventLog(path, fsync_every=0) as log:
            log.append({"op": "init", "num_nodes": 2})
            log.append({"op": "event", "node": 0})
        with open(path, "ab") as fh:
            fh.write(b'{"seq":3,"op":"ev')  # crash mid-append
        recs = read_records(path)
        assert [r["seq"] for r in recs] == [1, 2]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "wb") as fh:
            fh.write(b'{"seq":1,"op":"init"}\n')
            fh.write(b"garbage\n")
            fh.write(b'{"seq":3,"op":"event"}\n')
        with pytest.raises(LogError, match="corrupt"):
            read_records(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "wb") as fh:
            fh.write(b'{"seq":1,"op":"init"}\n')
            fh.write(b'{"seq":3,"op":"event"}\n')
        with pytest.raises(LogError, match="gap"):
            read_records(path)

    def test_out_of_order_append_rejected(self, tmp_path):
        with EventLog(str(tmp_path / "l.jsonl"), fsync_every=0) as log:
            log.append({"op": "init", "num_nodes": 1})
            with pytest.raises(LogError, match="out-of-order"):
                log.append({"seq": 7, "op": "event"})


# ----------------------------------------------------------------------
# core state machine
# ----------------------------------------------------------------------
def _ev(node, kind="internal", **kw):
    return {"type": "event", "node": node, "kind": kind, **kw}


class TestMonitorCore:
    def test_receive_parks_until_send(self):
        core = MonitorCore(2)
        core.submit_event(_ev(1, "recv", send=[0, 1], interval="Y"))
        assert core.pending() == 1  # parked: send not yet applied
        core.submit_event(_ev(0, "send", interval="X"))
        assert core.pending() == 0
        assert core.stats()["events_applied"] == 2

    def test_close_defers_until_expected_count(self):
        core = MonitorCore(1)
        core.submit_watch("w", "R4(X, X)")
        core.submit_close("X", expected=2)
        assert core.pending() == 1
        core.submit_event(_ev(0, interval="X"))
        verdicts = core.submit_event(_ev(0, interval="X"))
        assert [v["name"] for v in verdicts] == ["w"]
        assert core.pending() == 0

    def test_watch_after_close_fires_immediately(self):
        core = MonitorCore(1)
        core.submit_event(_ev(0, interval="X"))
        core.submit_close("X", expected=1)
        verdicts = core.submit_watch("late", "R4(X, X)")
        assert [v["name"] for v in verdicts] == ["late"]

    def test_duplicate_watch_rejected(self):
        core = MonitorCore(1)
        core.submit_watch("w", "R4(X, X)")
        with pytest.raises(ValueError, match="already registered"):
            core.submit_watch("w", "R4(X, X)")

    def test_validation_errors(self):
        core = MonitorCore(2)
        with pytest.raises(ValueError, match="no such node"):
            core.submit_event(_ev(5))
        with pytest.raises(ValueError, match="kind"):
            core.submit_event(_ev(0, "teleport"))
        with pytest.raises(ValueError, match="send=\\[node, index\\]"):
            core.submit_event(_ev(0, "recv"))
        with pytest.raises(ValueError, match="only recv"):
            core.submit_event(_ev(0, "internal", send=[1, 1]))
        with pytest.raises(ValueError, match="expected >= 1"):
            core.submit_close("X", expected=0)

    def test_event_into_closed_interval_is_settled(self, tmp_path):
        """A tag into an interval closed since the event was queued is
        refused before the monitor appends anything: trace, applied
        count, log and queue counters agree, and the log replays to the
        same trace."""
        path = str(tmp_path / "closed.jsonl")
        with EventLog(path, fsync_every=0) as log:
            core = MonitorCore(1, log=log)
            core.submit_event(_ev(0, interval="X"))
            core.submit_close("X", expected=1)
            with pytest.raises(EventRejected, match="already closed"):
                core.submit_event(_ev(0, interval="X"))
            trace = core.monitor.to_execution().trace
            stats = core.stats()
            events = [r for r in log.records if r["op"] == "event"]
            assert trace.total_events == stats["events_applied"] == 1
            assert len(events) == 1
            assert stats["shards"][0]["queued"] == 0
            assert core.pending() == 0
            core.submit_event(_ev(0, interval="Y"))  # the node is not wedged
            assert core.stats()["events_applied"] == 2
        replayed = MonitorCore.from_records(read_records(path))
        assert replayed.monitor.to_execution().trace == \
            core.monitor.to_execution().trace

    def test_parked_event_into_closed_interval_is_settled(self, tmp_path):
        """A receive of session 1 tagged into X parks behind its send;
        X closes; session 2's send wakes it.  The refusal is session 1's:
        session 2's submit returns the verdicts its pump fired, and the
        pump drains every other runnable node."""
        path = str(tmp_path / "parked.jsonl")
        with EventLog(path, fsync_every=0) as log:
            core = MonitorCore(3, log=log)
            core.submit_watch("w", "R4(Y, Y)")
            core.submit_close("Y", expected=1)
            core.submit_event(_ev(1, interval="X"), session=1)
            core.submit_event(
                _ev(1, "recv", send=[0, 1], interval="X"), session=1
            )
            core.submit_event(_ev(2, "recv", send=[0, 1]), session=1)
            core.submit_close("X", expected=1, session=1)
            assert core.pending(1) == 2  # both receives parked
            verdicts = core.submit_event(
                _ev(0, "send", interval="Y"), session=2
            )
            assert [v["name"] for v in verdicts] == ["w"]
            assert [(sid, "already closed" in msg)
                    for sid, msg in core.take_rejections()] == [(1, True)]
            assert core.take_rejections() == []
            stats = core.stats()
            trace = core.monitor.to_execution().trace
            events = [r for r in log.records if r["op"] == "event"]
            # node 1's event, node 0's send, node 2's receive
            assert trace.total_events == stats["events_applied"] == 3
            assert len(events) == 3
            assert [s["queued"] for s in stats["shards"]] == [0, 0, 0]
            assert core.pending() == core.pending(1) == core.pending(2) == 0
        replayed = MonitorCore.from_records(read_records(path))
        assert replayed.monitor.to_execution().trace == trace

    def test_own_parked_rejection_raises_after_the_pump(self):
        """The submitter whose own parked event is refused gets
        EventRejected once the pump is done, with the pump's verdicts."""
        core = MonitorCore(2)
        core.submit_watch("w", "R4(Y, Y)")
        core.submit_close("Y", expected=1)
        core.submit_event(_ev(1, interval="X"), session=1)
        core.submit_event(_ev(1, "recv", send=[0, 1], interval="X"), session=1)
        core.submit_close("X", expected=1, session=1)
        with pytest.raises(EventRejected, match="already closed") as err:
            core.submit_event(_ev(0, "send", interval="Y"), session=1)
        assert [v["name"] for v in err.value.verdicts] == ["w"]
        assert core.take_rejections() == []
        assert core.stats()["events_applied"] == 2
        assert core.pending() == core.pending(1) == 0

    def test_watch_seq_monotone(self):
        core = MonitorCore(1)
        for i in range(3):
            core.submit_watch(f"w{i}", "R4(X, X)")
        core.submit_event(_ev(0, interval="X"))
        verdicts = core.submit_close("X", expected=1)
        assert [v["watch_seq"] for v in verdicts] == [1, 2, 3]

    def test_from_records_rebuilds_state(self):
        core = MonitorCore(2)
        core.submit_watch("w", "R1(X, Y)")
        core.submit_event(_ev(0, "send", interval="X"))
        core.submit_event(_ev(1, "recv", send=[0, 1], interval="Y"))
        core.submit_close("X", expected=1)
        core.submit_close("Y", expected=1)
        records = core.records_from(0)
        rebuilt = MonitorCore.from_records(records)
        assert rebuilt.role == "primary"
        assert rebuilt.last_seq == core.last_seq
        s1, s2 = core.stats(), rebuilt.stats()
        for key in ("events_applied", "closes_applied", "verdicts_emitted"):
            assert s1[key] == s2[key]
        # the emitted verdict must not fire again after rebuild
        assert rebuilt.promote() == []

    def test_replica_stashes_until_verdict_confirmed(self):
        """A standby that saw the close but not the verdict record must
        emit the verdict exactly once — at promotion."""
        primary = MonitorCore(1)
        primary.submit_watch("w", "R4(X, X)")
        primary.submit_event(_ev(0, interval="X"))
        primary.submit_close("X", expected=1)
        records = primary.records_from(0)
        assert records[-1]["op"] == "verdict"

        replica = MonitorCore(1, role="replica")
        replica._mem_records.clear()  # adopt the primary's log wholesale
        for rec in records[:-1]:  # verdict record lost with the primary
            replica.apply_record(rec)
        assert replica.stats()["verdicts_emitted"] == 0
        emitted = replica.promote()
        assert [(v["name"], v["watch_seq"]) for v in emitted] == [("w", 1)]
        # and the emission was logged, so a further rebuild is quiet
        rebuilt = MonitorCore.from_records(replica.records_from(0))
        assert rebuilt.promote() == []

    def test_replica_with_confirmed_verdict_does_not_reemit(self):
        primary = MonitorCore(1)
        primary.submit_watch("w", "R4(X, X)")
        primary.submit_event(_ev(0, interval="X"))
        primary.submit_close("X", expected=1)
        replica = MonitorCore(1, role="replica")
        replica._mem_records.clear()
        for rec in primary.records_from(0):  # verdict record included
            replica.apply_record(rec)
        assert replica.promote() == []


# ----------------------------------------------------------------------
# replay planning
# ----------------------------------------------------------------------
class TestPlanReplay:
    def test_shards_partition_events_and_closes(self):
        trace = barrier_trace(4, phases=2)
        plans = [plan_replay(trace, s, 2) for s in range(2)]
        events = sum(
            1 for p in plans for f in p if f["type"] == "event"
        )
        assert events == trace.total_events
        # each label closed exactly once, across all shards
        closes = [f["interval"] for p in plans for f in p if f["type"] == "close"]
        assert sorted(closes) == sorted(set(closes))
        labels = {ev.label for ev in trace.iter_events() if ev.label}
        assert set(closes) == labels

    def test_expected_counts_are_global(self):
        trace = barrier_trace(3, phases=1)
        totals: dict[str, int] = {}
        for ev in trace.iter_events():
            if ev.label:
                totals[ev.label] = totals.get(ev.label, 0) + 1
        for s in range(3):
            for f in plan_replay(trace, s, 3):
                if f["type"] == "close":
                    assert f["expected"] == totals[f["interval"]]

    def test_bad_shard_rejected(self):
        trace = barrier_trace(2, phases=1)
        with pytest.raises(ValueError, match="shard"):
            plan_replay(trace, 3, 2)


# ----------------------------------------------------------------------
# live service over loopback
# ----------------------------------------------------------------------
def _serve(**kw):
    return ServiceHandle(lambda: MonitorService(**kw)).start()


class TestLiveService:
    def test_single_client_end_to_end(self):
        trace = barrier_trace(4, phases=2)
        handle = _serve(num_nodes=4)
        try:
            host, port = handle.address
            with MonitorClient(host, port, num_nodes=4) as client:
                client.watch("order", "R1(phase0, phase1)")
                counts = replay_trace(client, trace)
                assert counts["events"] == trace.total_events
                client.wait_verdicts(1)
                stats = client.stats()
            assert stats["events_applied"] == trace.total_events
            assert stats["parked"] == 0
            assert stats["clock_passes"] == {
                "forward": 0, "reverse": 0, "extend": 0,
            }
        finally:
            handle.stop()

    def test_num_nodes_mismatch_rejected(self):
        handle = _serve(num_nodes=4)
        try:
            host, port = handle.address
            with pytest.raises(ServiceError, match="num-nodes|nodes"):
                MonitorClient(host, port, num_nodes=7)
        finally:
            handle.stop()

    def test_stale_version_rejected(self):
        import socket

        from repro.service.protocol import encode_frame as enc

        handle = _serve(num_nodes=2)
        try:
            host, port = handle.address
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(enc({"type": "hello", "version": 999}))
                dec = FrameDecoder()
                frames = []
                while not frames:
                    frames = dec.feed(sock.recv(4096))
                assert frames[0]["type"] == "error"
                assert frames[0]["code"] == "version"
        finally:
            handle.stop()

    def test_refused_parked_event_ends_its_own_session(self):
        """A's receive, tagged into X, parks; X closes; B's send wakes
        it and it is refused.  A gets the ``rejected`` error; B keeps
        its session and receives the verdict B's send decided."""
        handle = _serve(num_nodes=2)
        try:
            host, port = handle.address
            with MonitorClient(host, port, num_nodes=2) as a, \
                    MonitorClient(host, port, num_nodes=2) as b:
                a.watch("w", "R4(Y, Y)")
                a.close_interval("Y", 1)
                a.send_event(1, interval="X")
                a.send_event(1, "recv", send=[0, 1], interval="X")
                a.close_interval("X", 1)
                assert a.stats()["parked"] == 2  # the receive and Y's close
                b.send_event(0, "send", interval="Y")
                assert [v["name"] for v in b.wait_verdicts(1)] == ["w"]
                stats = b.stats()
                assert stats["events_applied"] == 2 and stats["parked"] == 0
                with pytest.raises(ServiceError, match="already closed") as err:
                    a.stats()
                assert err.value.code == "rejected"
                assert [v["name"] for v in a.verdicts] == ["w"]
        finally:
            handle.stop()

    def test_backpressure_throttles_then_disconnects(self):
        handle = _serve(num_nodes=2, throttle_at=2, disconnect_at=5)
        try:
            host, port = handle.address
            with MonitorClient(host, port, num_nodes=2) as client:
                # receives whose sends never arrive: pure parked backlog
                for i in range(1, 5):
                    client.send_event(1, "recv", send=[0, i])
                with pytest.raises((ServiceError, ConnectionError)):
                    for i in range(5, 60):
                        client.send_event(1, "recv", send=[0, i])
                        client.stats()  # forces a read of pushed frames
                assert client.throttles >= 1
        finally:
            handle.stop()

    def test_sharded_clients_agree_with_offline(self):
        """The acceptance-criteria scenario at test scale: 4 clients,
        one node-shard each, verdicts identical to the offline
        analyzer, zero offline clock passes."""
        trace = barrier_trace(4, phases=3)
        watches = [
            ("w01", "R1(phase0, phase1)"),
            ("w12", "R2(phase1, phase2) and not R4(phase2, phase0)"),
        ]
        handle = _serve(num_nodes=4)
        try:
            host, port = handle.address
            clients = [
                MonitorClient(host, port, num_nodes=4) for _ in range(4)
            ]
            for name, cond in watches:
                clients[0].watch(name, cond)
            clients[0].stats()  # barrier: watches registered first
            threads = [
                threading.Thread(
                    target=replay_trace, args=(c, trace, s, 4)
                )
                for s, c in enumerate(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for c in clients:
                c.wait_verdicts(len(watches))
            stats = clients[0].stats()
            live = {
                (v["name"], v["passed"], v["watch_seq"])
                for v in clients[0].verdicts
            }
            # every client saw the identical verdict set
            for c in clients[1:]:
                assert {
                    (v["name"], v["passed"], v["watch_seq"])
                    for v in c.verdicts
                } == live
            for c in clients:
                c.close()
        finally:
            handle.stop()
        assert stats["clock_passes"] == {
            "forward": 0, "reverse": 0, "extend": 0,
        }
        assert stats["events_applied"] == trace.total_events
        expected = _offline_verdicts(trace, watches, "vector")
        assert {(n, p) for n, p, _ in live} == expected


class TestPushPressureUnit:
    def test_slow_consumer_cutoff_spares_other_sessions(self):
        """A session whose outbound queue is completely full must be
        cut off in place — never raise ``QueueFull`` out of the verdict
        broadcast into the submitting session's loop."""
        from repro.service.server import _Session

        class _NullWriter:
            def write(self, data):
                pass

            async def drain(self):
                pass

            def close(self):
                pass

            async def wait_closed(self):
                pass

        async def scenario():
            service = MonitorService(
                num_nodes=1, throttle_at=2, disconnect_at=4
            )
            slow = _Session(1, "client", _NullWriter(), maxsize=4)
            slow.task = asyncio.get_running_loop().create_task(
                asyncio.sleep(3600)
            )
            healthy = _Session(2, "client", _NullWriter(), maxsize=4)
            service._sessions = {1: slow, 2: healthy}
            while not slow.queue.full():  # peer stopped reading entirely
                slow.queue.put_nowait({"type": "noise"})
            service._broadcast_verdict(
                {"watch_seq": 1, "name": "w", "passed": True, "decided_at": 0}
            )
            # the slow session is closed and its writer cancelled (the
            # sentinel could not fit), the healthy one got the verdict
            assert slow.closed
            with contextlib.suppress(asyncio.CancelledError):
                await slow.task
            assert slow.task.cancelled()
            assert not healthy.closed
            assert healthy.queue.qsize() == 1

        asyncio.run(scenario())


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServiceRestart:
    def test_restart_resumes_monitor_state_from_log(self, tmp_path):
        """Restarting over a non-empty log must replay it: old sends
        stay known, watch registrations survive, and the sequence and
        watch-seq numbering continue instead of resetting."""
        path = str(tmp_path / "log.jsonl")
        watches = (("w", "R1(X, Y)"),)
        first = _serve(
            num_nodes=2, log_path=path, fsync_every=0, watches=watches
        )
        host, port = first.address
        with MonitorClient(host, port, num_nodes=2) as client:
            client.send_event(0, "send", interval="X")
            client.close_interval("X", expected=1)
            stats = client.stats()  # applied barrier before the restart
            assert stats["verdicts_emitted"] == 0
        first.stop()

        second = _serve(
            num_nodes=2, log_path=path, fsync_every=0, watches=watches
        )
        try:
            host, port = second.address
            with MonitorClient(host, port, num_nodes=2) as client:
                # the pre-restart send is known: its receive applies now
                client.send_event(1, "recv", send=[0, 1], interval="Y")
                client.close_interval("Y", expected=1)
                verdicts = client.wait_verdicts(1)
                stats = client.stats()
            assert [(v["name"], v["watch_seq"]) for v in verdicts] == [
                ("w", 1)
            ]
            assert stats["parked"] == 0
            assert stats["events_applied"] == 2  # one replayed + one live
        finally:
            second.stop()
        # one continuous record sequence across both incarnations
        records = read_records(path)
        assert [r["seq"] for r in records] == list(
            range(1, len(records) + 1)
        )
        assert sum(r["op"] == "verdict" for r in records) == 1
        assert sum(r["op"] == "watch" for r in records) == 1

    def test_fsync_batched_ingest_logs_every_mutation(self, tmp_path):
        """Regression for the executor-offloaded fsync (REP007 fix):
        appends no longer sync inline, so with a tiny batch size the
        off-loop flusher must keep pace mid-session and the close must
        drain the remainder — every applied mutation ends up durable,
        in application order, with nothing lost to buffering."""
        path = str(tmp_path / "wal.jsonl")
        trace = barrier_trace(4, phases=2)
        handle = _serve(num_nodes=4, log_path=path, fsync_every=2)
        try:
            host, port = handle.address
            with MonitorClient(host, port, num_nodes=4) as client:
                client.watch("order", "R1(phase0, phase1)")
                counts = replay_trace(client, trace)
                client.wait_verdicts(1)
                stats = client.stats()
            assert stats["events_applied"] == trace.total_events
            # mid-session (before stop/close): the off-loop flusher has
            # been syncing full batches, so the durable prefix is within
            # one batch of everything applied — not an empty file whose
            # records all sit in the write buffer until close
            assert len(read_records(path)) >= stats["last_seq"] - 2
        finally:
            handle.stop()
        records = read_records(path)
        ops = [r["op"] for r in records]
        assert ops[0] == "init"
        assert ops.count("event") == counts["events"] == trace.total_events
        assert ops.count("close") == counts["closes"]
        assert ops.count("watch") == 1
        assert ops.count("verdict") == 1
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))

    def test_restart_rejects_num_nodes_mismatch(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        _serve(num_nodes=2, log_path=path, fsync_every=0).stop()
        with pytest.raises(ValueError, match="nodes"):
            _serve(num_nodes=3, log_path=path, fsync_every=0)

    def test_restart_emits_verdict_lost_in_crash(self, tmp_path):
        """If the old primary died between applying a close and logging
        its verdict, the restarted service emits (and logs) that verdict
        before accepting connections."""
        core = MonitorCore(1)
        core.submit_watch("w", "R4(X, X)")
        core.submit_event(_ev(0, interval="X"))
        core.submit_close("X", expected=1)
        path = str(tmp_path / "log.jsonl")
        with EventLog(path, fsync_every=0) as log:
            for rec in core.records_from(0):
                if rec["op"] != "verdict":
                    log.append(rec)

        handle = _serve(num_nodes=1, log_path=path, fsync_every=0)
        try:
            assert handle.stats()["verdicts_emitted"] == 1
        finally:
            handle.stop()
        records = read_records(path)
        assert [
            (r["name"], r["watch_seq"])
            for r in records
            if r["op"] == "verdict"
        ] == [("w", 1)]


class TestStandbyRetry:
    def test_standby_started_before_primary_stays_warm(self, tmp_path):
        """A standby whose primary is not up yet must retry — primary
        loss (and with it auto-promotion) may only trigger after an
        established replication stream dies."""
        port = _free_port()

        def loss_pending(handle) -> bool:
            async def probe(service):
                try:
                    await asyncio.wait_for(
                        service.wait_primary_loss(), timeout=0.4
                    )
                except asyncio.TimeoutError:
                    return True
                return False

            return handle.call(probe)

        standby = _serve(
            num_nodes=1,
            log_path=str(tmp_path / "standby.jsonl"),
            fsync_every=0,
            primary=("127.0.0.1", port),
        )
        primary = None
        try:
            # nothing is listening yet: refused connects must not count
            assert loss_pending(standby)
            primary = _serve(
                num_nodes=1,
                log_path=str(tmp_path / "primary.jsonl"),
                fsync_every=0,
                port=port,
            )
            host, bound = primary.address
            with MonitorClient(host, bound, num_nodes=1) as client:
                client.watch("w", "R4(X, X)")
                client.send_event(0, interval="X")
                client.close_interval("X", expected=1)
                client.wait_verdicts(1)
                client.stats()  # barrier: replication flushed
            target = primary.stats()["last_seq"]
            deadline = 200
            while standby.stats()["last_seq"] < target:
                deadline -= 1
                assert deadline, "standby never caught up"
                time.sleep(0.05)
            primary.stop()

            async def wait_loss(service):
                await asyncio.wait_for(service.wait_primary_loss(), 5.0)

            standby.call(wait_loss)
            assert standby.promote() == []  # verdict was confirmed
            stats = standby.stats()
            assert stats["role"] == "primary"
            assert stats["events_applied"] == 1
            assert stats["verdicts_emitted"] == 1
        finally:
            if primary is not None:
                primary.stop()
            standby.stop()


def _offline_verdicts(trace, watches, backend) -> set[tuple[str, bool]]:
    """The offline analyzer's answer for label-bound watch conditions."""
    from repro.monitor.predicates import parse_condition

    ctx = AnalysisContext(Execution(trace), backend=backend)
    checker = ConditionChecker(SynchronizationAnalyzer(ctx, engine="linear"))
    out = set()
    for name, cond in watches:
        parsed = parse_condition(cond)
        bindings = {
            label: by_label(ctx.execution, label, name=label)
            for label in parsed.names()
        }
        out.add((name, checker.check(parsed, bindings).passed))
    return out


# ----------------------------------------------------------------------
# hypothesis: live service == offline analyzer, both backends
# ----------------------------------------------------------------------
def _labelled(trace: Trace, marks: list[int]) -> Trace:
    """Tag a trace's events with X/Y labels (1 -> X, 2 -> Y) so the
    service's interval machinery has something to close."""
    schedule = [ev for _, ev, _ in causal_schedule(trace)]
    labels = {}
    for ev, mark in zip(schedule, marks):
        labels[ev.eid] = (None, "X", "Y")[mark % 3]
    # guarantee both intervals are non-empty (first/last are distinct
    # events since the caller ensures total_events >= 2)
    have_x = any(v == "X" for v in labels.values())
    have_y = any(v == "Y" for v in labels.values())
    if not have_x or not have_y:
        labels[schedule[0].eid] = "X"
        labels[schedule[-1].eid] = "Y"
    return Trace(
        [
            [
                dataclasses.replace(ev, label=labels.get(ev.eid))
                for ev in trace.events_of(node)
            ]
            for node in range(trace.num_nodes)
        ],
        trace.messages,
    )


def _out_of_order(
    frames: list[dict], node_order: list[int]
) -> list[dict]:
    """The same frames in an order the pump must park and reorder: every
    close first and twice (a close before its events, and a duplicate),
    then the events node by node in ``node_order``, each node's in
    program order.  A receive then waits for a send of a node streamed
    later, and the receives behind it on its node wait with it."""
    closes = [f for f in frames if f["type"] == "close"]
    events = [f for f in frames if f["type"] == "event"]
    rank = {node: i for i, node in enumerate(node_order)}
    events.sort(key=lambda f: rank[f["node"]])  # stable: program order kept
    return closes + closes + events


def _send_all(client: MonitorClient, frames: list[dict]) -> None:
    for frame in frames:
        client._send(frame)
    client.poll()


class TestServiceOfflineEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        trace=traces(max_nodes=4, max_ops=24),
        marks=st.lists(st.integers(0, 2), min_size=2, max_size=64),
        data=st.data(),
    )
    def test_live_verdicts_match_offline(self, trace, marks, data):
        if trace.total_events < 2:
            return
        trace = _labelled(trace, marks)
        watches = [
            ("w-r1", "R1(X, Y)"),
            ("w-mix", "R2(X, Y) or not R4(Y, X)"),
        ]
        num_shards = data.draw(st.integers(1, min(3, trace.num_nodes)))
        # in causal order (as replay_trace streams it), or with every
        # shard's frames out of order (see _out_of_order)
        node_order = data.draw(
            st.none() | st.permutations(range(trace.num_nodes))
        )
        handle = _serve(num_nodes=trace.num_nodes)
        try:
            host, port = handle.address
            clients = [
                MonitorClient(host, port, num_nodes=trace.num_nodes)
                for _ in range(num_shards)
            ]
            for name, cond in watches:
                clients[0].watch(name, cond)
            clients[0].stats()

            def stream(client, shard):
                if node_order is None:
                    replay_trace(client, trace, shard, num_shards)
                else:
                    frames = plan_replay(trace, shard, num_shards)
                    _send_all(client, _out_of_order(frames, node_order))

            threads = [
                threading.Thread(target=stream, args=(c, s))
                for s, c in enumerate(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            live = {
                (v["name"], v["passed"])
                for v in clients[0].wait_verdicts(len(watches))
            }
            for c in clients:
                c.stats()  # barrier: each session's frames all handled
            stats = clients[0].stats()
            for c in clients:
                c.close()

            async def log_of(service):
                return service.core.records_from(0)

            records = handle.call(log_of)
        finally:
            handle.stop()
        assert stats["clock_passes"] == {
            "forward": 0, "reverse": 0, "extend": 0,
        }
        assert stats["parked"] == 0
        assert stats["events_applied"] == trace.total_events
        for backend in ("vector", "reachability"):
            assert live == _offline_verdicts(trace, watches, backend), backend
        # the log holds every applied op in an order that replays with
        # no parking; without its verdict records, a core rebuilt from
        # it derives the same verdicts again
        rebuilt = MonitorCore.from_records(
            [r for r in records if r["op"] != "verdict"]
        )
        assert {(v["name"], v["passed"]) for v in rebuilt.promote()} == live


# ----------------------------------------------------------------------
# failover
# ----------------------------------------------------------------------
class TestFailover:
    def test_promoted_standby_resumes_without_loss_or_duplicates(
        self, tmp_path
    ):
        """Kill the primary mid-stream; the promoted standby must hold
        the full ingested state, emit the undecided watch exactly once
        when it decides, and never re-emit the verdict the primary
        already confirmed."""
        trace = barrier_trace(3, phases=2)
        frames = plan_replay(trace)
        events = [f for f in frames if f["type"] == "event"]
        closes = {f["interval"]: f for f in frames if f["type"] == "close"}

        primary = _serve(
            num_nodes=3,
            log_path=str(tmp_path / "primary.jsonl"),
            fsync_every=0,
        )
        host, port = primary.address
        standby = _serve(
            num_nodes=3,
            log_path=str(tmp_path / "standby.jsonl"),
            fsync_every=0,
            primary=(host, port),
        )
        try:
            with MonitorClient(host, port, num_nodes=3) as client:
                client.watch("early", "R4(phase0, phase0)")
                client.watch("late", "R1(phase0, phase1)")
                for frame in events:
                    client._send(frame)
                client._send(closes["phase0"])  # decides only "early"
                early = client.wait_verdicts(1)[0]
                assert early["name"] == "early"
                client.stats()  # barrier: replication flushed

            deadline = 100
            target = primary.stats()["last_seq"]
            while standby.stats()["last_seq"] < target:
                deadline -= 1
                assert deadline, "standby never caught up"
                time.sleep(0.05)
            primary.stop()  # primary dies mid-run

            reemitted = standby.promote()
            assert reemitted == []  # 'early' was confirmed before death
            host2, port2 = standby.address
            with MonitorClient(host2, port2, num_nodes=3) as c2:
                for name, frame in closes.items():
                    if name != "phase0":
                        c2._send(frame)
                late = c2.wait_verdicts(1)
                # only the undecided watch fires, with the next seq
                assert [(v["name"], v["watch_seq"]) for v in late] == [
                    ("late", early["watch_seq"] + 1)
                ]
                stats = c2.stats()
            assert stats["role"] == "primary"
            assert stats["events_applied"] == trace.total_events
            assert stats["verdicts_emitted"] == 2
        finally:
            standby.stop()

    def test_promotion_emits_unconfirmed_verdict_exactly_once(
        self, tmp_path
    ):
        """If the primary dies between applying a close and confirming
        its verdict, the standby must emit that verdict at promotion —
        once.  The primary gets its ops in causal order, and out of
        order: the closes before their events (one of them twice) and
        a chain of receives parked across nodes (node 2 waits on node
        1, whose receive and send wait on node 0).  Either way its log
        must replay in causal order."""
        # X = {send (0,1), its recv (1,1)}; Y = {send (1,2), its recv
        # (2,1)}: every event of X precedes every event of Y
        events = [
            _ev(0, "send", interval="X"),
            _ev(1, "recv", send=[0, 1], interval="X"),
            _ev(1, "send", interval="Y"),
            _ev(2, "recv", send=[1, 2], interval="Y"),
        ]
        for out_of_order in (False, True):
            primary_core = MonitorCore(3)
            primary_core.submit_watch("w", "R1(X, Y)")
            if out_of_order:
                for name in ("Y", "X", "X"):
                    primary_core.submit_close(name, expected=2)
                for i in (3, 1, 2):
                    assert primary_core.submit_event(events[i]) == []
                assert primary_core.pending() == 6
                primary_core.submit_event(events[0])  # unwinds the chain
            else:
                for ev in events:
                    primary_core.submit_event(ev)
                primary_core.submit_close("X", expected=2)
                primary_core.submit_close("Y", expected=2)
            assert primary_core.pending() == 0
            records = primary_core.records_from(0)
            assert [
                r["passed"] for r in records if r["op"] == "verdict"
            ] == [True]
            # the standby owns its own init record (seq 1); the verdict
            # record died with the primary
            confirmed = [
                r for r in records if r["op"] not in ("verdict", "init")
            ]

            standby = _serve(
                num_nodes=3,
                log_path=str(tmp_path / f"standby-{out_of_order}.jsonl"),
                fsync_every=0,
                primary=("127.0.0.1", 1),  # never connected; fed directly
            )
            try:

                async def feed(service, confirmed=confirmed):
                    for rec in confirmed:
                        service.core.apply_record(rec)

                standby.call(feed)
                emitted = standby.promote()
                assert [
                    (v["name"], v["watch_seq"], v["passed"]) for v in emitted
                ] == [("w", 1, True)]
                assert standby.stats()["verdicts_emitted"] == 1
            finally:
                standby.stop()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestServiceCli:
    def test_serve_oneshot_and_client(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "t.json")
        save(barrier_trace(3, phases=2), trace_path)

        handle = _serve(num_nodes=3)
        try:
            host, port = handle.address
            rc = main([
                "client", trace_path,
                "--connect", f"{host}:{port}",
                "--watch", "order=R1(phase0, phase1)",
                "--stats",
            ])
            out = capsys.readouterr().out
            assert rc == 0
            assert "verdict #1 'order'" in out
            assert "service[primary]:" in out
            assert "clock passes: forward=0 reverse=0 extend=0" in out
        finally:
            handle.stop()

    def test_client_rejects_unlabelled_trace(self, tmp_path, capsys):
        from repro.cli import main
        from repro.simulation.workloads import random_trace

        trace_path = str(tmp_path / "t.json")
        save(random_trace(2, events_per_node=3, msg_prob=0.0, seed=1),
             trace_path)
        rc = main([
            "client", trace_path,
            "--connect", "127.0.0.1:1",
            "--watch", "w=R1(a, b)",
        ])
        assert rc == 2
        assert "no labelled events" in capsys.readouterr().err

    def test_loads_guard_still_roundtrips(self, tmp_path):
        # the service reuses the serialization layer; sanity-check the
        # guarded loads path end-to-end with a service-sized trace
        trace = barrier_trace(2, phases=1)
        path = str(tmp_path / "t.json")
        save(trace, path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert loads(text).total_events == trace.total_events
