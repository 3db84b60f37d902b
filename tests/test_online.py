"""Tests for the online (streaming) monitor.

The key property: for closed, disjoint intervals, the past-only online
evaluation agrees with the offline linear engine on every relation —
on random streams and on all 32 family members.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linear import LinearEvaluator
from repro.core.relations import BASE_RELATIONS, FAMILY32
from repro.monitor.online import OnlineMonitor


def replay_into_monitor(trace):
    """Feed a recorded trace into a fresh OnlineMonitor (stream replay).

    Events are replayed node-major in a causally valid global order:
    repeatedly advance nodes whose next event is enabled.
    """
    om = OnlineMonitor(trace.num_nodes)
    pos = [0] * trace.num_nodes
    handles = {}
    progressed = True
    while progressed:
        progressed = False
        for node in range(trace.num_nodes):
            while pos[node] < trace.num_real(node):
                ev = trace.events_of(node)[pos[node]]
                send = trace.send_of(ev.eid)
                if send is not None and send not in handles:
                    break  # wait for the send to be replayed
                if ev.kind.name == "SEND":
                    handles[ev.eid] = om.send(node, label=ev.label, time=ev.time)
                elif ev.kind.name == "RECV" and send is not None:
                    om.recv(node, handles[send], label=ev.label, time=ev.time)
                else:
                    om.internal(node, label=ev.label, time=ev.time)
                pos[node] += 1
                progressed = True
    assert pos == [trace.num_real(i) for i in range(trace.num_nodes)]
    return om


class TestIngestion:
    def test_clock_matches_offline(self, message_exec):
        om = replay_into_monitor(message_exec.trace)
        for eid in message_exec.iter_ids():
            assert list(om.clock(eid)) == list(message_exec.clock(eid))

    def test_precedes_matches_offline(self, message_exec):
        om = replay_into_monitor(message_exec.trace)
        ids = list(message_exec.iter_ids())
        for a in ids:
            for b in ids:
                assert om.precedes(a, b) == message_exec.precedes(a, b)

    def test_receive_before_send_rejected(self):
        from repro.events.builder import MessageHandle

        om = OnlineMonitor(2)
        with pytest.raises(ValueError, match="before its send"):
            om.recv(1, MessageHandle(send=(0, 1)))

    def test_to_execution(self, message_exec):
        om = replay_into_monitor(message_exec.trace)
        assert om.to_execution().trace == message_exec.trace


class TestIntervals:
    def test_tagging_and_close(self):
        om = OnlineMonitor(2)
        om.internal(0, interval="X")
        om.internal(1, interval="X")
        iv = om.interval("X")
        assert iv.count == 2
        assert iv.node_set == (0, 1)
        om.close("X")
        with pytest.raises(ValueError, match="already closed"):
            om.internal(0, interval="X")

    def test_close_empty_rejected(self):
        om = OnlineMonitor(1)
        om.interval("X")
        with pytest.raises(ValueError, match="empty"):
            om.close("X")

    def test_holds_requires_closed(self):
        om = OnlineMonitor(2)
        om.internal(0, interval="X")
        om.internal(1, interval="Y")
        om.close("X")
        with pytest.raises(ValueError, match="not closed"):
            om.holds("R4", "X", "Y")


class TestOnlineOfflineAgreement:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(2, 5),
        k=st.integers(3, 10),
    )
    def test_all_relations_agree(self, seed, nodes, k):
        from repro.simulation.workloads import random_trace
        from repro.nonatomic.selection import random_disjoint_pair

        trace = random_trace(nodes, events_per_node=k, msg_prob=0.4, seed=seed)
        om = replay_into_monitor(trace)
        ex = om.to_execution()
        rng = np.random.default_rng(seed)
        try:
            x, y = random_disjoint_pair(ex, rng, events_per_node=2)
        except ValueError:
            return
        # register the same intervals online
        for eid in sorted(x.ids):
            om.interval("X").add(eid)
        for eid in sorted(y.ids):
            om.interval("Y").add(eid)
        om.close("X")
        om.close("Y")
        lin = LinearEvaluator(ex)
        for rel in BASE_RELATIONS:
            assert om.holds(rel, "X", "Y") == lin.evaluate(rel, x, y), rel
        for spec in FAMILY32:
            assert om.holds(spec, "X", "Y") == lin.evaluate_spec(
                spec, x, y
            ), spec

    def test_string_specs(self, message_exec):
        om = replay_into_monitor(message_exec.trace)
        om.interval("X").add((0, 1))
        om.interval("Y").add((1, 2))
        om.close("X")
        om.close("Y")
        assert om.holds("R1", "X", "Y")
        assert om.holds("R1(U,L)", "X", "Y")


class TestWatches:
    def test_watch_fires_on_close(self):
        om = OnlineMonitor(2)
        om.watch("ordering", "R1(X, Y)")
        h = om.send(0, interval="X")
        om.recv(1, h, interval="Y")
        assert om.close("X") == []
        fired = om.close("Y")
        assert len(fired) == 1
        assert fired[0].name == "ordering"
        assert fired[0].passed
        # registered after its intervals closed: fires on the next poll
        om.watch("late", "R1(X, Y)")
        assert om.watch_names() == ("late",)
        fired = om.poll_watches()
        assert [(n.name, n.passed) for n in fired] == [("late", True)]
        assert om.poll_watches() == []
        assert om.close("Y") == []  # closing again polls, fires nothing

    def test_watch_negative_result(self):
        om = OnlineMonitor(2)
        om.watch("impossible", "R1(Y, X)")
        om.watch("impossible", "R4(X, X)")  # same name, fires on its own
        h = om.send(0, interval="X")
        om.recv(1, h, interval="Y")
        fired = om.close("X")
        assert [(n.name, n.passed) for n in fired] == [("impossible", True)]
        assert om.watch_names() == ("impossible",)
        assert om.watch_pending("impossible")
        fired = om.close("Y")
        assert [(n.name, n.passed) for n in fired] == [("impossible", False)]
        assert not om.watch_pending("impossible")

    def test_watch_waits_for_all_names(self):
        om = OnlineMonitor(3)
        om.watch("w", "R4(A, B) and R4(B, C)")
        om.watch("ghost", "R4(A, Nowhere)")  # never-created interval
        om.internal(0, interval="A")
        om.internal(1, interval="B")
        om.internal(2, interval="C")
        assert om.close("A") == []
        assert om.close("B") == []
        assert [n.name for n in om.close("C")] == ["w"]
        assert om.poll_watches() == []
        assert om.watch_names() == ("ghost",)
        assert om.watch_pending("ghost") and not om.watch_pending("w")

    def test_notifications_accumulate(self):
        om = OnlineMonitor(2)
        om.watch("w2", "R4(X, Y)")
        om.watch("w1", "not R4(Y, X)")
        h = om.send(0, interval="X")
        om.recv(1, h, interval="Y")
        assert om.close("X") == []
        # ready at registration (its only interval is closed), but not
        # fired until the next poll, which the close of Y drives
        om.watch("w0", "R4(X, X)")
        assert om.watch_names() == ("w2", "w1", "w0")
        fired = om.close("Y")
        # one close decides all three: fired in registration order
        assert [n.name for n in fired] == ["w2", "w1", "w0"]
        assert [n.name for n in om.notifications] == ["w2", "w1", "w0"]
        assert om.watch_names() == ()

    def test_interval_names_read_at_registration_only(self, monkeypatch):
        """A close touches the watches waiting on its interval, and
        reads no condition's interval names: those are read once, when
        the watch is registered, however many watches are pending."""
        from repro.monitor.predicates import Atom

        calls = []
        names = Atom.names

        def counting(self):
            calls.append(self)
            return names(self)

        monkeypatch.setattr(Atom, "names", counting)
        om = OnlineMonitor(2)
        for i in range(20):  # pending on intervals that never close
            om.watch(f"idle{i}", f"R1(P{i}, Q{i})")
        om.watch("xy", "R1(X, Y) and R4(X, Y)")
        registered = len(calls)
        h = om.send(0, interval="X")
        om.recv(1, h, interval="Y")
        assert om.close("X") == []
        assert [n.name for n in om.close("Y")] == ["xy"]
        assert om.poll_watches() == []
        assert len(calls) == registered
        assert len(om.watch_names()) == 20
