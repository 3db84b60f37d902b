"""Stateful property test: the online monitor vs offline recomputation.

A hypothesis rule-based machine drives an :class:`OnlineMonitor` with
an arbitrary interleaving of internal/send/receive observations and
checks, at every step, that the incrementally maintained vector clocks
match a from-scratch offline analysis of the trace so far.  Internal
events may be tagged into intervals that close at any point, and
watches (duplicate names included) may be registered before or after
the intervals they name close: the pending watches must always be
exactly those with an interval still open, in registration order, and
every other watch must have fired once.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.events.builder import TraceBuilder
from repro.events.poset import Execution
from repro.monitor.online import OnlineMonitor

NUM_NODES = 3
INTERVALS = ("A", "B", "C")


class OnlineMonitorMachine(RuleBasedStateMachine):
    """Feeds a random valid stream into monitor + shadow builder."""

    def __init__(self):
        super().__init__()
        self.monitor = OnlineMonitor(NUM_NODES)
        self.shadow = TraceBuilder(NUM_NODES)
        self.in_flight = []  # (monitor_handle, shadow_handle)
        self.steps = 0
        self.tagged = set()
        self.closed = set()
        self.watches = []  # (name, intervals named), in registration order

    @rule(
        node=st.integers(0, NUM_NODES - 1),
        interval=st.none() | st.sampled_from(INTERVALS),
    )
    def observe_internal(self, node, interval):
        if interval in self.closed:
            interval = None
        self.monitor.internal(node, interval=interval)
        self.shadow.internal(node)
        if interval is not None:
            self.tagged.add(interval)
        self.steps += 1

    @rule(interval=st.sampled_from(INTERVALS))
    def close(self, interval):
        if interval in self.tagged:  # closing twice only polls
            self.monitor.close(interval)
            self.closed.add(interval)

    @rule(
        name=st.sampled_from(("w0", "w1", "w2")),
        left=st.sampled_from(INTERVALS),
        right=st.sampled_from(INTERVALS),
    )
    def watch(self, name, left, right):
        self.monitor.watch(name, f"R4({left}, {right})")
        self.watches.append((name, {left, right}))
        self.monitor.poll_watches()  # as the service does on registration

    @invariant()
    def pending_watches_are_those_still_open(self):
        pending = [n for n, needed in self.watches if not needed <= self.closed]
        assert self.monitor.watch_names() == tuple(pending)
        fired = [n.name for n in self.monitor.notifications]
        assert sorted(fired) == sorted(
            n for n, needed in self.watches if needed <= self.closed
        )

    @rule(node=st.integers(0, NUM_NODES - 1))
    def observe_send(self, node):
        mh = self.monitor.send(node)
        sh = self.shadow.send(node)
        self.in_flight.append((mh, sh))
        self.steps += 1

    @precondition(lambda self: self.in_flight)
    @rule(node=st.integers(0, NUM_NODES - 1), pick=st.integers(0, 10))
    def observe_recv(self, node, pick):
        mh, sh = self.in_flight.pop(pick % len(self.in_flight))
        if mh.send[0] == node and mh.send[1] >= self.shadow.count(node) + 1:
            # would be an invalid (backwards) self-message; skip
            self.in_flight.append((mh, sh))
            return
        self.monitor.recv(node, mh)
        self.shadow.recv(node, sh)
        self.steps += 1

    @invariant()
    def clocks_match_offline(self):
        if self.steps == 0 or self.steps % 5:
            return  # check every 5th step to keep the machine fast
        ex = Execution(self.shadow.build())
        for eid in ex.iter_ids():
            assert list(self.monitor.clock(eid)) == list(ex.clock(eid)), eid

    def teardown(self):
        if self.steps:
            ex = Execution(self.shadow.build())
            for eid in ex.iter_ids():
                assert list(self.monitor.clock(eid)) == list(ex.clock(eid))
            assert self.monitor.to_execution().trace == ex.trace


TestOnlineMonitorMachine = OnlineMonitorMachine.TestCase
TestOnlineMonitorMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
