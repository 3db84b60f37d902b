"""Shared analysis context: lazy clocks, memoized cuts, batch planner.

Property tests for the amortization layer:

* the lazy reverse-clock substrate returns exactly the eager pass'
  timestamps, and is only built when a future-side consumer asks;
* :class:`~repro.core.context.CutCache` results are identical to
  uncached folds, and repeated queries over one interval pair pay the
  fold exactly once;
* :meth:`Execution.extend` + cache invalidation never serves stale
  vectors — post-growth cuts equal a from-scratch analysis;
* :meth:`SynchronizationAnalyzer.batch_holds` agrees with the scalar
  :meth:`holds` path on every query;
* :class:`~repro.monitor.online.OnlineMonitor` ingestion plus
  finalisation performs zero offline clock passes.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.context import AnalysisContext, CutCache
from repro.core.cuts import cut_C1, cut_C2, cut_C3, cut_C4
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.relations import BASE_RELATIONS, FAMILY32, Relation
from repro.events.builder import TraceBuilder
from repro.events.clocks import (
    clock_pass_counts,
    compute_forward_clocks,
    compute_reverse_clocks,
    reset_clock_pass_counts,
)
from repro.events.poset import Execution
from repro.events.trace import Trace, TraceError
from repro.monitor.online import OnlineMonitor
from repro.nonatomic.event import NonatomicEvent
from repro.nonatomic.proxies import (
    Proxy,
    ProxyDefinition,
    ProxyUndefinedError,
    proxy_of,
)

from .strategies import executions, execution_with_pair, traces

_CUT_FNS = {"C1": cut_C1, "C2": cut_C2, "C3": cut_C3, "C4": cut_C4}


def _clone(x: NonatomicEvent) -> NonatomicEvent:
    """A fresh interval object (empty per-instance cache, same identity)."""
    return NonatomicEvent(x.execution, x.ids, name=x.name)


def _has_global_proxies(x: NonatomicEvent) -> bool:
    try:
        for which in Proxy:
            proxy_of(x, which, ProxyDefinition.GLOBAL)
    except ProxyUndefinedError:
        return False
    return True


def _replay(num_nodes: int, ops: list[tuple[int, int, int]]) -> Trace:
    """Deterministically replay ops into a trace (one internal per node
    first, so every prefix of ``ops`` yields a valid trace that the
    full replay extends append-only)."""
    b = TraceBuilder(num_nodes)
    in_flight: list[list] = [[] for _ in range(num_nodes)]
    t = 0.0
    for node in range(num_nodes):
        t += 1.0
        b.internal(node, time=t)
    for node, action, aux in ops:
        node %= num_nodes
        t = float(num_nodes + len(in_flight)) + t  # monotone, deterministic
        if action == 1 and num_nodes > 1:
            dst = aux % num_nodes
            if dst == node:
                dst = (dst + 1) % num_nodes
            in_flight[dst].append(b.send(node, time=t))
        elif action == 2 and in_flight[node]:
            b.recv(node, in_flight[node].pop(0), time=t)
        else:
            b.internal(node, time=t)
    return b.build()


_ops = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 4)),
    min_size=0,
    max_size=30,
)


class TestLazyReverseClocks:
    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_lazy_reverse_matches_eager(self, trace):
        ex = Execution(trace)
        assert not ex.reverse_ready
        # forward-only consumers never build the reverse structure
        for eid in ex.iter_ids():
            ex.clock(eid)
        assert not ex.reverse_ready
        expected = compute_reverse_clocks(trace)
        for node in range(ex.num_nodes):
            assert np.array_equal(ex.rclock_matrix(node), expected[node])
        assert ex.reverse_ready

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_construction_runs_no_reverse_pass(self, trace):
        reset_clock_pass_counts()
        ex = Execution(trace)
        for eid in ex.iter_ids():
            ex.clock(eid)
        counts = clock_pass_counts()
        assert counts["forward"] == 1
        assert counts["reverse"] == 0
        ex.rclock_matrix(0)
        assert clock_pass_counts()["reverse"] == 1


class TestCutCache:
    @given(execution_with_pair())
    @settings(max_examples=50, deadline=None)
    def test_cached_cuts_match_uncached(self, exy):
        ex, x, y = exy
        ctx = AnalysisContext.of(ex)
        for iv in (x, y):
            for which, fn in _CUT_FNS.items():
                cached = ctx.cut(iv, which)
                direct = fn(_clone(iv))
                assert np.array_equal(cached.vector, direct.vector)

    @given(execution_with_pair())
    @settings(max_examples=30, deadline=None)
    def test_repeat_queries_fold_once(self, exy):
        ex, x, y = exy
        ctx = AnalysisContext.of(ex)
        an = SynchronizationAnalyzer(ctx, engine="linear", check_disjoint=False)
        an.all_relations(x, y)
        an.holds(Relation.R2, x, y)
        misses_after_first = ctx.cache_misses
        assert misses_after_first > 0
        # repeat with *fresh* interval objects of the same identity:
        # every cut request must now be a hit
        an.all_relations(_clone(x), _clone(y))
        an.holds(Relation.R2, _clone(x), _clone(y))
        assert ctx.cache_misses == misses_after_first
        assert ctx.cache_hits > 0

    def test_interval_of_foreign_execution_rejected(self):
        b = TraceBuilder(2)
        b.internal(0)
        b.internal(1)
        ex = b.execute()
        b2 = TraceBuilder(2)
        f0 = b2.internal(0)
        b2.internal(1)
        other = b2.execute()
        cache = CutCache(ex)
        with pytest.raises(ValueError):
            cache.cut(NonatomicEvent(other, [f0]), "C1")


class TestExtendInvalidation:
    @given(st.integers(2, 4), _ops, _ops)
    @settings(max_examples=50, deadline=None)
    def test_no_stale_vectors_after_extend(self, num_nodes, head, tail):
        prefix = _replay(num_nodes, head)
        full = _replay(num_nodes, head + tail)
        ex = Execution(prefix)
        ctx = AnalysisContext.of(ex)
        # pick a real interval in the prefix and pay its folds
        ids = sorted(ex.iter_ids())[: max(1, num_nodes)]
        x = ctx.interval(ids, name="X")
        before = ctx.cuts(x)
        version_before = ex.version
        ctx.extend(full)
        assert ex.version == version_before + 1
        assert not ex.reverse_ready
        # cached vectors must match a from-scratch analysis of the
        # extended trace (future cuts C3/C4 change when the future grows)
        fresh = Execution(full)
        fresh_x = NonatomicEvent(fresh, ids, name="X")
        after = ctx.cuts(ctx.interval(ids, name="X"))
        for name, fn in _CUT_FNS.items():
            expect = fn(fresh_x)
            got = getattr(after, name.lower())
            assert np.array_equal(got.vector, expect.vector), name
        del before  # pre-growth quadruple: only referenced, never served

    @given(st.integers(2, 4), _ops, _ops)
    @settings(max_examples=50, deadline=None)
    def test_incremental_forward_clocks_match_scratch(
        self, num_nodes, head, tail
    ):
        prefix = _replay(num_nodes, head)
        full = _replay(num_nodes, head + tail)
        ex = Execution(prefix).extend(full)
        expected = compute_forward_clocks(full)
        for node in range(num_nodes):
            assert np.array_equal(ex.clock_matrix(node), expected[node])

    def test_non_prefix_extension_rejected(self):
        b = TraceBuilder(2)
        b.internal(0, label="a")
        b.internal(1)
        ex = Execution(b.build())
        b2 = TraceBuilder(2)
        b2.internal(0, label="different")
        b2.internal(1)
        b2.internal(0)
        with pytest.raises(TraceError):
            ex.extend(b2.build())


class TestBatchPlanner:
    @given(executions(max_nodes=4, max_ops=30))
    @settings(max_examples=40, deadline=None)
    def test_batch_holds_matches_scalar(self, ex):
        ids = sorted(ex.iter_ids())
        assume(len(ids) >= 4)
        # four disjoint contiguous chunks -> every ordered pair is a
        # valid disjoint query
        chunks = np.array_split(np.arange(len(ids)), 4)
        intervals = [
            NonatomicEvent(ex, [ids[i] for i in chunk], name=f"I{n}")
            for n, chunk in enumerate(chunks)
        ]
        specs = [*BASE_RELATIONS, *FAMILY32]
        an = SynchronizationAnalyzer(ex, engine="linear")
        naive = SynchronizationAnalyzer(ex, engine="naive")
        queries = [
            (spec, x, y)
            for spec in specs
            for x in intervals
            for y in intervals
            if x is not y
        ]
        batched = an.batch_holds(queries)
        for (spec, x, y), got in zip(queries, batched, strict=True):
            assert got == an.holds(spec, x, y), (spec, x.name, y.name)
            assert got == naive.holds(spec, x, y), (spec, x.name, y.name)

        # single-node halves of every node's events (they overlap the
        # chunks above, and their Definition-3 global proxies exist)
        singles = []
        for node in range(ex.num_nodes):
            own = [e for e in ids if e[0] == node]
            for n, half in enumerate((own[: len(own) // 2], own[len(own) // 2:])):
                if half:
                    singles.append(NonatomicEvent(ex, half, name=f"S{node}.{n}"))
        pool = intervals + singles
        pairs = [
            (x, y) for x in pool for y in pool
            if x is not y and x.ids.isdisjoint(y.ids)
        ]
        # every spec group reads its own subset of the intervals
        queries = [
            (spec, x, y)
            for k, spec in enumerate(specs)
            for x, y in pairs[k % 3::3]
        ]
        batched = an.batch_holds(queries)
        for (spec, x, y), got in zip(queries, batched, strict=True):
            assert got == an.holds(spec, x, y), (spec, x.name, y.name)

        # a GLOBAL analyzer reads global proxies for family specs only;
        # base relations keep the per-node operands, also on the chunks,
        # whose global proxies may not exist
        glob = SynchronizationAnalyzer(
            ex, proxy_definition=ProxyDefinition.GLOBAL
        )
        defined = [iv for iv in pool if _has_global_proxies(iv)]
        queries = [
            (rel, x, y)
            for rel in BASE_RELATIONS
            for x in intervals
            for y in intervals
            if x is not y
        ] + [
            (spec, x, y)
            for spec in FAMILY32
            for x in defined
            for y in defined
            if x.ids.isdisjoint(y.ids)
        ]
        batched = glob.batch_holds(queries)
        for (spec, x, y), got in zip(queries, batched, strict=True):
            assert got == glob.holds(spec, x, y), (spec, x.name, y.name)

    def test_single_query_and_empty_batch(self):
        b = TraceBuilder(2)
        a0 = b.internal(0)
        m = b.send(0)
        r = b.recv(1, m)
        y1 = b.internal(1)
        ex = b.execute()
        an = SynchronizationAnalyzer(ex)
        x = an.interval([a0], name="X")
        y = an.interval([r, y1], name="Y")
        assert an.batch_holds([(Relation.R1, x, y)]) == [
            an.holds(Relation.R1, x, y)
        ]
        assert an.batch_holds([]) == []


class TestOnlineZeroPasses:
    def _feed(self, monitor: OnlineMonitor) -> None:
        h = monitor.send(0, label="m0")
        monitor.internal(1, label="w")
        monitor.recv(1, h, label="m0")
        h2 = monitor.send(1, label="m1")
        monitor.recv(2, h2, label="m1")
        monitor.internal(2, label="z")

    def test_ingest_and_finalise_run_zero_passes(self):
        reset_clock_pass_counts()
        monitor = OnlineMonitor(3)
        self._feed(monitor)
        ex = monitor.to_execution()
        counts = clock_pass_counts()
        assert counts == {"forward": 0, "reverse": 0, "extend": 0}
        assert not ex.reverse_ready

    def test_adopted_clocks_match_offline_pass(self):
        monitor = OnlineMonitor(3)
        self._feed(monitor)
        ex = monitor.to_execution()
        expected = compute_forward_clocks(ex.trace)
        for node in range(3):
            assert np.array_equal(ex.clock_matrix(node), expected[node])

    def test_to_context_shares_the_execution_cache(self):
        monitor = OnlineMonitor(2)
        monitor.internal(0, label="a")
        monitor.internal(1, label="b")
        ctx = monitor.to_context()
        assert AnalysisContext.of(ctx.execution) is ctx
