"""Cross-backend equivalence, seam enforcement, and trace reduction.

The :class:`~repro.backends.base.CausalityBackend` seam promises that
every encoding of ``≺`` is observationally identical: the vector-clock
substrate and the breakpoint-compressed reachability encoding must
agree on pairwise order, timestamp rows, Table-2 cut fills, and — end
to end — all 40 relation verdicts (the 32-family plus the 8 base
relations), including after :meth:`Execution.extend` growth.

The seam itself is enforced structurally: no module under
``repro.core``, ``repro.monitor``, or ``repro.globalstates`` may import
the clock substrate (``ClockTable``/``GrowableClockTable`` or the
``repro.events.clocks`` module) — everything flows through
:mod:`repro.backends`.  Importing the public entry points must not load
``multiprocessing``: every evaluation path is in-process.

:func:`~repro.backends.reduction.reduce_trace` must preserve every
verdict for label-selected intervals while merging commuting adjacent
same-node internal events, and must shrink a commuting-heavy workload
by at least 30%.
"""

from __future__ import annotations

import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backends import (
    BACKENDS,
    CommutativityRules,
    ReachabilityBackend,
    VectorClockBackend,
    make_backend,
    reduce_trace,
)
from repro.backends.base import default_backend_name
from repro.core.context import AnalysisContext
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.relations import BASE_RELATIONS, FAMILY32
from repro.events.builder import TraceBuilder
from repro.events.poset import Execution
from repro.nonatomic.event import NonatomicEvent
from repro.nonatomic.selection import by_label

from .strategies import build_trace_from_ops, execution_with_pair, executions

_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3)),
    min_size=2,
    max_size=25,
)


def _replay(num_nodes, ops):
    """Deterministic replay where every prefix of ``ops`` yields a
    trace that the full replay extends append-only (one internal per
    node first; op times depend only on the op's position)."""
    b = TraceBuilder(num_nodes)
    in_flight = [[] for _ in range(num_nodes)]
    t = 0.0
    for node in range(num_nodes):
        t += 1.0
        b.internal(node, time=t)
    for node, action, aux in ops:
        node %= num_nodes
        t += 1.0
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


def _all_verdicts(an, x, y):
    """All 40 verdicts: the 32-family plus the 8 base relations."""
    out = {spec: an.holds(spec, x, y) for spec in FAMILY32}
    for rel in BASE_RELATIONS:
        out[rel] = an.holds(rel, x, y)
    return out


class TestRegistry:
    def test_both_backends_registered(self):
        assert make_backend(None, Execution(build_trace_from_ops(2, [])))
        assert set(BACKENDS) >= {"vector", "reachability"}
        assert BACKENDS["vector"] is VectorClockBackend
        assert BACKENDS["reachability"] is ReachabilityBackend

    def test_unknown_backend_rejected(self):
        ex = Execution(build_trace_from_ops(2, []))
        with pytest.raises(ValueError, match="unknown causality backend"):
            make_backend("laporte", ex)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reachability")
        assert default_backend_name() == "reachability"
        ex = Execution(build_trace_from_ops(2, []))
        assert AnalysisContext(ex).backend_name == "reachability"
        monkeypatch.setenv("REPRO_BACKEND", "laporte")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            default_backend_name()

    def test_foreign_backend_instance_rejected(self):
        ex1 = Execution(build_trace_from_ops(2, [(0, 0, 0)]))
        ex2 = Execution(build_trace_from_ops(2, [(1, 0, 0)]))
        backend = make_backend("vector", ex1)
        with pytest.raises(ValueError, match="different execution"):
            AnalysisContext(ex2, backend=backend)


class TestPairwiseEquivalence:
    @given(executions(max_nodes=4, max_ops=30))
    @settings(max_examples=60, deadline=None)
    def test_leq_precedes_concurrent_agree(self, ex):
        vec = make_backend("vector", ex)
        rch = make_backend("reachability", ex)
        ids = sorted(ex.iter_ids())
        for a, b in itertools.product(ids, ids):
            assert vec.leq(a, b) == rch.leq(a, b), (a, b)
            assert vec.precedes(a, b) == rch.precedes(a, b), (a, b)
            assert vec.concurrent(a, b) == rch.concurrent(a, b), (a, b)

    @given(executions(max_nodes=4, max_ops=30))
    @settings(max_examples=60, deadline=None)
    def test_timestamp_rows_agree(self, ex):
        vec = make_backend("vector", ex)
        rch = make_backend("reachability", ex)
        ids = sorted(ex.iter_ids())
        assert np.array_equal(vec.forward_rows(ids), rch.forward_rows(ids))
        assert np.array_equal(vec.reverse_rows(ids), rch.reverse_rows(ids))

    @given(execution_with_pair(max_nodes=4, max_ops=30))
    @settings(max_examples=60, deadline=None)
    def test_cut_vectors_and_stats_agree(self, exy):
        ex, x, y = exy
        vec = make_backend("vector", ex)
        rch = make_backend("reachability", ex)
        for iv in (x, y):
            for which in ("C1", "C2", "C3", "C4"):
                assert np.array_equal(
                    vec.cut_vector(iv, which), rch.cut_vector(iv, which)
                ), which
        sv = vec.cut_stats([x, y])
        sr = rch.cut_stats([x, y])
        for name in ("c1", "c2", "c3", "c4", "first", "last"):
            assert np.array_equal(getattr(sv, name), getattr(sr, name)), name


class TestVerdictEquivalence:
    @given(execution_with_pair(max_nodes=4, max_ops=30))
    @settings(max_examples=40, deadline=None)
    def test_all_40_verdicts_agree(self, exy):
        ex, x, y = exy
        # separate executions: a backend is bound to one execution
        ex2 = Execution(ex.trace)
        x2 = NonatomicEvent(ex2, sorted(x.ids), name="X")
        y2 = NonatomicEvent(ex2, sorted(y.ids), name="Y")
        an_vec = SynchronizationAnalyzer(AnalysisContext(ex, backend="vector"))
        an_rch = SynchronizationAnalyzer(
            AnalysisContext(ex2, backend="reachability")
        )
        assert _all_verdicts(an_vec, x, y) == _all_verdicts(an_rch, x2, y2)

    @given(st.integers(2, 4), _ops, _ops)
    @settings(max_examples=30, deadline=None)
    def test_verdicts_agree_after_extend(self, num_nodes, head, tail):
        prefix = _replay(num_nodes, head)
        full = _replay(num_nodes, head + tail)
        assume(full.total_events > prefix.total_events)
        ex_vec = Execution(prefix)
        ex_rch = Execution(prefix)
        ctx_vec = AnalysisContext(ex_vec, backend="vector")
        ctx_rch = AnalysisContext(ex_rch, backend="reachability")
        ids = sorted(ex_vec.iter_ids())
        half = max(1, len(ids) // 2)
        # pay pre-growth queries so stale caches would be caught
        for ctx in (ctx_vec, ctx_rch):
            an = SynchronizationAnalyzer(ctx)
            x = ctx.interval(ids[:half], name="X")
            y = ctx.interval(ids[half:] or ids[:1], name="Y")
            _all_verdicts(an, x, y)
        ctx_vec.extend(full)
        ctx_rch.extend(full)
        ids = sorted(ex_vec.iter_ids())
        half = max(1, len(ids) // 2)
        an_vec = SynchronizationAnalyzer(ctx_vec)
        an_rch = SynchronizationAnalyzer(ctx_rch)
        v = _all_verdicts(
            an_vec,
            ctx_vec.interval(ids[:half], name="X"),
            ctx_vec.interval(ids[half:], name="Y"),
        )
        r = _all_verdicts(
            an_rch,
            ctx_rch.interval(ids[:half], name="X"),
            ctx_rch.interval(ids[half:], name="Y"),
        )
        assert v == r


class TestBatchedFamilyEquivalence:
    """The batched ``(pairs, 24)`` kernel agrees with the scalar path
    on both backends — including after real append-only growth."""

    @given(st.integers(2, 4), _ops, _ops)
    @settings(max_examples=20, deadline=None)
    def test_batched_rows_match_scalar_after_extend(
        self, num_nodes, head, tail
    ):
        prefix = _replay(num_nodes, head)
        full = _replay(num_nodes, head + tail)
        assume(full.total_events > prefix.total_events)
        for backend in ("vector", "reachability"):
            ctx = AnalysisContext(Execution(prefix), backend=backend)
            an = SynchronizationAnalyzer(ctx)
            oracle = SynchronizationAnalyzer(ctx, counted=True)
            assert oracle.verdict_cache is None
            ids = sorted(ctx.execution.iter_ids())
            half = max(1, len(ids) // 2)
            x = ctx.interval(ids[:half], name="X")
            y = ctx.interval(ids[half:] or ids[:1], name="Y")
            # pay a pre-growth batched fill so stale rows would be caught
            an.all_relations_batch([(x, y)])
            ctx.extend(full)
            ids = sorted(ctx.execution.iter_ids())
            half = max(1, len(ids) // 2)
            x = ctx.interval(ids[:half], name="X")
            y = ctx.interval(ids[half:], name="Y")
            fam = an.all_relations_batch([(x, y), (y, x)])
            for f, (a, b) in zip(fam, [(x, y), (y, x)], strict=True):
                assert f == {s: oracle.holds(s, a, b) for s in FAMILY32}


class TestSeamEnforcement:
    """No engine above the events layer names the clock substrate."""

    _BANNED_NAMES = {"ClockTable", "GrowableClockTable"}
    _BANNED_MODULE = "events.clocks"
    _LAYERS = ("core", "monitor", "globalstates")

    def _violations(self, path: Path) -> list[str]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bad = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.endswith(self._BANNED_MODULE):
                    bad.append(f"{path.name}:{node.lineno} from {module}")
                for alias in node.names:
                    if alias.name in self._BANNED_NAMES:
                        bad.append(
                            f"{path.name}:{node.lineno} imports {alias.name}"
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.endswith(self._BANNED_MODULE):
                        bad.append(
                            f"{path.name}:{node.lineno} import {alias.name}"
                        )
        return bad

    def test_engines_do_not_import_clock_substrate(self):
        violations = []
        for layer in self._LAYERS:
            for path in sorted((_SRC / layer).rglob("*.py")):
                violations.extend(self._violations(path))
        assert not violations, "\n".join(violations)

    def test_layers_exist(self):
        # guard against the seam test silently scanning nothing
        for layer in self._LAYERS:
            assert list((_SRC / layer).rglob("*.py")), layer

    def test_entry_points_import_no_multiprocessing(self):
        """Batch evaluation is in-process: no public entry point pays
        for ``multiprocessing`` (pool, shared memory, resource tracker)
        at import time.  Checked in a fresh interpreter, since this
        test process may have imported it for other reasons."""
        probe = (
            "import sys\n"
            "import repro, repro.cli, repro.service.server\n"
            "import repro.service.client, repro.lint\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'multiprocessing'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(_SRC.parent))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]", out.stdout


def _labelled_trace(num_nodes, ops):
    """A trace whose internal events carry cyclic labels (x/y/work/None)."""
    labels = [None, "x", "y", "work", "work", None]
    b = TraceBuilder(num_nodes)
    in_flight = [[] for _ in range(num_nodes)]
    t = 0.0
    k = 0
    for node, action, aux in ops:
        node %= num_nodes
        t += 1.0
        if action == 1 and num_nodes > 1:
            dst = aux % num_nodes
            if dst == node:
                dst = (dst + 1) % num_nodes
            in_flight[dst].append(b.send(node, time=t))
        elif action == 2 and in_flight[node]:
            b.recv(node, in_flight[node].pop(0), time=t)
        else:
            b.internal(node, time=t, label=labels[k % len(labels)])
            k += 1
    for i in range(num_nodes):
        if b.count(i) == 0:
            t += 1.0
            b.internal(i, time=t)
    return b.build()


def _commuting_workload(num_nodes: int = 3, rounds: int = 6, burst: int = 5):
    """Bursts of commuting internal work punctuated by a message chain."""
    b = TraceBuilder(num_nodes)
    t = 0.0
    for r in range(rounds):
        for node in range(num_nodes):
            for _ in range(burst):
                t += 1.0
                if r == 0 and node == 0:
                    label = "x"
                elif r == rounds - 1 and node == num_nodes - 1:
                    label = "y"
                else:
                    label = "work"
                b.internal(node, time=t, label=label)
        for node in range(num_nodes - 1):
            t += 1.0
            m = b.send(node, time=t)
            t += 1.0
            b.recv(node + 1, m, time=t)
    return b.build()


class TestTraceReduction:
    @given(st.integers(2, 4), _ops)
    @settings(max_examples=40, deadline=None)
    def test_reduction_is_a_quotient(self, num_nodes, ops):
        trace = _labelled_trace(num_nodes, ops)
        red = reduce_trace(trace)
        # event_map is total over real events and lands in the quotient
        originals = {ev.eid for ev in trace.iter_events()}
        assert set(red.event_map) == originals
        reduced_ids = {ev.eid for ev in red.trace.iter_events()}
        assert set(red.event_map.values()) == reduced_ids
        # groups partition the original events
        members = [m for grp in red.groups.values() for m in grp]
        assert sorted(members) == sorted(originals)
        # sends/receives are never merged
        for grp in red.groups.values():
            if len(grp) > 1:
                for mid in grp:
                    assert trace.send_of(mid) is None
        assert red.reduced_events <= red.original_events
        assert 0.0 <= red.ratio < 1.0

    @given(st.integers(2, 4), _ops)
    @settings(max_examples=30, deadline=None)
    def test_reduction_preserves_all_40_verdicts(self, num_nodes, ops):
        trace = _labelled_trace(num_nodes, ops)
        has_x = any(ev.label == "x" for ev in trace.iter_events())
        has_y = any(ev.label == "y" for ev in trace.iter_events())
        assume(has_x and has_y)
        red = reduce_trace(trace)
        ex = Execution(trace)
        red_ex = Execution(red.trace)
        an = SynchronizationAnalyzer(AnalysisContext(ex))
        red_an = SynchronizationAnalyzer(AnalysisContext(red_ex))
        before = _all_verdicts(an, by_label(ex, "x"), by_label(ex, "y"))
        after = _all_verdicts(
            red_an, by_label(red_ex, "x"), by_label(red_ex, "y")
        )
        assert before == after

    def test_commuting_workload_shrinks_30_percent(self):
        trace = _commuting_workload()
        red = reduce_trace(trace)
        assert red.ratio >= 0.30, red.ratio
        # and every verdict survives the coarsening
        ex = Execution(trace)
        red_ex = Execution(red.trace)
        an = SynchronizationAnalyzer(AnalysisContext(ex))
        red_an = SynchronizationAnalyzer(AnalysisContext(red_ex))
        before = _all_verdicts(an, by_label(ex, "x"), by_label(ex, "y"))
        after = _all_verdicts(
            red_an, by_label(red_ex, "x"), by_label(red_ex, "y")
        )
        assert before == after

    def test_label_selected_intervals_map_through(self):
        trace = _commuting_workload()
        red = reduce_trace(trace)
        ex = Execution(trace)
        red_ex = Execution(red.trace)
        for label in ("x", "y", "work"):
            mapped = red.map_ids(by_label(ex, label).ids)
            assert mapped == sorted(by_label(red_ex, label).ids)

    def test_rules_restrict_merging(self):
        trace = _commuting_workload()
        none_commute = reduce_trace(
            trace,
            CommutativityRules(
                commuting_labels=frozenset(), absorb_unlabeled=False
            ),
        )
        assert none_commute.ratio == 0.0
        assert none_commute.trace.total_events == trace.total_events
        only_work = reduce_trace(
            trace, CommutativityRules(commuting_labels=frozenset({"work"}))
        )
        full = reduce_trace(trace)
        assert only_work.reduced_events >= full.reduced_events
