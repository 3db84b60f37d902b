"""Online (past-only) vs offline relation evaluation.

The online monitor trades the reverse-timestamp structure for
past-only conditions; this module measures the per-query costs of the
two paths on closed intervals, and the R2'/R3' polynomial fallback the
module docstring of :mod:`repro.monitor.online` quantifies.

The headline streaming measurement
(:func:`test_streaming_vs_rebuild_per_close`) replays a 10k-event trace
through the growable-clock ingest path — per-close verdicts served from
incrementally maintained cuts, finalisation zero-copy — against the
rebuild-per-close baseline (a cold offline
:class:`~repro.events.poset.Execution` per close, i.e. a full forward
clock pass over every event observed so far).

:func:`test_close_cost_flat_in_pending_watches` checks that a close
costs the same with 64 or 1024 unrelated watches pending: pending
watches wait under the intervals they name, and a close touches only
its own.
"""

import time

import numpy as np
import pytest

from repro.core.linear import LinearEvaluator
from repro.core.relations import Relation
from repro.events.clocks import clock_pass_counts, reset_clock_pass_counts
from repro.monitor.online import OnlineMonitor
from repro.nonatomic.selection import random_disjoint_pair
from repro.simulation.workloads import random_trace

from .common import stream_online, stream_rebuild_baseline


def _build(num_nodes=8, events=12, seed=6):
    trace = random_trace(num_nodes, events_per_node=events, msg_prob=0.35,
                         seed=seed)
    om = OnlineMonitor(num_nodes)
    pos = [0] * num_nodes
    handles = {}
    progressed = True
    while progressed:
        progressed = False
        for node in range(num_nodes):
            while pos[node] < trace.num_real(node):
                ev = trace.events_of(node)[pos[node]]
                send = trace.send_of(ev.eid)
                if send is not None and send not in handles:
                    break
                if ev.kind.name == "SEND":
                    handles[ev.eid] = om.send(node)
                elif ev.kind.name == "RECV":
                    om.recv(node, handles[send])
                else:
                    om.internal(node)
                pos[node] += 1
                progressed = True
    ex = om.to_execution()
    rng = np.random.default_rng(seed)
    x, y = random_disjoint_pair(ex, rng, events_per_node=2)
    for eid in sorted(x.ids):
        om.interval("X").add(eid)
    for eid in sorted(y.ids):
        om.interval("Y").add(eid)
    om.close("X")
    om.close("Y")
    return om, ex, x, y


OM, EX, X, Y = _build()
LINEAR_RELS = [Relation.R1, Relation.R2, Relation.R3, Relation.R4]
POLY_RELS = [Relation.R2P, Relation.R3P]


@pytest.mark.parametrize("rel", LINEAR_RELS, ids=lambda r: r.display)
def test_online_linear_rows(benchmark, rel):
    lin = LinearEvaluator(EX)
    assert OM.holds(rel, "X", "Y") == lin.evaluate(rel, X, Y)
    benchmark(lambda: OM.holds(rel, "X", "Y"))


@pytest.mark.parametrize("rel", POLY_RELS, ids=lambda r: r.display)
def test_online_polynomial_fallback(benchmark, rel):
    lin = LinearEvaluator(EX)
    assert OM.holds(rel, "X", "Y") == lin.evaluate(rel, X, Y)
    benchmark(lambda: OM.holds(rel, "X", "Y"))


@pytest.mark.parametrize("rel", LINEAR_RELS + POLY_RELS,
                         ids=lambda r: r.display)
def test_offline_reference(benchmark, rel):
    lin = LinearEvaluator(EX)
    from repro.core.cuts import cuts_of

    cuts_of(X), cuts_of(Y)
    benchmark(lambda: lin.evaluate(rel, X, Y))


def test_streaming_vs_rebuild_per_close():
    """Headline: streaming ingest+finalize ≥5x the rebuild baseline at
    10k events, with the clock-pass counters proving the zero-copy path.

    The baseline rebuilds the execution at every interval close (80
    closes here), so its cost is quadratic in the stream length; the
    streaming path writes forward clocks into the growable table once
    per event and finalises without any rebuild.  Verdict identity is
    asserted, so both sides answer the same per-close R2 queries.
    """
    trace = random_trace(8, events_per_node=1250, msg_prob=0.3, seed=31)
    chunk = 125  # 80 closes over the 10k events

    reset_clock_pass_counts()
    t0 = time.perf_counter()
    online_verdicts, ex = stream_online(trace, chunk)
    online_t = time.perf_counter() - t0
    passes = clock_pass_counts()
    # ingest + per-close verdicts + finalisation ran entirely on the
    # live growable table: no forward rebuild, no extend copy, and the
    # past-only per-close queries never needed the reverse table
    assert passes == {"forward": 0, "reverse": 0, "extend": 0}, passes
    ex.reverse_table  # full-family finalisation: exactly one reverse pass
    assert clock_pass_counts() == {"forward": 0, "reverse": 1, "extend": 0}

    t0 = time.perf_counter()
    rebuild_verdicts, _ = stream_rebuild_baseline(trace, chunk)
    rebuild_t = time.perf_counter() - t0

    assert online_verdicts == rebuild_verdicts
    speedup = rebuild_t / online_t
    print(f"\nstreaming 10k events: online {online_t*1e3:.1f} ms, "
          f"rebuild-per-close {rebuild_t*1e3:.1f} ms, {speedup:.1f}x")
    assert speedup >= 5.0, (
        f"streaming path only {speedup:.1f}x vs rebuild-per-close"
    )


def _per_close_s(pending: int, closes: int = 64, reps: int = 5) -> float:
    """Best-of-``reps`` seconds per close, each close deciding one watch,
    with ``pending`` watches waiting on intervals that never close."""
    best = float("inf")
    for _ in range(reps):
        om = OnlineMonitor(2)
        for i in range(pending):
            om.watch(f"idle{i}", f"R1(P{i}, Q{i}) and R4(Q{i}, P{i})")
        for j in range(closes):
            om.internal(0, interval=f"C{j}")
            om.internal(1, interval=f"C{j}")
            om.watch(f"w{j}", f"R4(C{j}, C{j})")
        t0 = time.perf_counter()
        for j in range(closes):
            om.close(f"C{j}")
        best = min(best, time.perf_counter() - t0)
        assert len(om.notifications) == closes
        assert len(om.watch_names()) == pending
    return best / closes


def test_close_cost_flat_in_pending_watches():
    """Per-close cost with 1024 unrelated watches pending stays within
    2x of the cost with 64 (a close that rescanned every pending watch
    would cost about 16x)."""
    small, large = _per_close_s(64), _per_close_s(1024)
    ratio = large / small
    print(f"\nper close: {small * 1e6:.1f} us with 64 pending watches, "
          f"{large * 1e6:.1f} us with 1024 ({ratio:.2f}x)")
    assert ratio <= 2.0, (
        f"close cost grew {ratio:.1f}x from 64 to 1024 pending watches"
    )
