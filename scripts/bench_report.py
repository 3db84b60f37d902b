"""Machine-readable performance report for the analysis substrate.

Measures the headline numbers on the current host and writes them as
JSON (default ``BENCH_PR8.json``):

* clock substrate construction throughput (events/sec) for the
  forward + reverse columnar tables;
* the columnar batch cut fill vs per-interval folds (speedup at
  k = 256 intervals, interval construction excluded from both sides);
* ``batch_planner``: queries/sec through the serial
  :meth:`~repro.core.evaluator.SynchronizationAnalyzer.batch_holds`
  planner on a >= 10k-query batch;
* ``online_ingest``: streaming events/sec through
  :class:`~repro.monitor.online.OnlineMonitor` (ingest + per-close
  verdicts + zero-copy finalisation) vs the rebuild-per-close baseline,
  with the clock-pass counters recorded;
* ``family_query``: whole-family (40-spec) verdicts/sec through the
  shared ``≪``-subtest verdict cache vs the per-spec scalar loop, plus
  the batched ``(pairs, 24)`` kernel answering every queried pair in
  one vectorized fill, with the measured ``≪``-evaluation reduction;
  a second ``family_query_<backend>`` section repeats the workload on
  the non-default backend, and when a size-matched ``BENCH_PR4.json``
  is present its cached rate is embedded as the before/after anchor;
* ``backend_sparse`` / ``backend_dense``: the vector-clock backend vs
  the breakpoint-compressed reachability backend on its favourable and
  unfavourable regimes — sparse communication with few queries (where
  reachability skips the dense reverse pass) and dense communication
  with a query-heavy batch (where the columnar fills win);
* ``service_ingest``: sustained events/sec through the live networked
  monitoring service over loopback TCP with concurrent sharded
  clients (sockets + framing + asyncio sessions + core + streaming
  clock table), clock-pass counters recorded and required zero;
* ``core_ingest``: events/sec through
  :class:`~repro.service.core.MonitorCore` alone (no transport), the
  same number of events submitted in causal order at 8 and at 64
  nodes, with the 64-node rate as a share of the 8-node rate (an
  ingest cost that does not grow with the node count keeps it near 1).

Usage::

    PYTHONPATH=src python scripts/bench_report.py [--out BENCH_PR8.json]
        [--quick] [--backend reachability]
        [--baseline BENCH_PR4.json]

``--backend`` pins the causality backend answering the standard
sections (via the ``best_of`` environment knob); every section records
the host metadata (cpu count, numpy version, backend) it ran under.

``--quick`` shrinks every workload (CI smoke sizes).  Speedups are
reported as measured.

``--baseline PRIOR.json`` additionally diffs the current gated rates
(``clock_build``, ``cut_fill``, ``batch_planner``, ``backend_*``,
``family_query``, ``service_ingest``, ``core_ingest``)
against a prior report and exits nonzero on a >25% regression (sections
whose workload sizes differ are skipped with a note, so quick runs are
only compared against quick baselines).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import numpy as np  # noqa: E402

from repro.backends.base import BACKEND_ENV, default_backend_name  # noqa: E402
from repro.core.context import AnalysisContext  # noqa: E402
from repro.core.cuts import cut_stats, cuts_of  # noqa: E402
from repro.core.evaluator import SynchronizationAnalyzer  # noqa: E402
from repro.core.hierarchy import evaluate_all_pruned, maximal_true  # noqa: E402
from repro.core.linear import LinearEvaluator  # noqa: E402
from repro.core.relations import BASE_RELATIONS, FAMILY32, parse_spec  # noqa: E402
from repro.events.clocks import (  # noqa: E402
    clock_pass_counts,
    reset_clock_pass_counts,
)
from repro.events.poset import Execution  # noqa: E402
from repro.nonatomic.event import NonatomicEvent  # noqa: E402
from repro.simulation.workloads import random_trace  # noqa: E402

from benchmarks.bench_service_ingest import (  # noqa: E402
    chunked_labels,
    run_service_ingest,
)
from benchmarks.common import (  # noqa: E402
    best_of,
    disjoint_intervals,
    family_pairs,
    stream_online,
    stream_rebuild_baseline,
)


def _host_meta(backend: str) -> dict:
    """Host metadata stamped into every report section."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
        "backend": backend,
    }


def bench_clock_build(nodes: int, events: int, reps: int) -> dict:
    trace = random_trace(nodes, events_per_node=events, msg_prob=0.3, seed=21)
    total = trace.total_events

    def build():
        ex = Execution(trace)
        ex.forward_table, ex.reverse_table
        return ex

    t, _ = best_of(build, reps=reps)
    return {
        "nodes": nodes,
        "events": total,
        "build_ms": t * 1e3,
        "events_per_sec": total / t,
    }


def bench_cut_fill(nodes: int, events: int, k: int, reps: int) -> dict:
    ex = Execution(random_trace(nodes, events_per_node=events, seed=9))
    base = disjoint_intervals(ex, k)
    ex.forward_table, ex.reverse_table  # warm clocks for both paths

    fold_sets = [
        [NonatomicEvent(ex, iv.ids) for iv in base] for _ in range(reps)
    ]
    fold_t = float("inf")
    for ivs in fold_sets:
        t0 = time.perf_counter()
        for iv in ivs:
            cuts_of(iv)
        fold_t = min(fold_t, time.perf_counter() - t0)
    columnar_t, _ = best_of(lambda: cut_stats(ex, base), reps=reps)
    return {
        "intervals": k,
        "fold_ms": fold_t * 1e3,
        "columnar_ms": columnar_t * 1e3,
        "speedup": fold_t / columnar_t,
    }


def bench_batch_planner(nodes: int, events: int, k: int, reps: int) -> dict:
    ex = Execution(random_trace(nodes, events_per_node=events, seed=11))
    intervals = disjoint_intervals(ex, k)
    spec = parse_spec("R1(U,L)")
    queries = [
        (spec, x, y) for x in intervals for y in intervals if x is not y
    ]
    an = SynchronizationAnalyzer(ex, check_disjoint=False)
    an.batch_holds(queries)  # warm the planner's caches
    serial_t, _ = best_of(lambda: an.batch_holds(queries), reps=reps)
    n = len(queries)
    return {
        "queries": n,
        "serial_ms": serial_t * 1e3,
        "serial_queries_per_sec": n / serial_t,
    }


def bench_online_ingest(
    nodes: int, events: int, chunk: int, reps: int
) -> dict:
    trace = random_trace(nodes, events_per_node=events, msg_prob=0.3, seed=31)
    total = trace.total_events

    reset_clock_pass_counts()
    online_t, (online_v, ex) = best_of(
        lambda: stream_online(trace, chunk), reps=reps
    )
    passes = clock_pass_counts()
    rebuild_t, (rebuild_v, _) = best_of(
        lambda: stream_rebuild_baseline(trace, chunk), reps=reps
    )
    assert online_v == rebuild_v, "online verdicts diverge from offline"
    return {
        "nodes": nodes,
        "events": total,
        "chunk": chunk,
        "closes": sum(
            -(-trace.num_real(n) // chunk) for n in range(nodes)
        ),
        "online_ms": online_t * 1e3,
        "rebuild_ms": rebuild_t * 1e3,
        "online_events_per_sec": total / online_t,
        "rebuild_events_per_sec": total / rebuild_t,
        "speedup": rebuild_t / online_t,
        "clock_passes": passes,  # streaming runs: all zero
    }


def bench_core_ingest(
    node_counts: tuple[int, ...], events: int, chunk: int, reps: int
) -> dict:
    """Best-of-``reps`` events/sec of a fresh in-memory
    :class:`~repro.service.core.MonitorCore` fed one client's replay
    frames (events in causal order, per-chunk interval closes) of a
    ``events``-event trace, at each node count.  The node counts take
    turns within every rep, so a drift in the host's speed reaches all
    of them alike."""
    from repro.service import MonitorCore
    from repro.service.client import plan_replay

    traces = {
        nodes: chunked_labels(
            random_trace(nodes, events_per_node=events // nodes,
                         msg_prob=0.3, seed=31),
            chunk,
        )
        for nodes in node_counts
    }
    plans = {nodes: plan_replay(trace) for nodes, trace in traces.items()}
    best = dict.fromkeys(node_counts, float("inf"))
    for _ in range(reps):
        for nodes, frames in plans.items():
            core = MonitorCore(nodes)
            t0 = time.perf_counter()
            for f in frames:
                if f["type"] == "event":
                    core.submit_event(f)
                else:
                    core.submit_close(f["interval"], f["expected"])
            best[nodes] = min(best[nodes], time.perf_counter() - t0)
            assert core.pending() == 0, "core left operations parked"
    rates = {
        str(nodes): traces[nodes].total_events / best[nodes]
        for nodes in node_counts
    }
    return {
        "nodes": list(node_counts),
        "events": events,
        "chunk": chunk,
        "events_per_sec": rates,
        "share_of_smallest": (
            rates[str(node_counts[-1])] / rates[str(node_counts[0])]
        ),
    }


def bench_family_query(
    nodes: int, events: int, pairs: int, reps: int,
    backend: "str | None" = None,
) -> dict:
    ex, pair_list = family_pairs(nodes, events, pairs)
    specs = list(FAMILY32) + list(BASE_RELATIONS)

    # The whole-family query surface per pair: all 32 family specs, all
    # 8 base relations, and the strongest-relations query (a pruned pass
    # + maximality filter over the family).  Three strategies answer it:
    # the per-spec scalar loop (each spec from scratch through the
    # engine), the cached per-pair surface (each pair's 24-subtest
    # verdict row filled on first touch), and the batched kernel (all
    # pairs × all 24 subtests in one vectorized pass).
    def per_spec_loop():
        eng = LinearEvaluator(AnalysisContext(ex))  # private context: cold
        for x, y in pair_list:
            for spec in FAMILY32:
                eng.evaluate_spec(spec, x, y)
            for rel in BASE_RELATIONS:
                eng.evaluate(rel, x, y)
            results, _ = evaluate_all_pruned(
                lambda spec: eng.evaluate_spec(spec, x, y), FAMILY32
            )
            maximal_true(results)
        return eng

    def cached_family():
        an = SynchronizationAnalyzer(AnalysisContext(ex))
        for x, y in pair_list:
            an.all_relations(x, y)
            an.base_relations(x, y)
            an.strongest(x, y)
        return an

    def batched_family():
        an = SynchronizationAnalyzer(AnalysisContext(ex))
        an.all_relations_batch(pair_list)
        an.base_relations_batch(pair_list)
        an.strongest_batch(pair_list)
        return an

    loop_t, eng = best_of(per_spec_loop, reps=reps, backend=backend)
    cached_t, an = best_of(cached_family, reps=reps, backend=backend)
    batched_t, ban = best_of(batched_family, reps=reps, backend=backend)
    vc = an.verdict_cache
    bvc = ban.verdict_cache
    # verdict identity against the per-spec scalar loop, for both the
    # per-pair cached surface and the batched kernel
    ref = LinearEvaluator(AnalysisContext(ex))
    ref_an = SynchronizationAnalyzer(AnalysisContext(ex))
    batch_results = ref_an.all_relations_batch(pair_list)
    for (x, y), batched in zip(pair_list, batch_results):
        fam = ref_an.all_relations(x, y)
        for spec in FAMILY32:
            scalar = ref.evaluate_spec(spec, x, y)
            assert fam[spec] == scalar, (
                "cached family verdict diverges from the scalar loop"
            )
            assert batched[spec] == scalar, (
                "batched family verdict diverges from the scalar loop"
            )
        ref_results, _ = evaluate_all_pruned(
            lambda spec: ref.evaluate_spec(spec, x, y), FAMILY32
        )
        assert ref_an.strongest(x, y) == maximal_true(ref_results), (
            "cached strongest diverges from the scalar loop"
        )
    # verdicts surfaced per pair: the 40 specs + the 32-entry family map
    # behind the strongest query (identical on all sides)
    verdicts = (len(specs) + len(FAMILY32)) * len(pair_list)
    return {
        "nodes": nodes,
        "pairs": pairs,
        "specs": len(specs),
        "per_spec_ms": loop_t * 1e3,
        "cached_ms": cached_t * 1e3,
        "batched_ms": batched_t * 1e3,
        "per_spec_verdicts_per_sec": verdicts / loop_t,
        "cached_verdicts_per_sec": verdicts / cached_t,
        "batched_verdicts_per_sec": verdicts / batched_t,
        "speedup": loop_t / cached_t,
        "batched_speedup": loop_t / batched_t,
        "ll_evals_per_spec_loop": eng.ll_tests,
        "ll_evals_cached": vc.evals,
        "ll_evals_batched": bvc.evals,
        "cut_pair_evals_cached": vc.cut_pair_evals,
        "kernel_fills_batched": bvc.fills,
        "ll_eval_reduction": eng.ll_tests / max(vc.evals, 1),
    }


def bench_backends(
    regime: str,
    nodes: int,
    events: int,
    msg_prob: float,
    k: int,
    query_reps: int,
    reps: int,
) -> dict:
    """Vector vs reachability on one communication/query regime.

    Per backend and rep: a fresh :class:`Execution` (the shared eager
    forward pass is excluded), then *build* forces the backend's
    derived structures — the dense reverse table for vector, both
    sparse closures for reachability — and *query* runs ``query_reps``
    batched cut-stat fills over ``k`` disjoint intervals.  The sparse
    regime (wide, few messages, one fill) rewards skipping the dense
    reverse pass; the dense query-heavy regime rewards the columnar
    gather/reduceat fills.  Both backends' stats are asserted equal.
    """
    trace = random_trace(nodes, events_per_node=events,
                         msg_prob=msg_prob, seed=17)
    out: dict = {
        "regime": regime,
        "nodes": nodes,
        "events": trace.total_events,
        "messages": len(trace.messages),
        "intervals": k,
        "query_reps": query_reps,
    }
    stats = {}
    for name in ("vector", "reachability"):
        best = {"build_ms": None, "query_ms": None,
                "total_ms": float("inf")}

        def run():
            ex = Execution(trace)
            ctx = AnalysisContext(ex)  # backend pinned via best_of
            backend = ctx.backend
            intervals = disjoint_intervals(ex, k)
            probe = [sorted(ex.iter_ids())[0]]
            t0 = time.perf_counter()
            backend.forward_rows(probe)
            backend.reverse_rows(probe)
            t1 = time.perf_counter()
            st = None
            for _ in range(query_reps):
                st = backend.cut_stats(intervals)
            t2 = time.perf_counter()
            return t1 - t0, t2 - t1, st

        for _ in range(reps):
            _, (build, query, st) = best_of(run, reps=1, backend=name)
            if (build + query) * 1e3 < best["total_ms"]:
                best = {"build_ms": build * 1e3, "query_ms": query * 1e3,
                        "total_ms": (build + query) * 1e3}
            stats[name] = st
        out[name] = best
    for field in ("c1", "c2", "c3", "c4", "first", "last"):
        assert np.array_equal(
            getattr(stats["vector"], field),
            getattr(stats["reachability"], field),
        ), f"backends disagree on {field} ({regime})"
    v, r = out["vector"]["total_ms"], out["reachability"]["total_ms"]
    out["winner"] = "vector" if v <= r else "reachability"
    out["speedup"] = max(v, r) / min(v, r)
    return out


# ----------------------------------------------------------------------
# baseline comparison (--baseline)
# ----------------------------------------------------------------------

#: sections gated on regression: (section, size keys, rate extractor)
_GATED = (
    ("clock_build", ("nodes", "events"),
     lambda s: s["events_per_sec"]),
    ("cut_fill", ("intervals",),
     lambda s: s["intervals"] / s["columnar_ms"]),
    ("batch_planner", ("queries",),
     lambda s: s["serial_queries_per_sec"]),
    ("backend_sparse", ("nodes", "events", "intervals", "query_reps"),
     lambda s: s["events"] / s[s["winner"]]["total_ms"]),
    ("backend_dense", ("nodes", "events", "intervals", "query_reps"),
     lambda s: s["events"] / s[s["winner"]]["total_ms"]),
    # gate on the cached rate: it is the key comparable with pre-batch
    # baselines (BENCH_PR4 has no batched numbers), and the batched
    # kernel backs both surfaces — a kernel regression drags it down too
    ("family_query", ("nodes", "pairs", "specs"),
     lambda s: s["cached_verdicts_per_sec"]),
    ("service_ingest", ("nodes", "events", "clients"),
     lambda s: s["events_per_sec"]),
    ("core_ingest", ("nodes", "events", "chunk"),
     lambda s: min(s["events_per_sec"].values())),
)


def compare_baseline(report: dict, baseline: dict, threshold: float) -> list:
    """Diff gated sections against a prior report.

    Returns a list of ``(section, status, detail)`` rows; status is
    ``"ok"``, ``"regression"`` or ``"skipped"``.  Only size-matched
    sections are compared — a quick run diffed against a full baseline
    is skipped, not failed.
    """
    rows = []
    for section, size_keys, rate in _GATED:
        cur = report.get(section)
        base = baseline.get(section)
        if not isinstance(base, dict) or not isinstance(cur, dict):
            rows.append((section, "skipped", "section missing from baseline"))
            continue
        mismatched = [
            k for k in size_keys if cur.get(k) != base.get(k)
        ]
        if mismatched:
            rows.append((
                section, "skipped",
                "workload size differs from baseline "
                f"({', '.join(f'{k}: {base.get(k)} -> {cur.get(k)}' for k in mismatched)})",
            ))
            continue
        cur_rate, base_rate = rate(cur), rate(base)
        change = cur_rate / base_rate - 1.0
        detail = f"rate {base_rate:,.1f} -> {cur_rate:,.1f} ({change:+.1%})"
        if cur_rate < base_rate * (1.0 - threshold):
            rows.append((section, "regression", detail))
        else:
            rows.append((section, "ok", detail))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_PR8.json")
    ap.add_argument("--backend", default=None,
                    choices=["vector", "reachability"],
                    help="causality backend for the standard sections "
                         "(default: $REPRO_BACKEND or vector); the "
                         "backend_* sections always compare both")
    ap.add_argument("--quick", action="store_true",
                    help="reduced workload sizes (CI smoke)")
    ap.add_argument("--baseline", default=None, metavar="PRIOR.json",
                    help="prior report to diff against; exits nonzero on "
                         "a regression past the threshold")
    ap.add_argument("--regression-threshold", type=float, default=0.25,
                    help="allowed fractional rate drop vs baseline "
                         "(default 0.25)")
    args = ap.parse_args(argv)

    if args.backend is not None:
        # pin the process default so every context built by the
        # standard sections (inside or outside best_of) answers
        # through the requested backend
        os.environ[BACKEND_ENV] = args.backend
    backend = default_backend_name()

    if args.quick:
        sizes = dict(nodes=8, events=16, fill_k=32, plan_k=32, reps=2,
                     stream_nodes=8, stream_events=60, chunk=20,
                     fam_nodes=12, fam_events=8, fam_pairs=4,
                     sp_nodes=16, sp_events=40, sp_k=8,
                     dn_nodes=4, dn_events=40, dn_k=24, dn_reps=12,
                     svc_nodes=4, svc_events=40, svc_clients=2,
                     svc_chunk=20, svc_reps=1, core_events=2048,
                     core_reps=3)
    else:
        sizes = dict(nodes=16, events=64, fill_k=256, plan_k=128, reps=5,
                     stream_nodes=8, stream_events=1250, chunk=125,
                     fam_nodes=12, fam_events=8, fam_pairs=16,
                     sp_nodes=48, sp_events=150, sp_k=16,
                     dn_nodes=4, dn_events=120, dn_k=64, dn_reps=50,
                     svc_nodes=8, svc_events=1250, svc_clients=4,
                     svc_chunk=125, svc_reps=3, core_events=16384,
                     core_reps=15)

    report = {
        "host": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count() or 1,
            "machine": platform.machine(),
            "numpy": np.__version__,
            "backend": backend,
        },
        "quick": args.quick,
        "clock_build": bench_clock_build(
            sizes["nodes"], sizes["events"], sizes["reps"]
        ),
        "cut_fill": bench_cut_fill(
            sizes["nodes"], sizes["events"], sizes["fill_k"], sizes["reps"]
        ),
        "batch_planner": bench_batch_planner(
            sizes["nodes"], sizes["events"], sizes["plan_k"], sizes["reps"],
        ),
        "online_ingest": bench_online_ingest(
            sizes["stream_nodes"], sizes["stream_events"], sizes["chunk"],
            sizes["reps"],
        ),
        "family_query": bench_family_query(
            sizes["fam_nodes"], sizes["fam_events"], sizes["fam_pairs"],
            sizes["reps"],
        ),
        "backend_sparse": bench_backends(
            "sparse", sizes["sp_nodes"], sizes["sp_events"], 0.02,
            sizes["sp_k"], 1, sizes["reps"],
        ),
        "backend_dense": bench_backends(
            "dense", sizes["dn_nodes"], sizes["dn_events"], 0.6,
            sizes["dn_k"], sizes["dn_reps"], sizes["reps"],
        ),
        "service_ingest": run_service_ingest(
            sizes["svc_nodes"], sizes["svc_events"], sizes["svc_clients"],
            sizes["svc_chunk"], sizes["svc_reps"],
        ),
        "core_ingest": bench_core_ingest(
            (8, 64), sizes["core_events"], sizes["chunk"], sizes["core_reps"],
        ),
    }
    # the same family workload through the non-default backend, so the
    # before/after record covers both cut_stats implementations
    other = "reachability" if backend == "vector" else "vector"
    report[f"family_query_{other}"] = bench_family_query(
        sizes["fam_nodes"], sizes["fam_events"], sizes["fam_pairs"],
        sizes["reps"], backend=other,
    )
    # before/after anchor: embed the pre-batch cached rate from the PR4
    # record when its workload matches the current (full-size) one
    pr4_path = os.path.join(
        os.path.dirname(__file__), "..", "BENCH_PR4.json"
    )
    if os.path.exists(pr4_path):
        with open(pr4_path) as fh:
            pr4 = json.load(fh).get("family_query")
        fq = report["family_query"]
        if isinstance(pr4, dict) and all(
            pr4.get(k) == fq[k] for k in ("nodes", "pairs", "specs")
        ):
            for section in (fq, report[f"family_query_{other}"]):
                section["pr4_cached_verdicts_per_sec"] = (
                    pr4["cached_verdicts_per_sec"]
                )
                section["speedup_vs_pr4_cached"] = (
                    section["batched_verdicts_per_sec"]
                    / pr4["cached_verdicts_per_sec"]
                )
    for name, section in report.items():
        if isinstance(section, dict) and name != "host":
            if name.startswith("backend_"):
                stamp = "both"
            elif name == f"family_query_{other}":
                stamp = other
            else:
                stamp = backend
            section["host"] = _host_meta(stamp)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    cb, cf, bp = (
        report["clock_build"], report["cut_fill"], report["batch_planner"]
    )
    oi = report["online_ingest"]
    print(f"wrote {args.out}")
    print(f"  clock build:    {cb['events_per_sec']:,.0f} events/sec "
          f"({cb['events']} events in {cb['build_ms']:.2f} ms)")
    print(f"  cut fill:       {cf['speedup']:.1f}x columnar vs folds "
          f"({cf['intervals']} intervals)")
    print(f"  batch planner:  {bp['serial_queries_per_sec']:,.0f} queries/sec "
          f"({bp['queries']} queries in {bp['serial_ms']:.2f} ms)")
    print(f"  online ingest:  {oi['online_events_per_sec']:,.0f} events/sec "
          f"streaming, {oi['speedup']:.1f}x vs rebuild-per-close "
          f"({oi['events']} events, {oi['closes']} closes; "
          f"clock passes {oi['clock_passes']})")
    si = report["service_ingest"]
    print(f"  service ingest: {si['events_per_sec']:,.0f} events/sec over "
          f"loopback ({si['clients']} clients, {si['events']} events, "
          f"{si['closes']} closes, {si['throttles']} throttles; "
          f"clock passes {si['clock_passes']})")
    ci = report["core_ingest"]
    print(f"  core ingest:    "
          + ", ".join(f"{rate:,.0f} events/sec at {n} nodes"
                      for n, rate in ci["events_per_sec"].items())
          + f" ({ci['events']} events in order; {ci['nodes'][-1]}-node "
          f"rate {ci['share_of_smallest']:.0%} of {ci['nodes'][0]}-node)")
    for fq_name in ("family_query", f"family_query_{other}"):
        fq = report[fq_name]
        vs_pr4 = (
            f", {fq['speedup_vs_pr4_cached']:.1f}x vs PR4 cached"
            if "speedup_vs_pr4_cached" in fq else ""
        )
        print(f"  family query:   {fq['batched_verdicts_per_sec']:,.0f} "
              f"verdicts/sec batched vs "
              f"{fq['cached_verdicts_per_sec']:,.0f} cached vs "
              f"{fq['per_spec_verdicts_per_sec']:,.0f} per-spec "
              f"[{fq['host']['backend']}] "
              f"({fq['batched_speedup']:.1f}x batched{vs_pr4}; ≪ evals "
              f"{fq['ll_evals_per_spec_loop']} -> {fq['ll_evals_batched']} "
              f"in {fq['kernel_fills_batched']} fill(s), "
              f"{fq['ll_eval_reduction']:.1f}x fewer)")
    for key in ("backend_sparse", "backend_dense"):
        bs = report[key]
        print(f"  {bs['regime']:<7} regime: {bs['winner']} wins "
              f"{bs['speedup']:.1f}x "
              f"(vector {bs['vector']['total_ms']:.2f} ms vs "
              f"reachability {bs['reachability']['total_ms']:.2f} ms; "
              f"{bs['events']} events, {bs['messages']} messages, "
              f"{bs['intervals']} intervals x {bs['query_reps']} fills)")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        rows = compare_baseline(report, baseline,
                                args.regression_threshold)
        failed = False
        print(f"baseline comparison vs {args.baseline} "
              f"(threshold {args.regression_threshold:.0%}):")
        for section, status, detail in rows:
            print(f"  {section:<12} {status:<10} {detail}")
            failed = failed or status == "regression"
        if failed:
            print("FAIL: performance regression past threshold")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
