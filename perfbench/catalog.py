"""Every metric the benchmark reports, with its unit and meaning.

``END_TO_END`` is what a run prints with ``--trace 0``; ``PER_LAYER``
is what it prints with ``--trace 1``.  Both lists are the single
source for ``run.py --list-metrics``, the smoke check, and the
consistency check against ``BENCHMARK.json``.

Per-layer time metrics (``*_s``) are self times: a span's duration
minus the time its child spans cover.  Layers are named after the
program's modules; a layer a workload does not use reports 0.
"""

from __future__ import annotations

# name -> (unit, better, meaning)
END_TO_END: dict[str, tuple[str, str, str]] = {
    "setup_s": (
        "s", "lower",
        "median set-up time. offline_query: trace file -> loaded Trace -> "
        "Execution with forward and reverse tables -> AnalysisContext. "
        "live_watch: launch of the service process -> the session welcomed "
        "and startup watches registered. offline_query scaled to reference "
        "speed (see reference.py); live_watch not (its set-up runs on the "
        "service's CPU before any reference sample)",
    ),
    "peak_rss_mb": (
        "MB", "lower",
        "peak RSS (VmHWM) of the measured process: the analyzer process "
        "offline, the service process live (median over service instances)",
    ),
    "throughput_per_s": (
        "1/s", "higher",
        "offline_query: verdicts/s of all_relations_batch + strongest_batch "
        "over every ordered interval pair (40 per pair), one figure per round. "
        "live_watch: events applied per second of service CPU time (all "
        "threads, reference task excluded) at the fixed offered rate, one "
        "figure per window. Each figure scaled to reference speed (see "
        "reference.py), median over the rounds or windows",
    ),
    "latency_p50_ms": (
        "ms", "lower",
        "offline_query: one pair by all_relations + strongest on fresh "
        "intervals and empty caches, median of each round. live_watch: the "
        "close frame that completes a watch's last interval handed to the "
        "socket -> its verdict at the generator, median of each window "
        "(generator lateness is gen.late_*, per layer). Each figure "
        "scaled to reference speed (see reference.py), median over the "
        "rounds or windows. The p90 taken the same way, and the unscaled "
        "p50/p90/p95/p99/max of all samples, are in the info line",
    ),
}

PER_LAYER: dict[str, tuple[str, str, str]] = {
    "serialization.load_s": ("s", "lower", "repro.events.serialization.load/loads"),
    "serialization.bytes": ("bytes", "lower", "bytes deserialized"),
    "clocks.forward_s": ("s", "lower", "forward clock pass (compute_forward_table)"),
    "clocks.reverse_s": ("s", "lower", "reverse clock pass (compute_reverse_table)"),
    "clocks.passes": ("count", "lower", "offline clock passes (clock_pass_counts); 0 on live"),
    "nonatomic.build_s": ("s", "lower", "NonatomicEvent construction: intervals and their proxies"),
    "backends.cut_stats_s": ("s", "lower", "CausalityBackend.cut_stats"),
    "backends.cut_stats_calls": ("count", "lower", "CausalityBackend.cut_stats calls"),
    "core.context.fill_s": ("s", "lower", "CutCache.stats/family_operands/cut/extremal"),
    "core.context.cut_hits": ("count", "higher", "cut-cache hits"),
    "core.context.cut_misses": ("count", "lower", "cut-cache misses"),
    "core.family.kernel_s": ("s", "lower", "verdict_matrix as bound in repro.core.evaluator"),
    "core.family.pairs": ("count", "lower", "pairs pushed through verdict_matrix"),
    "core.evaluator.self_s": ("s", "lower", "SynchronizationAnalyzer.* and SharedVerdictCache.fill_pairs"),
    "core.evaluator.ll_evals": ("count", "lower", "SharedVerdictCache.evals (subtest evaluations)"),
    "core.evaluator.fills": ("count", "lower", "SharedVerdictCache.fills (kernel invocations)"),
    "core.evaluator.cut_pair_evals": ("count", "lower", "SharedVerdictCache.cut_pair_evals"),
    "core.pairwise.self_s": ("s", "lower", "IntervalSetMatrices calls made by batch_holds"),
    "service.protocol.decode_s": ("s", "lower", "read_frame_async, running time only"),
    "service.protocol.encode_s": ("s", "lower", "encode_frame"),
    "service.protocol.bytes_in": ("bytes", "lower", "frame bodies decoded by the service"),
    "service.core.submit_event_s": ("s", "lower", "MonitorCore.submit_event"),
    "service.core.submit_close_s": ("s", "lower", "MonitorCore.submit_close"),
    "service.core.submit_watch_s": ("s", "lower", "MonitorCore.submit_watch"),
    "service.core.parked_peak": ("count", "lower", "largest per-shard parked queue (stats)"),
    "service.core.throttles": ("count", "lower", "throttle frames counted by the service (stats)"),
    "monitor.online.append_s": ("s", "lower", "OnlineMonitor.send/recv/internal"),
    "monitor.online.close_s": ("s", "lower", "OnlineMonitor.close"),
    "monitor.online.poll_watches_s": ("s", "lower", "OnlineMonitor.poll_watches"),
    "monitor.online.watches_pending_peak": ("count", "lower", "most watches pending at a poll"),
    "monitor.online.verdicts": ("count", "higher", "notifications returned by poll_watches"),
    "service.log.append_s": ("s", "lower", "EventLog.append"),
    "service.log.sync_s": (
        "s", "lower",
        "EventLog.sync, on a worker thread beside the event loop: reported, "
        "not part of the wall split (waiting for it shows in other_s)",
    ),
    "service.log.syncs": ("count", "lower", "EventLog.sync calls"),
    "service.log.records": ("count", "lower", "EventLog.append calls"),
    "service.server.self_s": ("s", "lower", "session and writer loops, running time minus children"),
    "service.server.push_queue_peak": ("count", "lower", "deepest outbound session queue seen by its writer"),
    "gen.frames_sent": ("count", "lower", "frames the generator sent"),
    "gen.bytes_sent": ("bytes", "lower", "bytes the generator sent"),
    "gen.late_p99_ms": ("ms", "lower", "generator lateness p99: frame handed to the socket - due"),
    "gen.late_max_ms": ("ms", "lower", "generator lateness max"),
    "gen.offered_per_s": ("1/s", "higher", "offered event rate"),
    "gen.achieved_per_s": ("1/s", "higher", "achieved event rate"),
    "offline.spec_queries_per_s": ("1/s", "higher", "batch_holds queries/s, untraced (offline_query)"),
    "ops_failed_ratio": ("ratio", "lower", "failed / attempted operations"),
    "other_s": ("s", "lower", "traced wall minus every layer's self time"),
    "trace.wall_s": (
        "s", "lower",
        "traced wall time the layer self times split (offline_query: three "
        "traced passes, alternating with three untraced ones; live: the "
        "traced instance's stream)",
    ),
    "trace.overhead_s": (
        "s", "lower",
        "traced minus untraced end-to-end time of the same work "
        "(live_watch: of the verdict p50 latency)",
    ),
}

#: Layer time metrics whose self times add up, with ``other_s``, to
#: ``trace.wall_s``: every time metric of the traced thread.
LAYER_TIMES = tuple(
    name for name, (unit, _, _) in PER_LAYER.items()
    if unit == "s" and name not in (
        "other_s", "trace.wall_s", "trace.overhead_s", "service.log.sync_s")
)

WORKLOADS: dict[str, str] = {
    "offline_query": (
        "offline analyzer on four recorded 16x2000 traces in turn: cut fill, "
        "family kernel and evaluator do the work; the service does none"
    ),
    "live_watch": (
        "service process, 8 nodes, open loop at a fixed rate with ~512 "
        "rolling watches pending: interval folds, watch polls, fsync, push"
    ),
}
