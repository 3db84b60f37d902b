"""Command-line interface.

Make the library usable on recorded traces without writing Python::

    python -m repro generate random --nodes 4 --events 20 --out trace.json
    python -m repro info trace.json
    python -m repro render trace.json --interval phase0
    python -m repro relations trace.json --x phase0 --y phase1
    python -m repro relations trace.json --x a --y b --spec "R2'(U,L)"
    python -m repro check trace.json --spec "R1(U,L)(a, b) and not R4(b, a)" \\
        --bind a=phase0 --bind b=phase1
    python -m repro stream trace.json --watch "order=R1(phase0, phase1)"
    python -m repro serve --nodes 4 --port 7700 --log monitor.log
    python -m repro client trace.json --connect localhost:7700 \\
        --watch "order=R1(phase0, phase1)"
    python -m repro figures

Intervals are named by event *label*: ``--x phase0`` selects every
event labelled ``phase0`` (the convention all generators and the
application layers follow).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .analysis.metrics import summarize
from .backends.base import clock_pass_counts, reset_clock_pass_counts
from .core.context import AnalysisContext
from .core.evaluator import SynchronizationAnalyzer
from .core.relations import FAMILY32
from .events.poset import Execution
from .events.serialization import load, save
from .events.trace import causal_schedule
from .lint.cli import add_lint_arguments, run_lint
from .monitor.checker import ConditionChecker
from .nonatomic.selection import by_label
from .simulation import workloads
from .viz.spacetime import render

__all__ = ["main", "build_parser"]

_GENERATORS = {
    "random": lambda a: workloads.random_trace(
        a.nodes, events_per_node=a.events, msg_prob=a.msg_prob, seed=a.seed
    ),
    "ring": lambda a: workloads.ring_trace(a.nodes, rounds=a.rounds),
    "pipeline": lambda a: workloads.pipeline_trace(a.nodes, items=a.items),
    "broadcast": lambda a: workloads.broadcast_trace(a.nodes, rounds=a.rounds),
    "client-server": lambda a: workloads.client_server_trace(
        max(a.nodes - 1, 1), requests_per_client=a.items, seed=a.seed
    ),
    "barrier": lambda a: workloads.barrier_trace(a.nodes, phases=a.rounds),
    "layered": lambda a: workloads.layered_trace(
        num_sensors=max(a.nodes - 3, 1), num_actuators=2, periods=a.rounds
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for doc generation/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Test synchronization conditions between distributed "
        "nonatomic events (Kshemkalyani, IPPS 1998).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a workload trace")
    p_gen.add_argument("kind", choices=sorted(_GENERATORS))
    p_gen.add_argument("--nodes", type=int, default=4)
    p_gen.add_argument("--events", type=int, default=20,
                       help="events per node (random workload)")
    p_gen.add_argument("--msg-prob", type=float, default=0.3)
    p_gen.add_argument("--rounds", type=int, default=3,
                       help="rounds/phases/periods (structured workloads)")
    p_gen.add_argument("--items", type=int, default=4,
                       help="items/requests (pipeline, client-server)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output JSON path")

    p_info = sub.add_parser("info", help="summarise a trace")
    p_info.add_argument("trace")

    p_render = sub.add_parser("render", help="ASCII space-time diagram")
    p_render.add_argument("trace")
    p_render.add_argument("--interval", action="append", default=[],
                          help="label(s) to highlight (repeatable)")
    p_render.add_argument("--no-messages", action="store_true")

    p_rel = sub.add_parser("relations",
                           help="evaluate relations between two intervals")
    p_rel.add_argument("trace")
    p_rel.add_argument("--x", required=True, help="label of interval X")
    p_rel.add_argument("--y", required=True, help="label of interval Y")
    p_rel.add_argument("--spec", help="one relation (e.g. R2'(U,L)); "
                       "default: report all 32 + strongest")
    p_rel.add_argument("--engine", default="linear",
                       choices=["naive", "polynomial", "linear"])
    p_rel.add_argument("--backend", default=None,
                       choices=["vector", "reachability"],
                       help="causality backend answering the queries "
                            "(default: $REPRO_BACKEND or vector)")
    p_rel.add_argument("--reduce", action="store_true",
                       help="merge commuting adjacent same-node internal "
                            "events before analysing (verdict-preserving)")

    p_check = sub.add_parser("check", help="check a condition over a trace")
    p_check.add_argument("trace")
    p_check.add_argument("--spec", required=True,
                         help="condition text, e.g. 'R1(a,b) and not R4(b,a)'")
    p_check.add_argument("--bind", action="append", default=[],
                         metavar="NAME=LABEL",
                         help="bind a condition name to an event label")
    p_check.add_argument("--engine", default="linear",
                         choices=["naive", "polynomial", "linear"])
    p_check.add_argument("--backend", default=None,
                         choices=["vector", "reachability"],
                         help="causality backend answering the queries "
                              "(default: $REPRO_BACKEND or vector)")

    p_stream = sub.add_parser(
        "stream",
        help="replay a trace event-by-event through the online monitor",
    )
    p_stream.add_argument("trace")
    p_stream.add_argument("--watch", action="append", default=[],
                          metavar="NAME=CONDITION",
                          help="watch a condition over labelled intervals; "
                               "fires the moment it becomes decidable "
                               "(repeatable)")
    p_stream.add_argument("--spec", default=None,
                          help="also evaluate SPEC between each consecutive "
                               "pair of closed intervals as the stream runs")
    p_stream.add_argument("--backend", default=None,
                          choices=["vector", "reachability"],
                          help="causality backend for the finalisation "
                               "context (default: $REPRO_BACKEND or vector)")

    p_serve = sub.add_parser(
        "serve",
        help="run the live monitoring service (see docs/SERVICE.md)",
    )
    p_serve.add_argument("--nodes", type=int, required=True,
                         help="number of monitored nodes")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port (0 picks a free one)")
    p_serve.add_argument("--log", default=None, metavar="PATH",
                         help="append-only replicated event log file")
    p_serve.add_argument("--shards", type=int, default=None,
                         help="ingest shard count (default: one per node)")
    p_serve.add_argument("--watch", action="append", default=[],
                         metavar="NAME=CONDITION",
                         help="watch registered at startup (repeatable)")
    p_serve.add_argument("--standby", default=None, metavar="HOST:PORT",
                         help="start as warm standby tailing this primary; "
                              "promotes itself when the primary dies")
    p_serve.add_argument("--throttle-at", type=int, default=256,
                         help="per-session backlog soft limit")
    p_serve.add_argument("--disconnect-at", type=int, default=1024,
                         help="per-session backlog hard limit")
    p_serve.add_argument("--fsync-every", type=int, default=64,
                         help="fsync batch size for the event log "
                              "(0 disables fsync)")
    p_serve.add_argument("--oneshot", action="store_true",
                         help="exit after the first client session ends "
                              "(CI smoke tests)")

    p_client = sub.add_parser(
        "client",
        help="replay a recorded trace into a running monitoring service",
    )
    p_client.add_argument("trace")
    p_client.add_argument("--connect", required=True, metavar="HOST:PORT")
    p_client.add_argument("--shard", default="0/1", metavar="I/N",
                          help="stream only nodes with node %% N == I "
                               "(run one client per shard)")
    p_client.add_argument("--watch", action="append", default=[],
                          metavar="NAME=CONDITION",
                          help="watch to register before streaming "
                               "(repeatable)")
    p_client.add_argument("--expect-verdicts", type=int, default=None,
                          metavar="K",
                          help="block until K verdicts arrive (default: "
                               "the number of --watch registrations)")
    p_client.add_argument("--stats", action="store_true",
                          help="print the service stat line afterwards")

    sub.add_parser("figures", help="print the paper's figures")

    p_lint = sub.add_parser(
        "lint",
        help="project-specific static analysis (REP001, REP002, REP004-REP009)",
    )
    add_lint_arguments(p_lint)
    return parser


def _load_context(path: str, backend: str | None = None) -> AnalysisContext:
    """Load a trace into the shared analysis context — the one place
    the CLI builds timestamps and cuts.  ``backend`` is a
    :data:`repro.backends.base.BACKENDS` key; None uses the process
    default (``$REPRO_BACKEND`` or ``vector``)."""
    if backend is None:
        return AnalysisContext.of(Execution(load(path)))
    return AnalysisContext(Execution(load(path)), backend=backend)


def _print_run_stats(ctx: AnalysisContext) -> None:
    """One diagnostic line: which backend answered and what it cost."""
    passes = clock_pass_counts()
    print(f"backend: {ctx.backend_name} | cut cache: "
          f"{ctx.cache_hits} hits / {ctx.cache_misses} misses | "
          f"clock passes: forward={passes['forward']} "
          f"reverse={passes['reverse']} extend={passes['extend']}")
    fam = ctx.family_query_stats()
    if fam["fills"] or fam["hits"]:
        print(f"family kernel: {fam['pairs']} pairs x 24 subtests in "
              f"{fam['fills']} batched fills | {fam['evals']} subtest evals "
              f"({fam['cut_pair_evals']} cut-pair) | "
              f"{fam['hits']} verdict-row hits")


def _cmd_generate(args) -> int:
    trace = _GENERATORS[args.kind](args)
    save(trace, args.out)
    print(f"wrote {args.kind} trace ({trace.num_nodes} nodes, "
          f"{trace.total_events} events, {len(trace.messages)} messages) "
          f"to {args.out}")
    return 0


def _cmd_info(args) -> int:
    ex = _load_context(args.trace).execution
    metrics = summarize(ex)
    print(metrics)
    labels = sorted(
        {ev.label for ev in ex.trace.iter_events() if ev.label is not None}
    )
    if labels:
        print(f"labels: {', '.join(labels)}")
    return 0


def _cmd_render(args) -> int:
    ex = _load_context(args.trace).execution
    intervals = {label: by_label(ex, label) for label in args.interval}
    print(render(ex, intervals=intervals, show_messages=not args.no_messages))
    return 0


def _cmd_relations(args) -> int:
    reset_clock_pass_counts()
    if args.reduce:
        from .backends.reduction import reduce_trace

        red = reduce_trace(load(args.trace))
        print(f"reduced {red.original_events} events to "
              f"{red.reduced_events} ({red.ratio:.0%} fewer)")
        ctx = AnalysisContext(Execution(red.trace), backend=args.backend)
    else:
        ctx = _load_context(args.trace, args.backend)
    ex = ctx.execution
    an = SynchronizationAnalyzer(ctx, engine=args.engine)
    x = by_label(ex, args.x)
    y = by_label(ex, args.y)
    print(f"X = {args.x!r}: {len(x)} events on nodes {list(x.node_set)}")
    print(f"Y = {args.y!r}: {len(y)} events on nodes {list(y.node_set)}")
    if args.spec:
        print(f"{args.spec}(X, Y) = {an.holds(args.spec, x, y)}")
        _print_run_stats(ctx)
        return 0
    results = an.all_relations(x, y)
    holding = [str(s) for s in FAMILY32 if results[s]]
    print(f"holding ({len(holding)}/32): {', '.join(holding) or '(none)'}")
    strongest = an.strongest(x, y)
    print("strongest: " + (", ".join(map(str, strongest)) or "(none)"))
    _print_run_stats(ctx)
    return 0


def _cmd_check(args) -> int:
    reset_clock_pass_counts()
    ctx = _load_context(args.trace, args.backend)
    ex = ctx.execution
    bindings = {}
    for item in args.bind:
        name, _, label = item.partition("=")
        if not label:
            print(f"error: --bind needs NAME=LABEL, got {item!r}",
                  file=sys.stderr)
            return 2
        bindings[name] = by_label(ex, label, name=name)
    an = SynchronizationAnalyzer(ctx, engine=args.engine)
    report = ConditionChecker(an).check(args.spec, bindings)
    print(report)
    _print_run_stats(ctx)
    return 0 if report.passed else 1


def _cmd_stream(args) -> int:
    """Replay a recorded trace through the streaming monitor.

    Events are replayed in a causally valid global order (per-node
    program order, receives after their sends) and tagged into
    intervals by label; each interval closes the moment its last
    labelled event arrives.  Watches fire mid-stream, the optional
    ``--spec`` is answered between consecutive closes from the
    incrementally maintained past cuts, and the final summary reports
    the clock-pass counters — all zeros proves the whole run (ingest,
    verdicts, finalisation) stayed on the live growable clock table.
    """
    from .monitor.online import OnlineMonitor

    trace = load(args.trace)
    remaining: dict = {}
    for ev in trace.iter_events():
        if ev.label is not None:
            remaining[ev.label] = remaining.get(ev.label, 0) + 1
    if not remaining:
        print("error: trace has no labelled events to form intervals",
              file=sys.stderr)
        return 2

    reset_clock_pass_counts()
    om = OnlineMonitor(trace.num_nodes)
    for item in args.watch:
        name, _, cond = item.partition("=")
        if not cond:
            print(f"error: --watch needs NAME=CONDITION, got {item!r}",
                  file=sys.stderr)
            return 2
        om.watch(name, cond)

    handles: dict = {}
    closed: list[str] = []
    for node, ev, send in causal_schedule(trace):
        if ev.kind.name == "SEND":
            handles[ev.eid] = om.send(
                node, label=ev.label, time=ev.time, interval=ev.label
            )
        elif send is not None:
            om.recv(node, handles[send], label=ev.label,
                    time=ev.time, interval=ev.label)
        else:
            om.internal(node, label=ev.label, time=ev.time,
                        interval=ev.label)
        if ev.label is None:
            continue
        remaining[ev.label] -= 1
        if remaining[ev.label] == 0:
            for note in om.close(ev.label):
                verdict = "holds" if note.passed else "fails"
                print(f"watch {note.name!r} decided at close of "
                      f"{ev.label!r} (t={note.decided_at}): "
                      f"{verdict}")
            iv = om.interval(ev.label)
            print(f"closed {ev.label!r} ({iv.count} events on "
                  f"nodes {list(iv.node_set)})")
            if args.spec and closed:
                v = om.holds(args.spec, closed[-1], ev.label)
                print(f"  {args.spec}({closed[-1]}, {ev.label}) "
                      f"= {v}")
            closed.append(ev.label)

    # zero-copy finalisation from the live table into a full context
    ctx = AnalysisContext(om.to_execution(), backend=args.backend)
    passes = clock_pass_counts()
    print(f"streamed {trace.total_events} events, {len(closed)} intervals "
          f"closed, {len(om.notifications)} watch notification(s)")
    print(f"offline clock passes during the run: forward={passes['forward']} "
          f"reverse={passes['reverse']} extend={passes['extend']}")
    print(f"finalisation context backend: {ctx.backend_name}")
    return 0


def _parse_watches(items: list[str]) -> list[tuple[str, str]]:
    """Parse repeated ``NAME=CONDITION`` watch arguments."""
    watches: list[tuple[str, str]] = []
    for item in items:
        name, _, cond = item.partition("=")
        if not name or not cond:
            raise ValueError(f"--watch needs NAME=CONDITION, got {item!r}")
        watches.append((name, cond))
    return watches


def _parse_hostport(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` argument."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _print_service_stats(stats: dict) -> None:
    """One stat line for the service: ingest, queue depths, latency,
    and the clock-pass proof that ingest stayed streaming."""
    shards = " ".join(
        f"s{i}={s['applied']}/{s['queued_peak']}"
        for i, s in enumerate(stats["shards"])
    )
    lat = stats["watch_latency"]
    passes = stats["clock_passes"]
    print(f"service[{stats['role']}]: {stats['events_applied']} events, "
          f"{stats['closes_applied']} closes, "
          f"{stats['verdicts_emitted']} verdicts, "
          f"{stats['throttles']} throttles, {stats['parked']} parked | "
          f"shard applied/peak-depth: {shards} | "
          f"watch latency: n={lat['count']} avg={lat['avg_ms']:.2f}ms "
          f"max={lat['max_ms']:.2f}ms | "
          f"clock passes: forward={passes['forward']} "
          f"reverse={passes['reverse']} extend={passes['extend']}")


def _cmd_serve(args) -> int:
    """Run the monitoring service until interrupted (or ``--oneshot``).

    With ``--standby HOST:PORT`` the service starts as a warm standby:
    it tails the primary's replicated log and, when the primary dies,
    promotes itself — emitting exactly the watch verdicts the primary
    had not already confirmed — and starts listening.
    """
    import asyncio

    from .service import MonitorService

    watches = _parse_watches(args.watch)
    primary = _parse_hostport(args.standby) if args.standby else None

    async def run() -> None:
        # The constructor's log open/replay completes before any client
        # can connect, so blocking here stalls nobody; steady-state
        # appends are executor-offloaded (MonitorService._flush_log).
        # repro-lint: disable=REP007 -- startup-only blocking is harmless
        service = MonitorService(
            args.nodes,
            host=args.host,
            port=args.port,
            log_path=args.log,
            num_shards=args.shards,
            fsync_every=args.fsync_every,
            throttle_at=args.throttle_at,
            disconnect_at=args.disconnect_at,
            watches=tuple(watches),
            primary=primary,
        )
        await service.start()
        try:
            if primary is not None:
                print(f"standby: tailing {primary[0]}:{primary[1]}",
                      flush=True)
                await service.wait_primary_loss()
                verdicts = await service.promote()
                host, port = service.address
                print(f"primary lost: promoted, {len(verdicts)} pending "
                      f"verdict(s) emitted, serving on {host}:{port}",
                      flush=True)
            else:
                host, port = service.address
                print(f"serving {args.nodes} nodes on {host}:{port}",
                      flush=True)
            if args.oneshot:
                await service.wait_session_end()
            else:
                await asyncio.Event().wait()  # until cancelled (ctrl-C)
        except asyncio.CancelledError:
            pass
        finally:
            _print_service_stats(service.core.stats())
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_client(args) -> int:
    """Replay a recorded trace into a running service, one shard of
    the node set per invocation."""
    from .service import MonitorClient
    from .service.client import replay_trace

    shard_txt, _, total_txt = args.shard.partition("/")
    if not shard_txt.isdigit() or not total_txt.isdigit():
        raise ValueError(f"--shard needs I/N, got {args.shard!r}")
    shard, num_shards = int(shard_txt), int(total_txt)
    host, port = _parse_hostport(args.connect)
    watches = _parse_watches(args.watch)
    trace = load(args.trace)
    if watches and not any(
        ev.label is not None for ev in trace.iter_events()
    ):
        print("error: trace has no labelled events, so no interval ever "
              "closes and no watch can fire", file=sys.stderr)
        return 2

    with MonitorClient(host, port, num_nodes=trace.num_nodes) as client:
        for name, cond in watches:
            client.watch(name, cond)
        counts = replay_trace(client, trace, shard, num_shards)
        client.stats()  # barrier: everything sent is ingested
        expect = args.expect_verdicts
        if expect is None:
            expect = len(watches)
        if expect:
            client.wait_verdicts(expect)
        for v in client.verdicts:
            verdict = "holds" if v["passed"] else "fails"
            print(f"verdict #{v['watch_seq']} {v['name']!r} "
                  f"(decided_at={v['decided_at']}): {verdict}")
        print(f"streamed shard {shard}/{num_shards}: {counts['events']} "
              f"events, {counts['closes']} closes, "
              f"{client.throttles} throttle(s)")
        if args.stats:
            stats = client.stats()
            _print_service_stats(stats)
    return 0


def _cmd_figures(args) -> int:
    from .simulation.scenarios import figure2, figure3
    from .viz.spacetime import render_cut_table

    fig = figure2()
    print(render(fig.execution, intervals={"X": fig.x},
                 cuts={"C1": fig.cuts.c1, "C2": fig.cuts.c2,
                       "C3": fig.cuts.c3, "C4": fig.cuts.c4},
                 show_messages=False))
    fig3 = figure3()
    print(render_cut_table({
        "C1(L_X)": fig3.cuts_lx.c1, "C4(U_X)": fig3.cuts_ux.c4,
    }))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "render": _cmd_render,
    "relations": _cmd_relations,
    "check": _cmd_check,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
    "client": _cmd_client,
    "figures": _cmd_figures,
    "lint": run_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
