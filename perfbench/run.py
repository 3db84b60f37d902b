"""The repository benchmark: ``python3 perfbench/run.py --workload W --seed N``.

Workloads (see ``catalog.WORKLOADS``): ``offline_query`` and
``live_watch``.  With ``--trace 0`` a run reports the end-to-end
metrics; with ``--trace 1`` it runs the same work untraced and traced
and reports the per-layer metrics.

A run's timed work is cut into windows: the rounds of
``offline_query``, a few seconds of stream in ``live_watch``.  The
host's speed changes by up to 2x for seconds or minutes at a time, so
every window's timings are scaled to a fixed reference speed by the
reference task timed in the same window on the same CPU (see
``reference.py``), and a run reports the median over its windows.  The
info line keeps the unscaled figures.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
lines before it starting with ``#`` describe the run (sizes, host,
every metric with its unit).

Other commands::

    python3 perfbench/run.py --list-metrics   # every metric, unit, meaning
    python3 perfbench/run.py --smoke          # all workloads, smoke sizes

Run from the root of a checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
import common  # noqa: E402

Metrics = dict[str, tuple[float, str]]


def _unit(name: str) -> str:
    return (catalog.END_TO_END.get(name) or catalog.PER_LAYER[name])[0]


def _with_units(values: dict[str, float]) -> Metrics:
    return {name: (value, _unit(name)) for name, value in values.items()}


def _median(values: list[float]) -> float:
    """The median; 0 when nothing was timed (a failed run)."""
    return common.median(values) if values else 0.0


# ----------------------------------------------------------------------
# offline_query
# ----------------------------------------------------------------------
def offline_query(seed: int, seconds: float, traced: bool, size: str):
    import offline
    import reference

    r = offline.run(seed, seconds, traced, size)
    info = {"sizes": r["sizes"], "setup_samples_s": r["setup_samples_s"],
            "mismatches": r["mismatches"]}
    if traced:
        t = r["trace"]
        layer = _layer_metrics(t, r["attempted"], r["failed"])
        layer["offline.spec_queries_per_s"] = t["spec_queries_per_s"]
        return r["correct"], r["attempted"], r["failed"], _with_units(layer), info
    pairs = r["pairs"]
    info.update({
        "batches": len(r["batch_times_s"]), "pairs": pairs,
        "pair_samples": [len(g) for g in r["pair_ms"]],
        "spec_queries_per_s": _rate(r["queries"] * r["spec_batches"], r["spec_time_s"]),
    })
    rates = [offline.VERDICTS_PER_PAIR * pairs / t for t in r["batch_times_s"]]
    batch_f = [reference.factor(x) for x in r["batch_ref_s"]]
    rounds = [(g, reference.factor(x)) for g, x in zip(r["pair_ms"], r["pair_ref_s"]) if g and x]
    groups, pair_f = [g for g, _ in rounds], [f for _, f in rounds]
    values = {
        "setup_s": _median([t * reference.factor(x) for t, x in
                            zip(r["setup_samples_s"], r["setup_ref_s"])]),
        "peak_rss_mb": r["peak_rss_mb"],
        "throughput_per_s": _median([v / f for v, f in zip(rates, batch_f)]),
        "latency_p50_ms": _scaled(groups, pair_f, 0.5),
    }
    info["latency_p90_ms"] = _scaled(groups, pair_f, 0.9)
    info["unscaled"] = {"setup_s": _median(r["setup_samples_s"]),
                        "throughput_per_s": _median(rates),
                        "latency_p50_ms": _scaled(groups, [1.0] * len(groups), 0.5)}
    info["factors"] = _quantiles(batch_f + pair_f)
    info["latency_ms"] = _quantiles([x for g in r["pair_ms"] for x in g])
    return r["correct"], r["attempted"], r["failed"], _with_units(values), info


# ----------------------------------------------------------------------
# live_watch
# ----------------------------------------------------------------------
def live_watch(seed: int, seconds: float, traced: bool, size: str):
    import live

    r = live.run(seed, seconds, traced, size)
    insts = r["instances"]
    rate = live.SIZES[size]["rate"]
    attempted = sum(i.ops for i in insts)
    failures: dict[str, int] = {}
    for inst in insts:
        for key, n in inst.failures.items():
            failures[key] = failures.get(key, 0) + n
    failed = sum(failures.values())
    mismatches = [m for inst in insts for m in inst.mismatches]
    invalid = []
    for k, inst in enumerate(insts):
        late = common.quantile(inst.late_ms, 0.99) if inst.late_ms else 0.0
        achieved = inst.applied / inst.stream_s
        if late > live.MAX_LATE_P99_MS:
            invalid.append(f"instance {k}: generator late p99 {late:.1f} ms")
        if achieved < live.MIN_ACHIEVED_SHARE * rate:
            invalid.append(f"instance {k}: achieved {achieved:.0f}/s of {rate:.0f}/s")
        if inst.drain_s > live.MAX_DRAIN_S:
            invalid.append(f"instance {k}: backlog drained in {inst.drain_s:.2f} s")
    windows = [w for i in insts for w in i.windows]
    info = {
        "sizes": r["sizes"], "failures": failures, "mismatches": mismatches,
        "invalid": invalid,
        "setup_samples_s": [i.setup_s for i in insts],
        "rates_per_s": [i.applied / i.stream_s for i in insts],
        "service_cpu_s": [i.cpu_s for i in insts],
        "offered_per_s": rate,
        "windows": len(windows),
    }
    correct = not mismatches and not invalid and failed == 0
    if traced:
        tr = insts[-1]
        layer = _layer_metrics(r["trace"], attempted, failed)
        stats = tr.stats
        layer.update({
            "service.core.parked_peak": max(
                (s["queued_peak"] for s in stats.get("shards", [])), default=0),
            "service.core.throttles": stats.get("throttles", 0),
            "clocks.passes": sum(stats.get("clock_passes", {}).values()),
            "gen.frames_sent": tr.frames_sent,
            "gen.bytes_sent": tr.bytes_sent,
            "gen.late_p99_ms": common.quantile(tr.late_ms, 0.99) if tr.late_ms else 0.0,
            "gen.late_max_ms": max(tr.late_ms, default=0.0),
            "gen.offered_per_s": rate,
            "gen.achieved_per_s": tr.applied / tr.stream_s,
        })
        return correct, attempted, failed, _with_units(layer), info
    # the open loop fixes the wall-clock rate; what the service controls
    # is the CPU time it spends per event
    timed = [w for w in windows if w.cpu_s > 0]
    rates = [w.events / w.cpu_s for w in timed]
    full = [w for w in windows if len(w.latencies_ms) >= live.MIN_WINDOW_VERDICTS]
    values = {
        "setup_s": common.median([i.setup_s for i in insts]),
        "peak_rss_mb": common.median([i.peak_rss_mb for i in insts]),
        "throughput_per_s": _median([v / w.factor for v, w in zip(rates, timed)]),
        "latency_p50_ms": _scaled([w.latencies_ms for w in full], [w.factor for w in full], 0.5),
    }
    info["latency_p90_ms"] = _scaled([w.latencies_ms for w in full], [w.factor for w in full], 0.9)
    info["unscaled"] = {"throughput_per_s": _median(rates),
                        "latency_p50_ms": _scaled([w.latencies_ms for w in full],
                                                  [1.0] * len(full), 0.5)}
    info["factors"] = _quantiles([w.factor for w in windows])
    info["latency_ms"] = _quantiles([x for i in insts for x in i.latencies_ms])
    return correct, attempted, failed, _with_units(values), info


def _rate(count: float, seconds: float) -> float:
    """``count / seconds``; 0 when nothing was timed (a failed run)."""
    return count / seconds if seconds > 0 else 0.0


def _scaled(groups: list[list[float]], factors: list[float], q: float) -> float:
    """Quantile ``q`` of each window's samples (one group per window)
    times the window's reference factor, median over the windows.  0 when
    there are no samples (a failed run, which the result marks as not
    correct)."""
    return _median([common.quantile(g, q) * f for g, f in zip(groups, factors) if g])


def _quantiles(samples: list[float]) -> dict[str, float]:
    """Sample count and a few quantiles, for the run's info line."""
    if not samples:
        return {"n": 0}
    out = {f"p{int(q * 100)}": common.quantile(samples, q) for q in (0.5, 0.9, 0.95, 0.99)}
    return {"n": len(samples), **out, "max": max(samples)}


def _layer_metrics(trace: dict, attempted: int, failed: int) -> dict[str, float]:
    """Every per-layer metric from a traced run (0 for unused layers)."""
    values = {name: 0.0 for name in catalog.PER_LAYER}
    for name, secs in trace["self_s"].items():
        values[name] = secs
    values.update(trace["counts"])
    values.update(trace["peaks"])
    layer_sum = sum(values[name] for name in catalog.LAYER_TIMES)
    values["trace.wall_s"] = trace["wall_s"]
    values["other_s"] = trace["wall_s"] - layer_sum
    values["trace.overhead_s"] = trace["overhead_s"]
    values["ops_failed_ratio"] = failed / attempted if attempted else 0.0
    return {name: values[name] for name in catalog.PER_LAYER}


WORKLOADS = {
    "offline_query": offline_query,
    "live_watch": live_watch,
}


#: Rounding slack for the wall split: layer self times may exceed the
#: traced wall by this much before the split counts as broken.
SPLIT_SLACK_S = 1e-4


def run_one(workload: str, seed: int, seconds: float, traced: bool, size: str = "full"):
    correct, attempted, failed, metrics, info = WORKLOADS[workload](
        seed, seconds, traced, size)
    if traced and metrics["other_s"][0] < -SPLIT_SLACK_S:
        # layer self times cover more than the wall: overlapping or
        # double-counted spans, so the split is wrong
        correct = False
        info["split"] = f"other_s {metrics['other_s'][0]:.6f} s < 0"
    info.update({"workload": workload, "seed": seed, "seconds": seconds,
                 "trace": int(traced), "size": size, "host": common.host_info()})
    return correct, attempted, failed, metrics, info


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def list_metrics() -> int:
    for title, table in (("end_to_end (--trace 0)", catalog.END_TO_END),
                         ("per_layer (--trace 1)", catalog.PER_LAYER)):
        print(title)
        for name, (unit, better, meaning) in table.items():
            print(f"  {name:38s} {unit:6s} {better:6s} {meaning}")
    return 0


def smoke() -> int:
    """Every workload at smoke size, untraced and traced: every named
    metric present and finite, every output check passed, and
    ``BENCHMARK.json`` naming exactly this catalog."""
    problems = []
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(catalog.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from catalog.WORKLOADS")
    for key, table in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != {name: (unit, better) for name, (unit, better, _) in table.items()}:
            problems.append(f"BENCHMARK.json {key} differs from the catalog")
    for workload in catalog.WORKLOADS:
        for traced, table in ((False, catalog.END_TO_END), (True, catalog.PER_LAYER)):
            correct, attempted, failed, metrics, info = run_one(
                workload, 1, 1.0, traced, "smoke")
            where = f"{workload} trace={int(traced)}"
            if not correct or failed:
                problems.append(f"{where}: checks failed {info}")
            if set(metrics) != set(table):
                problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(table))}")
            bad = [n for n, (v, _) in metrics.items() if not math.isfinite(v)]
            if bad:
                problems.append(f"{where}: not finite {bad}")
            print(f"# smoke {where}: attempted={attempted} failed={failed} "
                  f"correct={correct}", flush=True)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-metrics", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.list_metrics:
        return list_metrics()
    if not common.program_present():
        print(f"error: no program under {common.SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    correct, attempted, failed, metrics, info = run_one(
        args.workload, args.seed, args.seconds, bool(args.trace))
    common.emit_info(info)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    common.emit_result(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
