"""The ``offline_query`` workload: relation queries over a recorded trace.

The parent half (:func:`run`) builds the seeded traces, writes them
and their interval plans to files, and starts the analyzer as a child
process (``python perfbench/offline.py <args>``) so that the peak RSS
it reports belongs to the analyzer alone.  The child half
(:func:`worker`) does the set-ups, the timed query rounds and the
output checks, and writes one JSON result file.

A run holds ``traces`` seeded traces and takes its rounds from them in
turn, so every trace sees the same mix of host speeds and one run's
figures average over several inputs.  A round is one pass of each
query surface over one trace, each on a fresh
:class:`~repro.core.context.AnalysisContext` over its built execution:

* batch: ``all_relations_batch`` + ``strongest_batch`` over every
  ordered pair of intervals (counted as 40 verdicts per pair);
* spec: ``batch_holds`` for a few fixed family specs over the same pairs;
* pair: single pairs answered by ``all_relations`` + ``strongest`` on
  fresh interval objects and empty cut and verdict caches (what
  ``repro relations`` pays per call).

Every surface builds its interval objects inside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import reference  # noqa: E402

SIZES = {
    "full": {"nodes": 16, "events": 2000, "msg_prob": 0.3, "traces": 4,
             "rounds": 32, "groups": 4, "setups": 2, "pairs_per_round": 600,
             "pair_warmup": 100, "min_rounds": 2, "linear_sample": 16,
             "traced_pairs": 600, "traced_repeats": 3},
    "smoke": {"nodes": 6, "events": 120, "msg_prob": 0.3, "traces": 2,
              "rounds": 4, "groups": 2, "setups": 1, "pairs_per_round": 20,
              "pair_warmup": 5, "min_rounds": 1, "linear_sample": 4,
              "traced_pairs": 10, "traced_repeats": 1},
}

#: Fixed single specs for the ``batch_holds`` surface.
SPECS = ("R1(U,L)", "R2'(L,U)", "R4(L,L)")

#: Verdicts credited per pair to the batch surface (32 family + 8).
VERDICTS_PER_PAIR = 40

#: Reference samples taken just before and just after each batch and set-up.
BATCH_REFERENCE_SAMPLES = 8
#: One reference sample after every this many single-pair queries.
PAIR_REFERENCE_EVERY = 2


def interval_plan(trace, rounds: int, groups: int, seed: int) -> list[list[list[int]]]:
    """``rounds * groups`` pairwise-disjoint multi-node intervals.

    Every node's events are cut into ``rounds`` contiguous blocks; in
    round ``r`` a seeded permutation splits the nodes into ``groups``
    groups, and each group's round-``r`` blocks form one interval.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    nodes = trace.num_nodes
    plan = []
    for r in range(rounds):
        perm = rng.permutation(nodes)
        for g in range(groups):
            ids = []
            for node in sorted(int(n) for n in perm[g::groups]):
                k = trace.num_real(node)
                lo, hi = r * k // rounds, (r + 1) * k // rounds
                ids.extend([node, i] for i in range(lo + 1, hi + 1))
            plan.append(ids)
    return plan


def run(seed: int, seconds: float, traced: bool, size: str = "full") -> dict:
    """Parent half: make the inputs, run the analyzer child, return its
    result record (see :func:`worker`)."""
    common.use_program()
    from repro.events import serialization
    from repro.simulation.workloads import random_trace

    import numpy as np

    cfg = SIZES[size]
    with common.WorkDir("offline-") as work:
        out_file = work / "result.json"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--out", str(out_file), "--seed", str(seed),
               "--seconds", str(seconds), "--size", size]
        events = 0
        for k in range(cfg["traces"]):
            trace = random_trace(cfg["nodes"], events_per_node=cfg["events"],
                                 msg_prob=cfg["msg_prob"],
                                 seed=np.random.default_rng([seed, k]))
            trace_file = work / f"trace{k}.json"
            plan_file = work / f"intervals{k}.json"
            serialization.save(trace, str(trace_file))
            plan = interval_plan(trace, cfg["rounds"], cfg["groups"], seed + k)
            plan_file.write_text(json.dumps(plan))
            cmd += ["--trace-file", str(trace_file), "--intervals", str(plan_file)]
            events += trace.total_events
        if traced:
            cmd.append("--traced")
        proc = subprocess.run(cmd, env=common.child_env(), cwd=common.ROOT,
                              timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"analyzer process exited with {proc.returncode}")
        result = json.loads(out_file.read_text())
    result["sizes"] = {"traces": cfg["traces"], "nodes": cfg["nodes"],
                       "events_per_node": cfg["events"], "msg_prob": cfg["msg_prob"],
                       "intervals_per_trace": len(plan), "events": events}
    return result


# ----------------------------------------------------------------------
# the analyzer process
# ----------------------------------------------------------------------
class Checks:
    """Output-check bookkeeping: mismatches fail the run."""

    def __init__(self) -> None:
        self.compared = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.compared += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(what)


def _setup(trace_file: str):
    """One set-up: load, forward pass, context, reverse pass."""
    from repro.core.context import AnalysisContext
    from repro.events import serialization
    from repro.events.poset import Execution

    t0 = time.perf_counter()
    trace = serialization.load(trace_file)
    ex = Execution(trace)
    AnalysisContext(ex)
    ex.reverse_table
    return time.perf_counter() - t0, ex


def _intervals(ex, plan, which=None):
    """Fresh interval objects (empty proxy caches) for ``plan``, or for
    the plan entries indexed by ``which``."""
    from repro.nonatomic.event import NonatomicEvent

    keys = range(len(plan)) if which is None else which
    return [NonatomicEvent(ex, plan[k], name=f"I{k}") for k in keys]


def _batch(ex, plan, index_pairs):
    from repro.core.context import AnalysisContext
    from repro.core.evaluator import SynchronizationAnalyzer

    ivs = _intervals(ex, plan)
    pairs = [(ivs[a], ivs[b]) for a, b in index_pairs]
    an = SynchronizationAnalyzer(AnalysisContext(ex))
    return an.all_relations_batch(pairs), an.strongest_batch(pairs)


def _spec(ex, plan, index_pairs, specs):
    from repro.core.context import AnalysisContext
    from repro.core.evaluator import SynchronizationAnalyzer

    ivs = _intervals(ex, plan)
    queries = [(s, ivs[a], ivs[b]) for s in specs for a, b in index_pairs]
    return SynchronizationAnalyzer(AnalysisContext(ex)).batch_holds(queries)


def _pair(ex, plan, a, b):
    from repro.core.context import AnalysisContext
    from repro.core.evaluator import SynchronizationAnalyzer

    x, y = _intervals(ex, plan, (a, b))
    an = SynchronizationAnalyzer(AnalysisContext(ex))
    return an.all_relations(x, y), an.strongest(x, y)


class _Rounds:
    """The timed query rounds plus the checks that tie them together.

    Every query builds its intervals afresh, inside the timed region, so
    no round reuses the proxies or cuts cached on an earlier round's
    interval objects."""

    def __init__(self, ex, plan, seed: int, checks: Checks) -> None:
        import numpy as np

        from repro.core.relations import parse_spec

        self.ex = ex
        self.plan = plan
        n = len(plan)
        self.pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        self.specs = [parse_spec(s) for s in SPECS]
        self.queries = len(self.specs) * len(self.pairs)
        self.order = np.random.default_rng(seed + 1).permutation(len(self.pairs))
        self.checks = checks
        self.reference = None  # (rows, strongest) of the first batch
        self.next_pair = 0
        self.batch_times: list[float] = []  # one per successful batch
        self.batch_ref: list[list[float]] = []  # reference samples around each
        self.spec_time = 0.0
        self.spec_batches = 0
        self.pair_ms: list[list[float]] = []  # one list per pair() call
        self.pair_ref: list[list[float]] = []  # reference samples among them
        self.attempted = 0
        self.raised = 0

    def _has_reference(self, what: str) -> bool:
        """Whether a batch succeeded; if none did, ``what`` cannot be
        checked and counts as failed."""
        if self.reference is None:
            self.checks.expect(False, f"{what}: no batch result to compare with")
        return self.reference is not None

    def batch(self) -> None:
        ref = [reference.sample() for _ in range(BATCH_REFERENCE_SAMPLES)]
        t0 = time.perf_counter()
        try:
            rows, strongest = _batch(self.ex, self.plan, self.pairs)
        except Exception as exc:  # noqa: BLE001 - a raised query is a failure
            self.raised += 1
            self.checks.expect(False, f"batch raised {exc!r}")
            return
        self.batch_times.append(time.perf_counter() - t0)
        ref += [reference.sample() for _ in range(BATCH_REFERENCE_SAMPLES)]
        self.batch_ref.append(ref)
        self.attempted += len(self.pairs)
        if self.reference is None:
            self.reference = (rows, strongest)
        else:
            same = rows == self.reference[0] and strongest == self.reference[1]
            self.checks.expect(same, "batch rows differ between rounds")

    def spec(self) -> None:
        t0 = time.perf_counter()
        try:
            out = _spec(self.ex, self.plan, self.pairs, self.specs)
        except Exception as exc:  # noqa: BLE001
            self.raised += 1
            self.checks.expect(False, f"batch_holds raised {exc!r}")
            return
        self.spec_time += time.perf_counter() - t0
        self.spec_batches += 1
        self.attempted += self.queries
        if not self._has_reference("batch_holds"):
            return
        rows = self.reference[0]
        n = len(self.pairs)
        bad = sum(
            out[k * n + i] != rows[i][spec]
            for k, spec in enumerate(self.specs) for i in range(n)
        )
        self.checks.expect(bad == 0, f"batch_holds disagrees with batch rows on {bad} queries")

    def pair(self, count: int, warmup: int = 0) -> None:
        """``count`` single-pair queries; the first ``warmup`` are checked
        but not timed (the batch phases just before leave caches cold)."""
        samples: list[float] = []
        ref: list[float] = []
        self.pair_ms.append(samples)
        self.pair_ref.append(ref)
        for k in range(count):
            i = int(self.order[self.next_pair % len(self.order)])
            self.next_pair += 1
            a, b = self.pairs[i]
            t0 = time.perf_counter()
            try:
                fam, best = _pair(self.ex, self.plan, a, b)
            except Exception as exc:  # noqa: BLE001
                self.raised += 1
                self.checks.expect(False, f"pair query raised {exc!r}")
                continue
            if k >= warmup:
                samples.append((time.perf_counter() - t0) * 1e3)
                if k % PAIR_REFERENCE_EVERY == 0:
                    ref.append(reference.sample())
            self.attempted += 1
            if self._has_reference(f"pair I{a},I{b}"):
                rows, strongest = self.reference
                self.checks.expect(fam == rows[i] and best == strongest[i],
                                   f"pair I{a},I{b}: per-pair surface differs from batch")

    def linear_sample(self, count: int, seed: int) -> None:
        """Compare batch rows with ``LinearEvaluator.evaluate_spec``."""
        import numpy as np

        from repro.core.context import AnalysisContext
        from repro.core.linear import LinearEvaluator

        if not self._has_reference("LinearEvaluator sample"):
            return
        rows = self.reference[0]
        ivs = _intervals(self.ex, self.plan)
        lin = LinearEvaluator(AnalysisContext(self.ex))
        rng = np.random.default_rng(seed + 2)
        for i in rng.choice(len(self.pairs), size=min(count, len(self.pairs)), replace=False):
            a, b = self.pairs[int(i)]
            bad = [s for s, v in rows[int(i)].items()
                   if lin.evaluate_spec(s, ivs[a], ivs[b]) != v]
            self.checks.expect(not bad, f"pair I{a},I{b}: LinearEvaluator differs on {bad[:3]}")


def worker(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace-file", action="append", required=True)
    ap.add_argument("--intervals", action="append", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    # one CPU for the whole run: no migrations between samples
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    common.use_program()
    cfg = SIZES[args.size]
    plans = [[[tuple(e) for e in ids] for ids in json.loads(Path(f).read_text())]
             for f in args.intervals]
    checks = Checks()
    setups, setup_ref, exes = [], [], []
    for trace_file in args.trace_file:
        for _ in range(cfg["setups"]):
            ref = [reference.sample() for _ in range(BATCH_REFERENCE_SAMPLES)]
            dt, ex = _setup(trace_file)
            setups.append(dt)
            setup_ref.append(ref + [reference.sample() for _ in range(BATCH_REFERENCE_SAMPLES)])
        exes.append(ex)
    result: dict = {"setup_samples_s": setups, "setup_ref_s": setup_ref}

    if args.traced:
        del exes[1:]  # the traced passes use the first trace only
        trace = result["trace"] = _traced(args, cfg, plans[0], checks)
        attempted, raised = trace.pop("attempted"), trace.pop("raised")
    else:
        runs = [_Rounds(ex, plan, args.seed + k, checks)
                for k, (ex, plan) in enumerate(zip(exes, plans))]
        deadline = time.perf_counter() + args.seconds
        done = 0
        while True:
            rounds = runs[done % len(runs)]  # the traces take rounds in turn
            rounds.batch()
            rounds.spec()
            rounds.pair(cfg["pairs_per_round"], cfg["pair_warmup"])
            done += 1
            if time.perf_counter() >= deadline and (
                    done >= cfg["min_rounds"] * len(runs) or any(r.raised for r in runs)):
                break
        for k, rounds in enumerate(runs):
            rounds.linear_sample(cfg["linear_sample"], args.seed + k)
        result.update({
            # one entry per round, all traces pooled (same pair count each)
            "batch_times_s": [t for r in runs for t in r.batch_times],
            "batch_ref_s": [x for r in runs for x in r.batch_ref],
            "pairs": len(runs[0].pairs),
            "spec_batches": sum(r.spec_batches for r in runs),
            "spec_time_s": sum(r.spec_time for r in runs),
            "queries": runs[0].queries,
            "pair_ms": [g for r in runs for g in r.pair_ms],
            "pair_ref_s": [x for r in runs for x in r.pair_ref],
        })
        attempted = sum(r.attempted for r in runs)
        raised = sum(r.raised for r in runs)
    result.update({
        "peak_rss_mb": common.peak_rss_mb(),
        "attempted": attempted + checks.compared,
        "failed": raised + checks.failed,
        "mismatches": checks.mismatches,
        "correct": checks.failed == 0 and raised == 0,
    })
    Path(args.out).write_text(json.dumps(result))
    return 0


def _one_pass(trace_file: str, plan, seed: int, pairs: int, checks: Checks):
    """Set-up plus one round of every surface: the traced unit of work.
    Returns ``(wall seconds, rounds)``."""
    t0 = time.perf_counter()
    _, ex = _setup(trace_file)
    rounds = _Rounds(ex, plan, seed, checks)
    rounds.batch()
    rounds.spec()
    rounds.pair(pairs)
    return time.perf_counter() - t0, rounds


def _traced(args, cfg, plan, checks: Checks) -> dict:
    """Untraced and traced passes of the same work, alternating, and the
    per-layer attribution of the traced ones.

    A first, unmeasured pass pays the one-time costs (imports, first
    calls) that would otherwise fall on an untraced pass; alternating
    spreads the host's drift over both sides of the overhead."""
    from repro.events.clocks import clock_pass_counts

    import spans

    def one_pass():
        return _one_pass(args.trace_file[0], plan, args.seed, cfg["traced_pairs"], checks)

    rec = spans.SpanRecorder()
    plain_walls, traced_walls, clock_passes = [], [], 0
    passes = [one_pass()[1]]
    t0 = time.perf_counter()
    for _ in range(cfg["traced_repeats"]):
        wall, plain = one_pass()
        plain_walls.append(wall)
        passes.append(plain)
        spans.install_offline(rec)
        before = sum(clock_pass_counts().values())
        wall, traced = one_pass()
        clock_passes += sum(clock_pass_counts().values()) - before
        rec.uninstall()
        traced_walls.append(wall)
        passes.append(traced)
    t1 = time.perf_counter()
    plains = passes[1::2]
    spec_time = sum(r.spec_time for r in plains)
    return {
        "wall_s": sum(traced_walls),
        "overhead_s": sum(traced_walls) - sum(plain_walls),
        "self_s": spans.attribute(rec.layers, rec.arrays(), (t0, t1)),
        "counts": dict(rec.counts) | {"clocks.passes": clock_passes},
        "peaks": dict(rec.peaks),
        "spec_queries_per_s": sum(r.queries for r in plains) / spec_time if spec_time else 0.0,
        "attempted": sum(r.attempted for r in passes),
        "raised": sum(r.raised for r in passes),
    }


if __name__ == "__main__":
    sys.exit(worker(sys.argv[1:]))
