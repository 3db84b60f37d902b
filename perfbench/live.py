"""The ``live_watch`` workload: the monitoring service as a separate process.

Each service instance runs ``repro serve --nodes N --log <file>``
through ``serve.py`` (which adds the reference ticker, and the span
wrappers for the traced run) and is driven over loopback TCP by a
generator in this process: one thread, a non-blocking socket, frames
pre-encoded before timing, pushes read the moment they arrive.

The load is an open loop: frame ``i`` of the event schedule is due at
``i / rate``; watches are registered ahead of the intervals they name,
so about ``nodes * lookahead`` stay pending.  A run is a few segments,
each a fresh service replaying a seeded trace of its own, and every
segment's stream is cut into windows of about ``window_s`` seconds (by
due time), each with its own verdict latencies, service CPU time and
reference samples (see :mod:`reference`).

Every verdict is checked against the offline analyzer on the same
trace (:class:`~repro.monitor.checker.ConditionChecker` over
:class:`~repro.core.evaluator.SynchronizationAnalyzer`, intervals as
tagged), and must arrive exactly once.
"""

from __future__ import annotations

import collections
import json
import os
import select
import selectors
import socket
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import reference  # noqa: E402

HERE = Path(__file__).resolve().parent

# 500 events/s is a quarter to a tenth of the service's saturated rate
# on a 2-core x86_64 host (its CPU cost per event varied 2x with the
# host's speed).  At 1,000 events/s the service was busy up to 60% of
# the time on a slow host, and the verdict p90 of single segments ranged
# 6-20 ms within one run.
SIZES: dict[str, dict[str, Any]] = {
    "full": {"nodes": 8, "msg_prob": 0.3, "interval": 16, "rate": 500.0,
             "lookahead": 64, "segments": 4, "window_s": 2.5},
    "smoke": {"nodes": 8, "msg_prob": 0.3, "interval": 16, "rate": 500.0,
              "lookahead": 4, "segments": 1, "window_s": 0.5},
}

#: Windows with fewer verdicts than this give no latency figures.
MIN_WINDOW_VERDICTS = 20

#: Validity limits for the open loop.  A run outside them is reported
#: as invalid: the generator fell behind or the service's backlog grew.
MAX_LATE_P99_MS = 20.0
MIN_ACHIEVED_SHARE = 0.95
MAX_DRAIN_S = 1.0

#: Frame kinds.
EVENT, CLOSE, WATCH, PROBE = range(4)

_OUT_CAP = 1 << 16
_IO_TIMEOUT = 30.0


# ----------------------------------------------------------------------
# plans: the frames a run sends, and what it expects back
# ----------------------------------------------------------------------
@dataclass
class Frame:
    data: bytes
    due: float  # seconds after the stream starts
    kind: int
    interval: str | None = None  # the interval a CLOSE frame closes


@dataclass
class Plan:
    nodes: int
    frames: list[Frame]
    startup: list[tuple[str, str]]  # watches registered during set-up
    watches: dict[str, str]  # every watch: name -> condition
    tags: dict[str, list[tuple[int, int]]]  # interval -> event ids
    close_due: dict[str, float]  # interval -> due time of its close frame
    events: int
    expected: dict[str, float] = field(default_factory=dict)  # watch -> completing due
    needs: dict[str, tuple[str, ...]] = field(default_factory=dict)  # watch -> intervals
    oracle: dict[str, bool] = field(default_factory=dict)

    @property
    def sent_ops(self) -> int:
        return len(self.frames) + len(self.startup)


def _iv(node: int, j: int) -> str:
    return f"c{node}_{j}"


def _condition(node: int, j: int, nodes: int) -> str:
    """A condition on interval ``(node, j)`` against earlier intervals on
    the same node and on the neighbour node."""
    y = _iv(node, j)
    x = _iv(node, j - 1)
    z = _iv((node + 1) % nodes, j - 1)
    w = _iv(node, j - 2) if j >= 2 else x
    kind = (node + j) % 4
    if kind == 0:
        return f"R1({x}, {y}) and R4({z}, {y})"
    if kind == 1:
        return f"R2'({z}, {y}) or not R3({x}, {y})"
    if kind == 2:
        return f"R1(U,L)({z}, {y}) -> R2({x}, {y})"
    return f"not R4(L,U)({z}, {y}) or R3'({w}, {y})"


def make_plan(cfg: dict[str, Any], seed: Any, seconds: float):
    """The seeded trace (``seed``: an int or a NumPy generator) and the
    frames that replay it over ``seconds``."""
    common.use_program()
    from repro.service.protocol import encode_frame
    from repro.simulation.workloads import random_trace

    nodes, length = cfg["nodes"], cfg["interval"]
    per_node = int(cfg["rate"] * seconds / nodes) // length * length
    per_node = max(per_node, 4 * length)
    trace = random_trace(nodes, events_per_node=per_node,
                         msg_prob=cfg["msg_prob"], seed=seed)
    # generation order (step time) is a causal order: sends precede receives
    schedule = sorted(
        (ev.time, node, ev) for node in range(nodes) for ev in trace.events_of(node)
    )
    counts = [trace.num_real(n) for n in range(nodes)]
    rate = cfg["rate"]
    lookahead = cfg["lookahead"]

    # rolling watches: the first `lookahead` targets of every node at set-up
    watches: dict[str, str] = {}
    startup: list[tuple[str, str]] = []
    for n in range(nodes):
        for j in range(2, 2 + lookahead):
            name = f"w{n}_{j}"
            watches[name] = _condition(n, j, nodes)
            startup.append((name, watches[name]))

    frames: list[Frame] = []
    tags: dict[str, list[tuple[int, int]]] = collections.defaultdict(list)
    close_due: dict[str, float] = {}
    for pos, (_t, node, ev) in enumerate(schedule):
        due = pos / rate
        idx = ev.eid[1]
        j = (idx - 1) // length
        name = _iv(node, j)
        if (idx - 1) % length == 0 and j >= 2:
            # an interval opens: register the watch `lookahead` intervals on
            target = j + lookahead
            wname = f"w{node}_{target}"
            watches[wname] = _condition(node, target, nodes)
            frames.append(Frame(encode_frame(
                {"type": "watch", "name": wname, "condition": watches[wname]}), due, WATCH))
        body: dict[str, Any] = {"type": "event", "node": node,
                                "kind": ev.kind.value, "interval": name}
        send = trace.send_of(ev.eid)
        if send is not None:
            body["send"] = [send[0], send[1]]
        frames.append(Frame(encode_frame(body), due, EVENT))
        tags[name].append(ev.eid)
        if idx % length == 0 or idx == counts[node]:
            frames.append(Frame(encode_frame(
                {"type": "close", "interval": name, "expected": len(tags[name])}),
                due, CLOSE, name))
            close_due[name] = due
    plan = Plan(nodes, frames, startup, watches, dict(tags), close_due,
                trace.total_events)
    _expect(plan, trace)
    return plan


def _expect(plan: Plan, trace) -> None:
    """Verdicts the stream must produce, with the offline verdict."""
    from repro.core.evaluator import SynchronizationAnalyzer
    from repro.events.poset import Execution
    from repro.monitor.checker import ConditionChecker
    from repro.monitor.predicates import parse_condition

    an = SynchronizationAnalyzer(Execution(trace))
    checker = ConditionChecker(an)
    intervals: dict[str, Any] = {}
    for name, text in plan.watches.items():
        cond = parse_condition(text)
        needed = cond.names()
        if not all(n in plan.close_due for n in needed):
            continue  # names an interval the stream never closes
        plan.expected[name] = max(plan.close_due[n] for n in needed)
        plan.needs[name] = tuple(needed)
        for n in needed:
            if n not in intervals:
                intervals[n] = an.interval(plan.tags[n], name=n)
        plan.oracle[name] = checker.check(cond, {n: intervals[n] for n in needed}).passed


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
class Conn:
    """The client session: a non-blocking socket plus its bookkeeping."""

    def __init__(self, host: str, port: int, nodes: int) -> None:
        from repro.service.protocol import PROTOCOL_VERSION, FrameDecoder, encode_frame

        self.encode = encode_frame
        self.sock = socket.create_connection((host, port), timeout=_IO_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()
        self.sock.sendall(encode_frame({"type": "hello", "version": PROTOCOL_VERSION,
                                        "role": "client", "num_nodes": nodes}))
        reply = self._blocking_frame()
        if reply.get("type") != "welcome":
            raise RuntimeError(f"service refused the session: {reply}")
        self.sock.setblocking(False)
        self.out = bytearray()
        self.queued = 0  # bytes ever queued
        self.sent = 0  # bytes ever accepted by the socket
        self.ends: collections.deque = collections.deque()  # (end, due, kind, interval)
        self.probes = 0  # stats probes not yet answered
        self.late: list[float] = []
        self.closed_at: dict[str, float] = {}  # interval -> its close frame sent
        self.verdicts: list[tuple[str, bool, float]] = []
        self.throttles = 0
        self.errors: list[dict] = []
        self.cut = False
        self.last_stats: dict | None = None
        self.frames_sent = 0
        self.want_write = False

    def _blocking_frame(self) -> dict:
        while True:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("service closed the connection")
            frames = self.decoder.feed(chunk)
            if frames:
                if len(frames) > 1:
                    raise RuntimeError("unexpected pushes during the handshake")
                return frames[0]

    def queue(self, data: bytes, due: float, kind: int, interval: str | None = None) -> None:
        self.out += data
        self.queued += len(data)
        self.ends.append((self.queued, due, kind, interval))
        if kind == PROBE:
            self.probes += 1

    def probe(self, due: float) -> None:
        self.queue(self.encode({"type": "stats"}), due, PROBE)

    def flush(self, now_fn) -> None:
        try:
            n = self.sock.send(self.out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self.cut = True
            self.out.clear()
            return
        del self.out[:n]
        self.sent += n
        now = now_fn()
        while self.ends and self.ends[0][0] <= self.sent:
            _end, due, kind, interval = self.ends.popleft()
            self.frames_sent += 1
            if kind == CLOSE:
                self.closed_at[interval] = now
            if kind != PROBE:
                self.late.append(now - due)

    def read(self, now: float) -> None:
        try:
            chunk = self.sock.recv(1 << 18)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        if not chunk:
            self.cut = True
            return
        for frame in self.decoder.feed(chunk):
            ftype = frame.get("type")
            if ftype == "verdict":
                self.verdicts.append((frame["name"], frame["passed"], now))
            elif ftype == "stats":
                self.probes -= 1
                self.last_stats = frame["stats"]
            elif ftype == "throttle":
                self.throttles += 1
            elif ftype == "error":
                self.errors.append(frame)

    def close(self) -> None:
        self.sock.close()


class Generator:
    """Single-threaded open-loop load generator over one session."""

    def __init__(self, conn: Conn) -> None:
        self.conn = conn
        # select(2) takes microsecond timeouts (epoll rounds up to 1 ms),
        # which keeps the open loop on schedule
        self.sel = selectors.SelectSelector()
        self.sel.register(conn.sock, selectors.EVENT_READ)
        self.clock = time.perf_counter

    def step(self, timeout: float) -> None:
        c = self.conn
        if c.out:
            c.flush(self.clock)
        want = bool(c.out)
        if want != c.want_write:
            c.want_write = want
            self.sel.modify(c.sock, selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0))
        for _key, mask in self.sel.select(timeout):
            if mask & selectors.EVENT_READ:
                c.read(self.clock())
            if mask & selectors.EVENT_WRITE and c.out:
                c.flush(self.clock)

    def broken(self) -> bool:
        return self.conn.cut or bool(self.conn.errors)

    def wait(self, done, timeout: float) -> bool:
        end = self.clock() + timeout
        while not done():
            if self.broken() or self.clock() > end:
                return False
            self.step(0.05)
        return True

    def stream(self, frames: list[Frame], t0: float, timeout: float,
               tick: Callable[[float], None]) -> bool:
        """Send every frame at its due time, buffer permitting; ``tick``
        sees the clock on every pass."""
        c = self.conn
        i, n = 0, len(frames)
        end = t0 + timeout
        while i < n:
            now = self.clock()
            tick(now)
            if self.broken() or now > end:
                return False
            wait = 0.05
            while i < n:
                f = frames[i]
                due = t0 + f.due
                if due > now:
                    wait = due - now
                    break
                if len(c.out) >= _OUT_CAP:
                    break
                c.queue(f.data, due, f.kind, f.interval)
                i += 1
            self.step(min(wait, 0.05))
        return self.wait(lambda: not c.out, timeout)


# ----------------------------------------------------------------------
# one service instance
# ----------------------------------------------------------------------
@dataclass
class Window:
    """One ``window_s`` slice of a stream, by due time."""

    events: int  # events due in the window
    cpu_s: float  # service CPU time (all threads) across it, reference task excluded
    latencies_ms: list[float]  # verdicts whose completing close was due in it
    factor: float  # reference.factor of the service's reference samples in it


@dataclass
class Instance:
    setup_s: float
    peak_rss_mb: float
    stream_s: float  # first send -> stats reply confirming everything applied
    drain_s: float  # last frame due -> that reply
    cpu_s: float  # service CPU time (all threads) over the stream
    latencies_ms: list[float]
    windows: list[Window]
    late_ms: list[float]
    applied: int
    stats: dict
    failures: dict[str, int]
    mismatches: list[str]
    frames_sent: int
    bytes_sent: int
    ops: int  # frames the plan sends, set-up included
    spans_file: str | None
    t_start: float  # stream start and end on the shared monotonic clock
    t_end: float


def _launch(nodes: int, log_file: Path, ref_file: Path, spans_file: Path | None,
            err_file: Path, cpu: int | None):
    # --oneshot: the service stops by itself once a session ends, so the
    # shutdown needs no signal (a background shell may ignore SIGINT)
    args = ["serve", "--nodes", str(nodes), "--log", str(log_file), "--oneshot"]
    cmd = [sys.executable, str(HERE / "serve.py"), str(ref_file),
           str(spans_file or "-"), *args]
    err = open(err_file, "wb")
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=common.child_env(), cwd=common.ROOT)
    finally:
        err.close()
    if cpu is not None:
        os.sched_setaffinity(proc.pid, {cpu})
    return proc


def _stop(proc: subprocess.Popen, conn: Conn | None) -> None:
    """End the session; the ``--oneshot`` service then shuts down."""
    if conn is not None:
        conn.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def run_instance(plan: Plan, cfg: dict[str, Any], work: Path, tag: str,
                 traced: bool, cpu: int | None = None) -> Instance:
    """Launch one service, set it up, stream the plan, check, stop."""
    log_file = work / f"{tag}.log"
    ref_file = work / f"{tag}.ref.json"
    spans_file = work / f"{tag}.spans.npz" if traced else None
    err_file = work / f"{tag}.err"
    t_launch = time.perf_counter()
    proc = _launch(plan.nodes, log_file, ref_file, spans_file, err_file, cpu)
    conn: Conn | None = None
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _IO_TIMEOUT)
        line = proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving"):
            raise RuntimeError(f"service did not start: {line!r} "
                               f"{err_file.read_text(errors='replace')[-2000:]}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        conn = c = Conn(host, int(port), plan.nodes)
        gen = Generator(c)
        for name, cond in plan.startup:
            c.queue(c.encode({"type": "watch", "name": name, "condition": cond}), 0.0, WATCH)
        c.probe(0.0)
        if not gen.wait(lambda: not c.probes, _IO_TIMEOUT):
            raise RuntimeError("set-up did not complete")
        setup_s = time.perf_counter() - t_launch
        c.late.clear()  # set-up traffic is not part of the stream figures
        c.frames_sent = 0
        sent0 = c.sent

        # service CPU time read at every window boundary: the stream
        # (every event's due slot) cut into windows of about window_s
        stream_len = plan.events / cfg["rate"]
        n_windows = max(1, round(stream_len / cfg["window_s"]))
        window_s = stream_len / n_windows
        marks = [(0.0, _cpu_s(proc.pid))]
        t0 = time.perf_counter()

        def tick(now: float) -> None:
            if len(marks) <= n_windows and now - t0 >= len(marks) * window_s:
                marks.append((now - t0, _cpu_s(proc.pid)))

        ok = gen.stream(plan.frames, t0, _IO_TIMEOUT * 2, tick)
        while ok and len(marks) <= n_windows:  # the last boundary follows the last frame
            gen.step(max(0.0, t0 + len(marks) * window_s - time.perf_counter()))
            tick(time.perf_counter())
        last_due = t0 + (plan.frames[-1].due if plan.frames else 0.0)
        c.probe(time.perf_counter())
        ok = ok and gen.wait(lambda: not c.probes, _IO_TIMEOUT)
        t_end = time.perf_counter()
        cpu_s = _cpu_s(proc.pid) - marks[0][1]
        want = len(plan.expected)
        ok = ok and gen.wait(lambda: len(c.verdicts) >= want, 10.0)
        # anything further (duplicates) shows up within a short grace period
        gen.wait(lambda: False, 0.2 if ok else 0.0)
        peak = common.peak_rss_mb(proc.pid)
        applied = (c.last_stats or {}).get("events_applied", 0)
        failures, mismatches, latencies = _verify(plan, c, applied)
        if not ok and not any(failures.values()):
            failures["timeouts"] = 1
    finally:
        _stop(proc, conn)
    # the service writes its reference samples when it stops
    ref = [(t - t0, dt) for t, dt in json.loads(ref_file.read_text())]
    return Instance(
        setup_s=setup_s,
        peak_rss_mb=peak,
        stream_s=t_end - t0,
        drain_s=t_end - last_due,
        cpu_s=cpu_s,
        latencies_ms=[ms for _, ms in latencies],
        windows=_windows(plan, marks, latencies, ref),
        late_ms=[x * 1e3 for x in c.late],
        applied=applied,
        stats=c.last_stats or {},
        failures=failures,
        mismatches=mismatches,
        frames_sent=c.frames_sent,
        bytes_sent=c.sent - sent0,
        ops=plan.sent_ops,
        spans_file=str(spans_file) if spans_file else None,
        t_start=t0,
        t_end=t_end,
    )


def _cpu_s(pid: int) -> float:
    """User plus system CPU time of process ``pid`` and all its threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields 14 and 15 of proc(5), counted from the state field (3)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _windows(plan: Plan, marks: list[tuple[float, float]],
             latencies: list[tuple[float, float]],
             ref: list[tuple[float, float]]) -> list[Window]:
    """The stream's windows between consecutive ``(time, cpu)`` marks;
    ``latencies`` and ``ref`` hold ``(time, value)`` pairs, times
    relative to the stream start."""
    import bisect

    event_dues = [f.due for f in plan.frames if f.kind == EVENT]
    out = []
    for (a, cpu_a), (b, cpu_b) in zip(marks, marks[1:]):
        events = bisect.bisect_left(event_dues, b) - bisect.bisect_left(event_dues, a)
        samples = [dt for t, dt in ref if a <= t < b]
        if not samples:
            raise RuntimeError(f"no reference samples from the service in [{a:.2f}, {b:.2f}) s")
        out.append(Window(events, cpu_b - cpu_a - sum(samples),
                          [ms for due, ms in latencies if a <= due < b],
                          reference.factor(samples)))
    return out


def _verify(plan: Plan, c: Conn, applied: int):
    """Failure counts, verdict mismatches, and verdict latencies as
    ``(due of the completing close, ms)``.

    A verdict's latency runs from the moment the close frame that
    completes the watch's last interval was handed to the socket to the
    verdict's arrival.  Not from the frame's due time: how late the
    generator ran (its CPU idle, then woken late by the host) is the
    host's doing, and is reported on its own (``gen.late_*``)."""
    failures = {
        "error_frames": len(c.errors),
        "cut_sessions": int(c.cut),
        "throttles": c.throttles,
        "missing_events": plan.events - applied,
        "missing_verdicts": 0,
        "duplicate_verdicts": 0,
        "unexpected_verdicts": 0,
        "mismatched_verdicts": 0,
    }
    mismatches: list[str] = []
    latencies: list[tuple[float, float]] = []
    seen: dict[str, int] = collections.Counter(name for name, _, _ in c.verdicts)
    failures["duplicate_verdicts"] += sum(k - 1 for k in seen.values() if k > 1)
    failures["unexpected_verdicts"] += sum(1 for k in seen if k not in plan.expected)
    failures["missing_verdicts"] += sum(1 for k in plan.expected if k not in seen)
    for name, passed, at in c.verdicts:
        want = plan.oracle.get(name)
        if want is not None and passed != want:
            failures["mismatched_verdicts"] += 1
            if len(mismatches) < 20:
                mismatches.append(f"{name}: service {passed}, offline {want}")
        due = plan.expected.get(name)
        sent = [c.closed_at.get(n) for n in plan.needs.get(name, ())]
        if due is not None and sent and None not in sent:
            latencies.append((due, (at - max(sent)) * 1e3))
    return failures, mismatches, latencies


# ----------------------------------------------------------------------
# a whole run
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, traced: bool, size: str = "full") -> dict:
    """Run the workload; returns the raw record for ``run.py``.

    ``seconds`` is split into segments, each a fresh instance replaying a
    trace of its own, so one run averages over several schedules."""
    import numpy as np

    cfg = SIZES[size]
    segments = 1 if traced else cfg["segments"]
    seg_seconds = seconds / cfg["segments"]
    plans = [make_plan(cfg, np.random.default_rng([seed, k]), seg_seconds)
             for k in range(segments)]
    instances: list[Instance] = []
    record: dict[str, Any] = {
        "sizes": {k: v for k, v in cfg.items()} | {
            "events": plans[0].events, "frames": len(plans[0].frames),
            "watches": len(plans[0].watches),
            "expected_verdicts": len(plans[0].expected),
        },
    }
    # service and generator on CPUs of their own, so the generator never
    # takes the service's CPU; this steadies latency from run to run
    prior = os.sched_getaffinity(0)
    cpus = sorted(prior)
    cpu = cpus[-1] if len(cpus) >= 2 else None
    if cpu is not None:
        os.sched_setaffinity(0, {cpus[0]})

    def instance(plan: Plan, tag: str, traced: bool = False) -> Instance:
        return run_instance(plan, cfg, work, tag, traced, cpu)

    try:
        with common.WorkDir("live_watch-") as work:
            if traced:
                plain = instance(plans[0], "plain")
                tr = instance(plans[0], "traced", traced=True)
                instances = [plain, tr]
                record["trace"] = _attribution(plain, tr)
            else:
                instances = [instance(p, f"seg{k}") for k, p in enumerate(plans)]
    finally:
        os.sched_setaffinity(0, prior)
    record["instances"] = instances
    return record


def _attribution(plain: Instance, tr: Instance) -> dict:
    """Per-layer self times of the traced instance over its stream window.

    The service and this process read the same monotonic clock
    (``perf_counter``), so the generator's window selects the spans."""
    import spans

    meta, arrays = spans.load(tr.spans_file)
    window = (tr.t_start, tr.t_end)
    return {
        "wall_s": window[1] - window[0],
        "overhead_s": (common.median(tr.latencies_ms) - common.median(plain.latencies_ms)) / 1e3,
        "self_s": spans.attribute(meta["layers"], arrays, window),
        "counts": meta["counts"],
        "peaks": meta["peaks"],
    }
