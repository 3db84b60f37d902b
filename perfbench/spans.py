"""Span recorder for the traced run, wrapping the program's public calls.

The program itself carries no tracing.  For a traced run the benchmark
replaces selected functions and methods with wrappers that record one
span per call: layer, start, end, and the enclosing span on the same
thread.  Spans stay in memory; :meth:`SpanRecorder.dump` writes them
out when the run ends and :func:`attribute` turns them into per-layer
self times (duration minus the time covered by child spans).

Coroutines are timed per resume step (:class:`_Steps`), so a span
covers running time only, never time spent suspended on the socket.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from array import array
from collections.abc import Callable
from typing import Any

import numpy as np


class _Buffer:
    """Spans of one thread, in start order."""

    __slots__ = ("layer", "start", "end", "parent", "stack")

    def __init__(self) -> None:
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []


class SpanRecorder:
    """In-memory spans plus named counters and peaks.

    Spans read ``time.perf_counter``, the system-wide monotonic clock, so
    spans recorded in the service process line up with the generator's
    window in this one."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._originals: list[tuple[Any, str, Any]] = []

    # -- bookkeeping ---------------------------------------------------
    def layer_id(self, name: str) -> int:
        lid = self._ids.get(name)
        if lid is None:
            lid = self._ids[name] = len(self.layers)
            self.layers.append(name)
        return lid

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks.get(name, float("-inf")):
            self.peaks[name] = value

    def enter_group(self, key: int) -> bool:
        """Mark counter group ``key`` active on this thread; False if it
        already was (a nested call, whose deltas the outer call reads)."""
        groups = getattr(self._local, "groups", None)
        if groups is None:
            groups = self._local.groups = set()
        if key in groups:
            return False
        groups.add(key)
        return True

    def leave_group(self, key: int) -> None:
        self._local.groups.discard(key)

    # -- spans ---------------------------------------------------------
    def open(self, lid: int) -> int:
        buf = self._buffer()
        idx = len(buf.start)
        buf.layer.append(lid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.end.append(0.0)
        buf.stack.append(idx)
        buf.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = time.perf_counter()
        buf = self._local.buf
        buf.end[idx] = t
        buf.stack.pop()

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr`` to ``new``, remembering the original."""
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put back every original replaced through :meth:`replace`."""
        while self._originals:
            owner, attr, orig = self._originals.pop()
            setattr(owner, attr, orig)

    # -- output --------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes the same arrays."""
        layer, start, end, parent = [], [], [], []
        offset = 0
        for buf in list(self._buffers):
            n = len(buf.start)
            layer.append(np.frombuffer(buf.layer, dtype=np.int32, count=n))
            start.append(np.frombuffer(buf.start, dtype=np.float64, count=n))
            end.append(np.frombuffer(buf.end, dtype=np.float64, count=n))
            par = np.frombuffer(buf.parent, dtype=np.int64, count=n).copy()
            par[par >= 0] += offset
            parent.append(par)
            offset += n

        def cat(parts: list[np.ndarray], dtype: Any) -> np.ndarray:
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        return {
            "layer": cat(layer, np.int32),
            "start": cat(start, np.float64),
            "end": cat(end, np.float64),
            "parent": cat(parent, np.int64),
        }

    def dump(self, path: str) -> None:
        """Write spans, layer names, counters and peaks to ``path``."""
        meta = {"layers": self.layers, "counts": self.counts, "peaks": self.peaks}
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **self.arrays())
        os.replace(tmp, path)


def load(path: str) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Read a :meth:`SpanRecorder.dump` file: ``(meta, arrays)``."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        arrays = {k: data[k] for k in ("layer", "start", "end", "parent")}
    return meta, arrays


def attribute(
    layers: list[str],
    arrays: dict[str, np.ndarray],
    window: tuple[float, float],
) -> dict[str, float]:
    """Self time per layer, over spans that start inside ``window``."""
    start, end = arrays["start"], arrays["end"]
    parent, layer = arrays["parent"], arrays["layer"]
    done = end >= start
    dur = np.where(done, end - start, 0.0)
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    own = dur - child
    keep = done & (start >= window[0]) & (start <= window[1])
    totals = np.bincount(layer[keep], weights=own[keep], minlength=len(layers))
    return {name: float(totals[i]) for i, name in enumerate(layers)}


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def wrap(
    rec: SpanRecorder,
    owner: Any,
    attr: str,
    layer: str,
    *,
    after: Callable[[tuple, Any], None] | None = None,
    deltas: tuple[tuple[str, str], ...] = (),
) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``after(args, result)`` runs after each call, to update counters
    and peaks.  ``deltas`` are ``(metric, attribute)``
    pairs read from ``args[0]`` before and after a call, for instance
    counters kept by the program; wrappers passed the same ``deltas``
    object form one group, and calls nested in the group add nothing.
    """
    orig = getattr(owner, attr)
    lid = rec.layer_id(layer)

    @functools.wraps(orig)
    def traced(*args: Any, **kwargs: Any) -> Any:
        before = None
        if deltas and rec.enter_group(id(deltas)):
            before = [getattr(args[0], a) for _, a in deltas]
        idx = rec.open(lid)
        try:
            result = orig(*args, **kwargs)
        finally:
            rec.close(idx)
            if before is not None:
                rec.leave_group(id(deltas))
        if after is not None:
            after(args, result)
        if before is not None:
            for (metric, a), b in zip(deltas, before):
                rec.count(metric, getattr(args[0], a) - b)
        return result

    rec.replace(owner, attr, traced)


class _Steps:
    """Awaitable that times each resume step of a wrapped coroutine."""

    __slots__ = ("_it", "_rec", "_lid", "_on_step")

    def __init__(
        self,
        coro: Any,
        rec: SpanRecorder,
        lid: int,
        on_step: Callable[[], None] | None = None,
    ) -> None:
        self._it = coro.__await__()
        self._rec = rec
        self._lid = lid
        self._on_step = on_step

    def __await__(self) -> "_Steps":
        return self

    def __iter__(self) -> "_Steps":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        if self._on_step is not None:
            self._on_step()
        idx = self._rec.open(self._lid)
        try:
            return self._it.send(value)
        finally:
            self._rec.close(idx)

    def throw(self, *exc: Any) -> Any:
        idx = self._rec.open(self._lid)
        try:
            return self._it.throw(*exc)
        finally:
            self._rec.close(idx)

    def close(self) -> None:
        self._it.close()


def wrap_coroutine(
    rec: SpanRecorder,
    owner: Any,
    attr: str,
    layer: str,
    on_step: Callable[..., Callable[[], None] | None] | None = None,
) -> None:
    """Replace coroutine function ``owner.attr`` with a step-timed one.

    ``on_step(*args)`` may return a callback run before every step.
    """
    orig = getattr(owner, attr)
    lid = rec.layer_id(layer)

    @functools.wraps(orig)
    def traced(*args: Any, **kwargs: Any) -> _Steps:
        hook = on_step(*args) if on_step is not None else None
        return _Steps(orig(*args, **kwargs), rec, lid, hook)

    rec.replace(owner, attr, traced)


# ----------------------------------------------------------------------
# the offline analyzer's layers
# ----------------------------------------------------------------------
def install_offline(rec: SpanRecorder) -> None:
    """Wrap the calls the offline workload makes, layer by layer."""
    from repro.backends import ReachabilityBackend, VectorClockBackend
    from repro.core import evaluator, pairwise
    from repro.core.context import CutCache
    from repro.events import poset, serialization
    from repro.nonatomic.event import NonatomicEvent

    wrap(rec, serialization, "load", "serialization.load_s",
         after=lambda a, r: rec.count("serialization.bytes", os.path.getsize(a[0])))
    wrap(rec, serialization, "loads", "serialization.load_s",
         after=lambda a, r: rec.count("serialization.bytes", len(a[0])))
    wrap(rec, poset, "compute_forward_table", "clocks.forward_s")
    wrap(rec, poset, "compute_reverse_table", "clocks.reverse_s")

    # intervals and their proxies (proxy_of builds each proxy through it)
    wrap(rec, NonatomicEvent, "__init__", "nonatomic.build_s")

    for cls in (VectorClockBackend, ReachabilityBackend):
        wrap(rec, cls, "cut_stats", "backends.cut_stats_s",
             after=lambda a, r: rec.count("backends.cut_stats_calls"))

    hits = (("core.context.cut_hits", "hits"), ("core.context.cut_misses", "misses"))
    for name in ("stats", "family_operands", "cut", "extremal"):
        wrap(rec, CutCache, name, "core.context.fill_s", deltas=hits)

    wrap(rec, evaluator, "verdict_matrix", "core.family.kernel_s",
         after=lambda a, r: rec.count("core.family.pairs", len(a[1])))

    vc_counters = (
        ("core.evaluator.ll_evals", "evals"),
        ("core.evaluator.fills", "fills"),
        ("core.evaluator.cut_pair_evals", "cut_pair_evals"),
    )
    wrap(rec, evaluator.SharedVerdictCache, "fill_pairs", "core.evaluator.self_s",
         deltas=vc_counters)
    for name in ("__init__", "holds", "batch_holds", "all_relations",
                 "strongest", "all_relations_batch", "strongest_batch"):
        wrap(rec, evaluator.SynchronizationAnalyzer, name, "core.evaluator.self_s")

    for name in ("__init__", "relation_matrix", "spec_matrix"):
        wrap(rec, pairwise.IntervalSetMatrices, name, "core.pairwise.self_s")


# ----------------------------------------------------------------------
# the service's layers
# ----------------------------------------------------------------------
def install_service(rec: SpanRecorder) -> None:
    """Wrap the calls one service process makes, layer by layer."""
    from repro.monitor.online import OnlineMonitor
    from repro.service import core, log, protocol, server

    wrap_coroutine(rec, server, "read_frame_async", "service.protocol.decode_s")
    wrap(rec, server, "encode_frame", "service.protocol.encode_s")
    # read_frame_async hands every frame body to _parse_body: the one
    # place that sees the exact byte count
    orig_parse = protocol._parse_body

    def parse_body(body: bytes) -> dict[str, Any]:
        rec.count("service.protocol.bytes_in", len(body))
        return orig_parse(body)

    rec.replace(protocol, "_parse_body", parse_body)

    for kind in ("event", "close", "watch"):
        wrap(rec, core.MonitorCore, f"submit_{kind}", f"service.core.submit_{kind}_s")

    for name in ("send", "recv", "internal"):
        wrap(rec, OnlineMonitor, name, "monitor.online.append_s")
    wrap(rec, OnlineMonitor, "close", "monitor.online.close_s")

    def after_poll(args: tuple, fired: list) -> None:
        rec.count("monitor.online.verdicts", len(fired))
        pending = len(args[0].watch_names()) + len(fired)  # as the poll began
        rec.peak("monitor.online.watches_pending_peak", pending)

    wrap(rec, OnlineMonitor, "poll_watches", "monitor.online.poll_watches_s",
         after=after_poll)

    wrap(rec, log.EventLog, "append", "service.log.append_s",
         after=lambda a, r: rec.count("service.log.records"))
    wrap(rec, log.EventLog, "sync", "service.log.sync_s",
         after=lambda a, r: rec.count("service.log.syncs"))

    wrap_coroutine(rec, server.MonitorService, "_session_loop", "service.server.self_s")

    def writer_hook(service: Any, sess: Any) -> Callable[[], None]:
        return lambda: rec.peak("service.server.push_queue_peak", sess.queue.qsize())

    wrap_coroutine(rec, server.MonitorService, "_writer_loop", "service.server.self_s",
                   on_step=writer_hook)
