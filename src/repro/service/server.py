"""The asyncio front end of the live monitoring service.

:class:`MonitorService` listens on a TCP socket, speaks the
:mod:`~repro.service.protocol` frame protocol, and routes every frame
into a :class:`~repro.service.core.MonitorCore`.  Because the core is
synchronous and the event loop single-threaded, ingest needs no locks;
concurrency lives entirely in the sessions.

Sessions and backpressure
-------------------------
Each connection gets a bounded outbound queue drained by a writer
task.  Two pressure signals protect the service, and neither ever
buffers without bound:

* **ingest pressure** — a session whose *unapplied* backlog (receives
  parked ahead of their sends, closes waiting on their counts) crosses
  ``throttle_at`` is sent one ``throttle`` frame; crossing
  ``disconnect_at`` ends the session with an ``error`` frame.
* **push pressure** — a session too slow to read its verdict pushes
  gets a ``throttle`` frame when its outbound queue crosses the soft
  mark, and is disconnected when the queue fills.

Replication
-----------
A peer connecting with ``hello role="replica"`` receives every log
record from its ``resume_seq`` on as ``replicate`` frames — catch-up
from the in-memory log tail, then live pushes as records append.  A
*standby* service is a ``MonitorService`` constructed with
``primary=(host, port)``: its :meth:`start` tails the primary instead
of listening (retrying an unreachable primary with backoff — loss is
only reported once an established stream dies), and :meth:`promote`
(after primary death) emits the unconfirmed watch remainder and opens
its own listener.

:class:`ServiceHandle` runs a service on a dedicated thread + event
loop for synchronous callers (tests, benchmarks, the CLI client side).
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from collections.abc import Callable, Coroutine
from typing import Any

from .core import EventRejected, MonitorCore
from .log import EventLog
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameTooLargeError,
    ProtocolError,
    encode_frame,
    error_frame,
    read_frame_async,
)

__all__ = ["MonitorService", "ServiceHandle"]


class _Session:
    """One connected peer: its writer task, queue, and pressure state."""

    __slots__ = (
        "sid", "role", "writer", "queue", "task",
        "throttled", "repl_cursor", "closed",
    )

    def __init__(
        self, sid: int, role: str, writer: asyncio.StreamWriter, maxsize: int
    ) -> None:
        self.sid = sid
        self.role = role
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        self.task: asyncio.Task | None = None
        self.throttled = False
        self.repl_cursor = 0
        self.closed = False


class MonitorService:
    """Networked online monitor: sharded ingest, watch pushes, replication.

    Parameters
    ----------
    num_nodes:
        Monitored system width (required unless ``core`` is given).
    host, port:
        Listen address; port 0 picks a free port (see :attr:`address`).
    log_path:
        Durable event-log file; ``None`` keeps records in memory.
    primary:
        ``(host, port)`` of a primary to stand by for.  The service
        starts as a warm standby: it tails the primary's log over the
        wire and does not listen until :meth:`promote`.
    watches:
        ``(name, condition)`` pairs registered at startup.
    throttle_at / disconnect_at:
        Per-session unapplied-backlog soft/hard limits (also the
        outbound queue soft mark / capacity).
    """

    def __init__(
        self,
        num_nodes: int | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        log_path: str | None = None,
        num_shards: int | None = None,
        fsync_every: int = 64,
        throttle_at: int = 256,
        disconnect_at: int = 1024,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        watches: tuple = (),
        primary: tuple[str, int] | None = None,
        core: MonitorCore | None = None,
    ) -> None:
        if core is None:
            if num_nodes is None:
                raise ValueError("need num_nodes (or a prebuilt core)")
            role = "replica" if primary is not None else "primary"
            log = (
                EventLog(log_path, fsync_every=fsync_every)
                if log_path
                else None
            )
            if log is not None and log.records:
                # restart over an existing log: replaying it is the only
                # way the core's handles/intervals/emitted-watch state
                # matches the sequence numbers the log resumes at
                try:
                    core = MonitorCore.from_records(
                        log.records,
                        log=log,
                        role=role,
                        num_shards=num_shards,
                    )
                    if core.num_nodes != num_nodes:
                        raise ValueError(
                            f"log {log_path!r} was recorded for "
                            f"{core.num_nodes} nodes, service asked for "
                            f"{num_nodes}"
                        )
                except BaseException:
                    log.close()
                    raise
            else:
                core = MonitorCore(
                    num_nodes, num_shards=num_shards, log=log, role=role
                )
        self.core = core
        self.host = host
        self.port = port
        self.primary = primary
        self.throttle_at = throttle_at
        self.disconnect_at = disconnect_at
        self.max_frame_bytes = max_frame_bytes
        self._startup_watches = tuple(watches)
        self._server: asyncio.base_events.Server | None = None
        self._sessions: dict[int, _Session] = {}
        self._next_sid = 1
        self._tail_task: asyncio.Task | None = None
        self._session_ended: asyncio.Event | None = None
        self._sync_lock = asyncio.Lock()
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound listen address (valid once listening)."""
        if self._server is None:
            raise RuntimeError("service is not listening")
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        return (addr[0], addr[1])

    async def start(self) -> None:
        """Start serving (primary) or tailing the primary (standby)."""
        self._session_ended = asyncio.Event()
        for name, cond in self._startup_watches:
            if self.core.has_watch(name):
                continue  # already registered in the resumed log
            self.core.submit_watch(name, cond)
        await self._flush_log()
        if self.primary is not None:
            self._tail_task = asyncio.ensure_future(self._tail_primary())
            return
        # a core rebuilt from a log may hold verdicts that fired during
        # replay but were never durably emitted (the old primary died
        # between a close and its verdict record); emit them before any
        # client connects so the log regains its exactly-once invariant
        for verdict in self.core.promote():
            self._broadcast_verdict(verdict)
        await self._flush_log()
        await self._listen()

    async def _listen(self) -> None:
        server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        try:
            self._server = server
        except BaseException:  # pragma: no cover - publication cannot fail
            server.close()
            raise

    async def wait_primary_loss(self) -> None:
        """Block until the replication tail to the primary ends (the
        primary died or closed); standby mode only."""
        if self._tail_task is None:
            raise RuntimeError("not tailing a primary")
        await asyncio.shield(self._tail_task)

    async def promote(self) -> list[dict[str, Any]]:
        """Standby → primary: emit the unconfirmed watch remainder and
        start listening.  Returns the verdicts emitted."""
        if self._tail_task is not None:
            self._tail_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._tail_task
            self._tail_task = None
        self.primary = None
        verdicts = self.core.promote()
        for verdict in verdicts:
            self._broadcast_verdict(verdict)
        await self._flush_log()
        if self._server is None:
            await self._listen()
        return verdicts

    async def stop(self) -> None:
        """Close the listener and every session; sync the log."""
        self._stopped = True
        if self._tail_task is not None:
            self._tail_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._tail_task
            self._tail_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for sess in list(self._sessions.values()):
            await self._end_session(sess)
        # the final sync+close blocks on the disk, like every fsync:
        # hand it to a worker thread rather than stalling the loop
        await asyncio.get_running_loop().run_in_executor(
            None, self.core.close_log
        )

    async def wait_session_end(self) -> None:
        """Block until some client session ends (``--oneshot`` serving)."""
        assert self._session_ended is not None
        await self._session_ended.wait()

    # ------------------------------------------------------------------
    # session plumbing
    # ------------------------------------------------------------------
    def _cut_session(self, sess: _Session, frame: dict[str, Any] | None) -> None:
        """Terminate a session from the push side without assuming the
        outbound queue has capacity: the parting ``error`` frame and the
        writer sentinel are enqueued only if they fit; a queue too full
        even for the sentinel gets its writer task cancelled instead
        (the writer's ``finally`` closes the transport either way)."""
        if sess.closed:
            return
        sess.closed = True
        if frame is not None:
            with contextlib.suppress(asyncio.QueueFull):
                sess.queue.put_nowait(frame)
        try:
            sess.queue.put_nowait(None)  # writer task: drain and close
        except asyncio.QueueFull:
            if sess.task is not None:
                sess.task.cancel()

    def _push(self, sess: _Session, frame: dict[str, Any]) -> None:
        """Enqueue one outbound frame, applying push-pressure rules."""
        if sess.closed:
            return
        depth = sess.queue.qsize()
        if depth >= self.disconnect_at - 1:
            # the peer has stopped reading: cut it off rather than buffer
            self._cut_session(
                sess, error_frame("slow-consumer", "outbound queue overflow")
            )
            return
        if depth >= self.throttle_at and not sess.throttled:
            sess.throttled = True
            self.core.note_throttle()
            sess.queue.put_nowait(
                {"type": "throttle", "queued": depth, "limit": self.disconnect_at}
            )
        elif depth < self.throttle_at // 2:
            sess.throttled = False
        sess.queue.put_nowait(frame)

    def _broadcast_verdict(self, verdict: dict[str, Any]) -> None:
        frame = {
            "type": "verdict",
            "watch_seq": verdict["watch_seq"],
            "name": verdict["name"],
            "passed": verdict["passed"],
            "decided_at": verdict["decided_at"],
        }
        for sess in self._sessions.values():
            if sess.role == "client":
                self._push(sess, frame)

    def _flush_replication(self) -> None:
        """Push newly appended log records to every replica session."""
        for sess in self._sessions.values():
            if sess.role != "replica":
                continue
            for rec in self.core.records_from(sess.repl_cursor):
                self._push(sess, {"type": "replicate", "record": rec})
                sess.repl_cursor = rec["seq"]

    def _after_mutation(self, verdicts: list[dict[str, Any]]) -> None:
        for verdict in verdicts:
            self._broadcast_verdict(verdict)
        # events of other sessions the pump refused: terminal for them,
        # as a refused op of their own is
        for sid, message in self.core.take_rejections():
            other = self._sessions.get(sid) if sid is not None else None
            if other is not None:
                self._cut_session(other, error_frame("rejected", message))
        self._flush_replication()

    async def _flush_log(self) -> None:
        """Durability batching, off the loop: when the log has a full
        unsynced batch, run its fsync in a worker thread.

        The lock dedups concurrent sessions — one flusher syncs for
        everyone, late arrivals re-check and find the batch drained.
        Appends themselves never sync (see ``EventLog.append``), so no
        coroutine ever reaches ``os.fsync`` on the loop thread; this is
        the pattern REP007 enforces project-wide.
        """
        if not self.core.log_needs_sync:
            return
        async with self._sync_lock:
            if not self.core.log_needs_sync:
                return
            await asyncio.get_running_loop().run_in_executor(
                None, self.core.flush_log
            )

    async def _writer_loop(self, sess: _Session) -> None:
        try:
            while True:
                frame = await sess.queue.get()
                if frame is None:
                    break
                sess.writer.write(encode_frame(frame))
                await sess.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            sess.closed = True
            sess.writer.close()
            with contextlib.suppress(Exception):
                await sess.writer.wait_closed()

    async def _end_session(self, sess: _Session) -> None:
        sess.closed = True
        self._sessions.pop(sess.sid, None)
        self.core.session_gone(sess.sid)
        if sess.task is not None and not sess.task.done():
            try:
                sess.queue.put_nowait(None)
            except asyncio.QueueFull:
                sess.task.cancel()
            with contextlib.suppress(Exception):
                await asyncio.wait_for(sess.task, timeout=1.0)
        if sess.role == "client" and self._session_ended is not None:
            self._session_ended.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sess: _Session | None = None
        try:
            hello = await read_frame_async(reader, self.max_frame_bytes)
            if hello is None:
                return
            if hello.get("type") != "hello":
                writer.write(encode_frame(
                    error_frame("bad-hello", "first frame must be hello")
                ))
                await writer.drain()
                return
            if hello.get("version") != PROTOCOL_VERSION:
                writer.write(encode_frame(error_frame(
                    "version",
                    f"server speaks protocol {PROTOCOL_VERSION}, "
                    f"client sent {hello.get('version')!r}",
                )))
                await writer.drain()
                return
            peer_nodes = hello.get("num_nodes")
            if peer_nodes is not None and peer_nodes != self.core.num_nodes:
                writer.write(encode_frame(error_frame(
                    "num-nodes",
                    f"service monitors {self.core.num_nodes} nodes, "
                    f"client expects {peer_nodes}",
                )))
                await writer.drain()
                return
            role = hello.get("role", "client")
            if role not in ("client", "replica"):
                writer.write(encode_frame(
                    error_frame("role", f"unknown role: {role!r}")
                ))
                await writer.drain()
                return
            sid = self._next_sid
            self._next_sid += 1
            sess = _Session(sid, role, writer, maxsize=self.disconnect_at)
            self._sessions[sid] = sess
            sess.task = asyncio.ensure_future(self._writer_loop(sess))
            self._push(sess, {
                "type": "welcome",
                "version": PROTOCOL_VERSION,
                "session": sid,
                "num_nodes": self.core.num_nodes,
                "role": role,
            })
            if role == "replica":
                sess.repl_cursor = int(hello.get("resume_seq", 0))
                self._flush_replication()
            await self._session_loop(reader, sess)
        except (ProtocolError, FrameTooLargeError) as exc:
            if sess is not None and not sess.closed:
                self._push(sess, error_frame("protocol", str(exc)))
            else:
                with contextlib.suppress(Exception):
                    writer.write(encode_frame(error_frame("protocol", str(exc))))
                    await writer.drain()
        except ConnectionError:
            pass
        finally:
            if sess is not None:
                await self._end_session(sess)
            else:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

    async def _session_loop(
        self, reader: asyncio.StreamReader, sess: _Session
    ) -> None:
        while not sess.closed and not self._stopped:
            frame = await read_frame_async(reader, self.max_frame_bytes)
            if frame is None:
                return
            ftype = frame.get("type")
            try:
                if ftype == "event":
                    verdicts = self.core.submit_event(frame, session=sess.sid)
                    self._after_mutation(verdicts)
                    self._check_ingest_pressure(sess, frame)
                elif ftype == "close":
                    verdicts = self.core.submit_close(
                        frame.get("interval"),
                        frame.get("expected"),
                        session=sess.sid,
                    )
                    self._after_mutation(verdicts)
                    self._check_ingest_pressure(sess, frame)
                elif ftype == "watch":
                    verdicts = self.core.submit_watch(
                        frame.get("name"),
                        frame.get("condition"),
                        session=sess.sid,
                    )
                    self._after_mutation(verdicts)
                elif ftype == "stats":
                    stats = self.core.stats()
                    stats["sessions"] = len(self._sessions)
                    self._push(sess, {"type": "stats", "stats": stats})
                elif ftype == "bye":
                    self._push(sess, {"type": "bye"})
                    return
                else:
                    self._push(
                        sess,
                        error_frame("bad-frame", f"unknown frame type {ftype!r}"),
                    )
                    return
            except EventRejected as exc:
                # this session's own event was refused when its turn
                # came; the verdicts its pump fired still go out
                self._after_mutation(exc.verdicts)
                self._push(sess, error_frame("rejected", str(exc)))
                return
            except ValueError as exc:
                # core rejected the op (validation, parse, unknown names):
                # terminal for the session, reported before the close
                self._push(sess, error_frame("rejected", str(exc)))
                return
            await self._flush_log()

    def _check_ingest_pressure(self, sess: _Session, frame: dict) -> None:
        backlog = self.core.pending(sess.sid)
        if backlog > self.disconnect_at:
            self._cut_session(sess, error_frame(
                "backlog",
                f"unapplied backlog {backlog} exceeds {self.disconnect_at}; "
                "stream causally (sends before their receives)",
            ))
        elif backlog > self.throttle_at and not sess.throttled:
            sess.throttled = True
            self.core.note_throttle(frame.get("node"))
            self._push(sess, {
                "type": "throttle",
                "queued": backlog,
                "limit": self.disconnect_at,
            })
        elif backlog <= self.throttle_at // 2:
            sess.throttled = False

    # ------------------------------------------------------------------
    # replication tailing (standby side)
    # ------------------------------------------------------------------
    async def _tail_primary(self) -> None:
        """Replicate from the primary; returns only once an *established*
        stream is lost.  A primary that is unreachable (not up yet,
        refused, transient network error) or that vanishes mid-handshake
        is retried with backoff — :meth:`wait_primary_loss` resolving
        means replication genuinely ran and then died, never that a
        standby simply started first."""
        assert self.primary is not None
        host, port = self.primary
        backoff = 0.05
        while True:
            established = False
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 2.0)
                continue
            try:
                writer.write(encode_frame({
                    "type": "hello",
                    "version": PROTOCOL_VERSION,
                    "role": "replica",
                    "num_nodes": self.core.num_nodes,
                    "resume_seq": self.core.last_seq,
                }))
                await writer.drain()
                welcome = await read_frame_async(reader, self.max_frame_bytes)
                if welcome is not None:
                    if welcome.get("type") != "welcome":
                        # an explicit rejection (version/num-nodes/role
                        # mismatch) is terminal misconfiguration, not a
                        # transient outage: propagate rather than retry
                        raise ProtocolError(
                            f"primary rejected replication: {welcome!r}"
                        )
                    established = True
                    backoff = 0.05
                    while True:
                        frame = await read_frame_async(
                            reader, self.max_frame_bytes
                        )
                        if frame is None:
                            return  # stream lost; promotion may proceed
                        if frame.get("type") == "replicate":
                            self.core.apply_record(frame["record"])
                            await self._flush_log()
                        elif frame.get("type") == "error":
                            raise ProtocolError(
                                f"primary error: {frame.get('message')}"
                            )
            except ConnectionError:
                if established:
                    return  # stream lost; promotion may proceed
                # connection died mid-handshake: treat as unreachable
            finally:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2, 2.0)


class ServiceHandle:
    """Run a :class:`MonitorService` on its own thread and event loop.

    Synchronous callers (pytest, benchmarks, a second process's CLI
    glue) construct the service *inside* the loop thread via the
    factory, then drive it through thread-safe calls::

        handle = ServiceHandle(lambda: MonitorService(num_nodes=4))
        handle.start()
        host, port = handle.address
        ...
        handle.stop()
    """

    def __init__(self, factory: Callable[[], MonitorService]) -> None:
        self._factory = factory
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop_evt: asyncio.Event | None = None
        self.service: MonitorService | None = None
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 10.0) -> "ServiceHandle":
        """Start the loop thread and the service; returns self."""
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_evt = asyncio.Event()
        try:
            self.service = self._factory()
            await self.service.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_evt.wait()
        await self.service.stop()

    @property
    def address(self) -> tuple[str, int]:
        """The service's listen address."""
        assert self.service is not None
        return self.service.address

    def call(
        self,
        coro_factory: Callable[[MonitorService], Coroutine[Any, Any, Any]],
        timeout: float = 10.0,
    ) -> Any:
        """Run ``coro_factory(service)`` on the service's loop."""
        assert self._loop is not None and self.service is not None
        fut = asyncio.run_coroutine_threadsafe(
            coro_factory(self.service), self._loop
        )
        return fut.result(timeout)

    def stats(self) -> dict[str, Any]:
        """Thread-safe core counters snapshot."""
        async def _get(service: MonitorService) -> dict[str, Any]:
            return service.core.stats()

        return self.call(_get)

    def promote(self) -> list[dict[str, Any]]:
        """Thread-safe standby promotion."""
        async def _promote(service: MonitorService) -> list[dict[str, Any]]:
            return await service.promote()

        return self.call(_promote)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the service and join the loop thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_evt is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_evt.set)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ServiceHandle":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
