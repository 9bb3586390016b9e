"""Worker process lifecycle: spawn, monitor, revive, eject.

Two layers live here.  :class:`WorkerHandle` owns exactly one child
process and its plumbing — the ``socketpair`` carrying
:mod:`.protocol` frames, a writer thread (the only place that touches
``sendall``, so no request thread ever blocks on IPC while holding a
lock), a reader thread resolving per-request futures, and the
*sentinel pipe*: the child inherits the write end and never writes;
the parent polls the read end, and EOF is a death certificate no
signal can forge or suppress — SIGKILL included.

Callers encode their frames on their own thread
(:meth:`WorkerHandle.submit`) and queue the bytes.  The writer
coalesces: it blocks for one frame, drains everything already queued
behind it and sends the lot with one ``sendall``, so a burst of
requests reaches the worker as one write — which the worker, draining
its socket the same way, serves as one fused batch.  The reader reads
replies through a buffered :class:`~.protocol.FrameReader`, so a
drain's worth of replies costs one ``recv``.

:class:`ProcSupervisor` owns the fleet: it sweeps request deadlines,
sends heartbeat pings (a live-but-wedged worker misses enough pongs
to be killed and treated as dead), refreshes per-worker counter
snapshots for the parent metrics registry, and runs the
revive-vs-eject policy — a dead worker is respawned and re-synced up
to ``max_revives`` times, then permanently ejected from routing.  The
state machine per worker::

    spawned ──hello──▶ up ──sentinel EOF / missed pongs──▶ dead
       ▲                                                    │
       └────────── revive (revives < max_revives) ──────────┤
                                                            ▼
                                                         ejected
"""

from __future__ import annotations

import itertools
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from queue import Empty, Queue
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ...errors import (
    ProtocolError,
    ReproError,
    WorkerDiedError,
    WorkerTimeoutError,
)
from ...obs.lockwatch import make_lock
from . import protocol


@dataclass
class ProcConfig:
    """Tunables for the process tier (service knobs + supervision)."""

    #: Service construction knobs forwarded verbatim to each worker.
    service: Dict[str, object] = field(default_factory=dict)
    #: Spool directory workers warm-boot from (None → cold boot).
    checkpoint_dir: Optional[str] = None
    #: Per-request deadline (estimate/feedback/counters RPCs).
    request_timeout_s: float = 30.0
    #: How long a fresh worker may take to say hello.
    boot_timeout_s: float = 60.0
    #: Deadline for installing a published state in a worker.
    sync_timeout_s: float = 60.0
    #: Heartbeat ping cadence.
    heartbeat_interval_s: float = 1.0
    #: Missed-pong budget before a live pid is declared hung.
    heartbeat_miss_limit: int = 5
    #: Times a dead worker is respawned before permanent ejection.
    max_revives: int = 2
    #: Monitor loop tick.
    poll_interval_s: float = 0.05
    #: Counter-snapshot refresh cadence (parent metrics folding).
    counters_interval_s: float = 1.0


class _Pending:
    """One in-flight request: its future, deadline and kind."""

    __slots__ = ("future", "deadline", "kind")

    def __init__(self, future: Future, deadline: float, kind: str):
        self.future = future
        self.deadline = deadline
        self.kind = kind


def _worker_env() -> Dict[str, str]:
    """The child environment, with ``repro``'s source root guaranteed
    on ``PYTHONPATH`` (the child is a fresh interpreter)."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    parts = [src_root] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


class WorkerHandle:
    """One worker process plus its IPC plumbing and pending table."""

    def __init__(self, worker_id: str, config: ProcConfig):
        """Prepare a handle for *worker_id* (call :meth:`spawn` next)."""
        self.worker_id = worker_id
        self.config = config
        self.proc: Optional[subprocess.Popen] = None
        self.sock: Optional[socket.socket] = None
        self.sentinel_fd: int = -1
        self.state = "new"
        self.revives = 0
        self.last_pong = 0.0
        self.cached_counters: Dict[str, object] = {}
        self._pending: Dict[int, _Pending] = {}
        self._lock = make_lock("cluster.proc.handle")
        self._ids = itertools.count(1)
        self._sendq: "Queue[Optional[bytes]]" = Queue()
        self._reader: Optional[threading.Thread] = None
        self._writer: Optional[threading.Thread] = None
        self._hello: Future = Future()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def spawn(self) -> Dict[str, object]:
        """Start the child and wait for its hello frame.

        Returns the hello header.  Raises
        :class:`~repro.errors.WorkerDiedError` when the child dies (or
        stays silent) before greeting.
        """
        parent_sock, child_sock = socket.socketpair()
        sentinel_r, sentinel_w = os.pipe()
        os.set_inheritable(child_sock.fileno(), True)
        os.set_inheritable(sentinel_w, True)
        worker_cfg = dict(self.config.service)
        worker_cfg["worker_id"] = self.worker_id
        if self.config.checkpoint_dir:
            worker_cfg["checkpoint_dir"] = self.config.checkpoint_dir
        cmd = [
            sys.executable,
            "-m",
            "repro.cluster.proc.worker",
            "--conn-fd",
            str(child_sock.fileno()),
            "--sentinel-fd",
            str(sentinel_w),
            "--config",
            json.dumps(worker_cfg),
        ]
        try:
            self.proc = subprocess.Popen(
                cmd,
                pass_fds=(child_sock.fileno(), sentinel_w),
                env=_worker_env(),
                stdout=subprocess.DEVNULL,
                close_fds=True,
            )
        except OSError as exc:
            os.close(sentinel_r)
            os.close(sentinel_w)
            child_sock.close()
            parent_sock.close()
            raise WorkerDiedError(
                f"cannot spawn worker {self.worker_id}: {exc}"
            ) from exc
        child_sock.close()
        os.close(sentinel_w)
        self.sock = parent_sock
        self.sentinel_fd = sentinel_r
        self.state = "spawned"
        self._hello = Future()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"proc-read-{self.worker_id}",
            daemon=True,
        )
        self._writer = threading.Thread(
            target=self._write_loop, name=f"proc-write-{self.worker_id}",
            daemon=True,
        )
        self._reader.start()
        self._writer.start()
        try:
            hello = self._hello.result(timeout=self.config.boot_timeout_s)
        except (FutureTimeoutError, ReproError) as exc:
            self.kill()
            raise WorkerDiedError(
                f"worker {self.worker_id} never said hello: {exc}"
            ) from exc
        self.state = "up"
        self.last_pong = time.monotonic()
        return hello

    @property
    def pid(self) -> Optional[int]:
        """The child's pid (None before spawn)."""
        return self.proc.pid if self.proc is not None else None

    @property
    def alive(self) -> bool:
        """True while the handle routes requests."""
        return self.state == "up"

    def kill(self) -> None:
        """SIGKILL the child (idempotent; reaping happens in
        :meth:`mark_dead`)."""
        if self.proc is not None and self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass

    def request_stop(self, timeout_s: float = 5.0) -> None:
        """Graceful retirement: shutdown frame, then escalate to kill."""
        if self.state == "up":
            try:
                self.rpc("shutdown", {}, timeout_s=timeout_s)
            except ReproError:
                pass  # already dying; the kill below settles it
        self.mark_dead(WorkerDiedError("worker retired"), kill=True)

    def mark_dead(self, exc: ReproError, kill: bool = False) -> None:
        """Tear down plumbing, fail every pending future with *exc*."""
        if self.state == "dead":
            return
        self.state = "dead"
        if kill:
            self.kill()
        self._sendq.put(None)
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        if self.sentinel_fd >= 0:
            try:
                os.close(self.sentinel_fd)
            except OSError:
                pass
            self.sentinel_fd = -1
        if self.proc is not None:
            self.kill()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        self._fail_pending(exc)
        if not self._hello.done():
            self._hello.set_exception(exc)

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        payload: Dict[str, object],
        tail: bytes = b"",
        timeout_s: Optional[float] = None,
    ) -> Future:
        """Queue one request frame; the returned future resolves to
        ``(header, tail)`` or raises the typed error.  A frame that
        cannot be encoded raises :class:`~repro.errors.ProtocolError`
        here, before anything is queued."""
        if self.state != "up":
            raise WorkerDiedError(
                f"worker {self.worker_id} is {self.state}, not serving"
            )
        timeout = (
            self.config.request_timeout_s if timeout_s is None else timeout_s
        )
        request_id = next(self._ids)
        # Encode before registering: a frame that cannot be encoded
        # raises ProtocolError and leaves no pending entry behind.
        frame = protocol.encode_frame(
            {"id": request_id, "kind": kind, **payload}, tail
        )
        future: Future = Future()
        with self._lock:
            self._pending[request_id] = _Pending(
                future, time.monotonic() + timeout, kind
            )
        self._sendq.put(frame)
        return future

    def rpc(
        self,
        kind: str,
        payload: Dict[str, object],
        tail: bytes = b"",
        timeout_s: Optional[float] = None,
    ) -> Tuple[Dict[str, object], bytes]:
        """Blocking :meth:`submit`; timeouts surface as
        :class:`~repro.errors.WorkerTimeoutError`."""
        timeout = (
            self.config.request_timeout_s if timeout_s is None else timeout_s
        )
        future = self.submit(kind, payload, tail, timeout_s=timeout)
        return self.await_reply(future, kind, timeout)

    def await_reply(
        self, future: Future, kind: str, timeout: float
    ) -> Tuple[Dict[str, object], bytes]:
        """The reply to a :meth:`submit` of *kind* with deadline
        *timeout*; a reply that never comes surfaces as
        :class:`~repro.errors.WorkerTimeoutError`."""
        try:
            return future.result(timeout=timeout + 1.0)
        except FutureTimeoutError as exc:
            raise WorkerTimeoutError(
                f"worker {self.worker_id} gave no answer to {kind!r} "
                f"within {timeout:.1f}s"
            ) from exc

    def sweep_deadlines(self, now: float) -> int:
        """Fail overdue pending requests; returns how many expired."""
        expired: List[Tuple[int, _Pending]] = []
        with self._lock:
            for request_id, entry in list(self._pending.items()):
                if now >= entry.deadline:
                    expired.append((request_id, entry))
                    del self._pending[request_id]
        for request_id, entry in expired:
            if not entry.future.done():
                entry.future.set_exception(
                    WorkerTimeoutError(
                        f"worker {self.worker_id} exceeded the "
                        f"{entry.kind!r} deadline"
                    )
                )
        return len(expired)

    def pending_count(self) -> int:
        """How many requests are currently awaiting replies."""
        with self._lock:
            return len(self._pending)

    def _fail_pending(self, exc: ReproError) -> None:
        """Resolve every pending future exceptionally with *exc*."""
        with self._lock:
            entries = list(self._pending.values())
            self._pending.clear()
        for entry in entries:
            if not entry.future.done():
                entry.future.set_exception(exc)

    # ------------------------------------------------------------------
    # I/O threads
    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        """Resolve futures from reply frames until the stream dies."""
        reader = protocol.FrameReader(self.sock)
        while True:
            try:
                frame = reader.recv_frame()
            except ReproError as exc:
                self._on_stream_error(exc)
                return
            if frame is None:
                self._on_stream_error(
                    WorkerDiedError(f"worker {self.worker_id} closed its pipe")
                )
                return
            header, tail = frame
            kind = header.get("kind")
            if kind == "hello":
                if not self._hello.done():
                    self._hello.set_result(header)
                continue
            request_id = int(header["id"])
            with self._lock:
                entry = self._pending.pop(request_id, None)
            if entry is None:
                continue  # deadline sweeper got there first
            if entry.future.done():
                continue
            if kind == "error":
                entry.future.set_exception(
                    protocol.error_from_wire(header.get("error"))
                )
            else:
                entry.future.set_result((header, tail))

    def _on_stream_error(self, exc: ReproError) -> None:
        """Reader-side death: fail pending, leave teardown to the
        supervisor (which sees the sentinel EOF)."""
        if self.state == "up":
            self.state = "broken"
        self._fail_pending(
            exc
            if isinstance(exc, (WorkerDiedError, ProtocolError))
            else WorkerDiedError(str(exc))
        )
        if not self._hello.done():
            self._hello.set_exception(exc)

    def _write_loop(self) -> None:
        """The only writer: block for one frame, drain every frame
        already queued behind it, and send them with one ``sendall``.
        Frames queued before the ``None`` stop sentinel still go out."""
        while True:
            frames = [self._sendq.get()]
            while frames[-1] is not None:
                try:
                    frames.append(self._sendq.get_nowait())
                except Empty:
                    break
            stop = frames[-1] is None
            if stop:
                frames.pop()
            if frames:
                sock = self.sock
                if sock is None:
                    return
                try:
                    protocol.send_frames(sock, frames)
                except WorkerDiedError as exc:
                    self._on_stream_error(
                        WorkerDiedError(
                            f"worker {self.worker_id} send failed: {exc}"
                        )
                    )
                    return
            if stop:
                return


class ProcSupervisor:
    """Fleet monitor: death detection, heartbeats, revive-vs-eject."""

    def __init__(
        self,
        config: ProcConfig,
        on_death: Callable[[WorkerHandle, str], None],
        on_revived: Callable[[WorkerHandle], None],
        on_ejected: Callable[[WorkerHandle], None],
    ):
        """Wire the policy callbacks (all invoked on the monitor
        thread): *on_death* fires first with a reason, then exactly one
        of *on_revived* / *on_ejected*."""
        self.config = config
        self.handles: Dict[str, WorkerHandle] = {}
        self._on_death = on_death
        self._on_revived = on_revived
        self._on_ejected = on_ejected
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_heartbeat = 0.0
        self._last_counters = 0.0
        self.deaths = 0
        self.revive_count = 0
        self.ejections = 0
        self.timeouts_swept = 0

    # ------------------------------------------------------------------
    def adopt(self, handle: WorkerHandle) -> None:
        """Begin monitoring *handle* (already spawned and up)."""
        self.handles[handle.worker_id] = handle
        if handle.sentinel_fd >= 0:
            self._selector.register(
                handle.sentinel_fd, selectors.EVENT_READ, handle.worker_id
            )

    def start(self) -> None:
        """Start the monitor thread."""
        self._thread = threading.Thread(
            target=self._run, name="proc-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop monitoring (workers themselves are the service's to
        retire)."""
        self._stop.set()
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        try:
            self._selector.close()
        except (OSError, RuntimeError):
            pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def _run(self) -> None:
        """Monitor loop: sentinels, deadlines, heartbeats, counters."""
        while not self._stop.is_set():
            events = self._selector.select(timeout=self.config.poll_interval_s)
            dead: List[str] = []
            for key, _mask in events:
                if key.fd == self._wake_r:
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:
                        pass
                    continue
                if key.data is not None:
                    dead.append(key.data)
            for worker_id in dead:
                self._handle_death(worker_id, "sentinel EOF")
            if self._stop.is_set():
                return
            now = time.monotonic()
            for handle in list(self.handles.values()):
                self.timeouts_swept += handle.sweep_deadlines(now)
            if now - self._last_heartbeat >= self.config.heartbeat_interval_s:
                self._last_heartbeat = now
                self._heartbeat(now)
            if now - self._last_counters >= self.config.counters_interval_s:
                self._last_counters = now
                self._refresh_counters()

    def _heartbeat(self, now: float) -> None:
        """Ping every live worker; kill the ones that stopped ponging."""
        budget = (
            self.config.heartbeat_interval_s * self.config.heartbeat_miss_limit
        )
        for handle in list(self.handles.values()):
            if handle.state == "broken":
                self._handle_death(handle.worker_id, "stream broken")
                continue
            if not handle.alive:
                continue
            if now - handle.last_pong > budget:
                # A pid that exists but won't answer is operationally
                # dead: kill it so the sentinel certifies the death.
                handle.kill()
                self._handle_death(handle.worker_id, "heartbeat missed")
                continue
            try:
                future = handle.submit(
                    "ping", {}, timeout_s=self.config.heartbeat_interval_s
                )
            except ReproError:
                continue  # death path will run via sentinel

            def _pong(fut: Future, handle=handle) -> None:
                if fut.exception() is None:
                    handle.last_pong = time.monotonic()

            future.add_done_callback(_pong)

    def _refresh_counters(self) -> None:
        """Async counter pulls; snapshots land in ``cached_counters``."""
        for handle in list(self.handles.values()):
            if not handle.alive:
                continue
            try:
                future = handle.submit("counters", {})
            except ReproError:
                continue

            def _store(fut: Future, handle=handle) -> None:
                if fut.exception() is None:
                    header, _tail = fut.result()
                    value = header.get("value")
                    if isinstance(value, dict):
                        handle.cached_counters = value

            future.add_done_callback(_store)

    def _handle_death(self, worker_id: str, reason: str) -> None:
        """The revive-vs-eject policy for one certified death."""
        handle = self.handles.get(worker_id)
        if handle is None:
            return
        if handle.sentinel_fd >= 0:
            try:
                self._selector.unregister(handle.sentinel_fd)
            except (KeyError, ValueError, OSError):
                pass
        handle.mark_dead(
            WorkerDiedError(f"worker {worker_id} died ({reason})")
        )
        self.deaths += 1
        self._on_death(handle, reason)
        if self._stop.is_set():
            return
        if handle.revives >= self.config.max_revives:
            handle.state = "ejected"
            self.ejections += 1
            self._on_ejected(handle)
            return
        replacement = WorkerHandle(worker_id, self.config)
        replacement.revives = handle.revives + 1
        try:
            replacement.spawn()
        except ReproError:
            replacement.state = "ejected"
            self.handles[worker_id] = replacement
            self.ejections += 1
            self._on_ejected(replacement)
            return
        self.handles[worker_id] = replacement
        if replacement.sentinel_fd >= 0:
            self._selector.register(
                replacement.sentinel_fd, selectors.EVENT_READ, worker_id
            )
        self.revive_count += 1
        self._on_revived(replacement)

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, object]:
        """Supervision counters for the parent metrics registry."""
        return {
            "workers": len(self.handles),
            "alive": sum(1 for h in self.handles.values() if h.alive),
            "deaths": self.deaths,
            "revives": self.revive_count,
            "ejections": self.ejections,
            "timeouts_swept": self.timeouts_swept,
        }
