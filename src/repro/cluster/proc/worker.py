"""The worker process: one ``CostService`` behind an IPC socket.

Launched by the supervisor as ``python -m repro.cluster.proc.worker``
with three pieces of argv state:

- ``--conn-fd`` — the worker end of a ``socketpair`` (inherited fd)
  carrying the frame protocol of :mod:`.protocol`;
- ``--sentinel-fd`` — the write end of a pipe the worker merely holds
  open; the parent polls the read end and sees EOF the instant this
  process dies, however it dies (the classic sentinel-fd trick —
  SIGKILL cannot dodge fd cleanup);
- ``--config`` — a JSON :class:`dict` ``{"worker_id": ..., "service":
  {...}}``; the ``service`` knobs are the ``CostService`` keywords.

Boot sequence: build an empty service → send a ``hello`` frame (its
header is just ``{"id": 0, "kind": "hello"}``: the parent knows the
pid from ``Popen``) → serve frames until EOF or a ``shutdown`` frame.
State arrives only in ``sync`` frames, whose tail is a checkpoint
image: the worker installs it with
:func:`~repro.persist.decode_checkpoint` and
:func:`~repro.persist.restore_service`, the decode that loads a
checkpoint file, and skips an image older than the one it serves.

The loop is single-threaded on purpose (a worker process is one CPU
lane) and drains then batches: one blocking read, then every frame
already buffered, up to the service's ``batch_max``.  Each run of
consecutive ``estimate`` frames is served by one
:meth:`~repro.serving.CostService.estimate_batch` — one fused predict
for the whole run — and every other frame by its handler.  Replies go
out in request order, all of a drain's in one write.  A plan-carrying
frame's tail is a :func:`~.protocol.encode_request` blob, split by
:func:`~.protocol.split_request`: each plan reaches the service as an
:class:`~repro.engine.plan_codec.EncodedPlan`, keyed in the feature
cache by its bytes and decoded only on a miss (``plans_decoded`` in
the counters says how often).  Each distinct env section is decoded
once per drain.

Every request is answered — with a ``result`` frame, or with a typed
``error`` frame naming a ``repro.errors`` class.  In an estimate run,
an error preparing one request (an unknown bundle, a bad plan)
fails only that request; an error in the shared predict fails every
request of the run, as a micro-batcher flush does.  A framing
violation from the parent is unrecoverable by definition (the stream
is out of sync), so the worker answers the frames it read before it,
replies with a best-effort protocol error and exits; the parent's
sentinel sees the death and handles it like any other crash.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import socket
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...engine.environment import DatabaseEnvironment
from ...errors import ProtocolError, ReproError, ServingError
from ...obs import MetricsRegistry
from ...persist import decode_checkpoint, restore_service
from ...serving.service import CostService
from ...serving.snapshot_store import SnapshotStore
from . import protocol


class WorkerRuntime:
    """Per-process serving state: the service plus IPC bookkeeping."""

    def __init__(self, config: Dict[str, object]):
        """Build the service from *config* (no I/O yet)."""
        self.worker_id = str(config.get("worker_id", "?"))
        self.metrics = MetricsRegistry()
        self.service = CostService(
            snapshot_store=SnapshotStore(),
            metrics=self.metrics,
            tracer=None,
            **config.get("service", {}),
        )
        self.started = time.monotonic()
        self.requests = 0
        self.errors = 0
        #: Plans whose tree was decoded from a request blob (a repeated
        #: plan hits the feature cache and is never decoded).
        self.plans_decoded = 0
        self.sync_generation = -1

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------
    def handle(
        self, header: Dict[str, object], tail: bytes
    ) -> Tuple[Dict[str, object], bytes]:
        """Dispatch one request frame; returns the reply frame parts."""
        kind = str(header["kind"])
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            raise ProtocolError(f"unknown request kind {kind!r}")
        return handler(header, tail)

    def _on_delay(self, header, tail):
        """Fault-injection hook: occupy the worker for ``seconds`` so
        tests can SIGKILL it mid-flight or exercise timeouts."""
        time.sleep(float(header.get("seconds", 0.0)))
        return {"value": "delayed"}, b""

    def _on_sync(self, header, tail):
        """Install a full service state published by the parent: the
        tail is a checkpoint image, the header carries its generation.

        The image is verified and decoded exactly as a checkpoint file
        is, each array copied once from the tail.  A damaged image
        raises before anything is installed, so the worker keeps
        serving its previous state.  A generation older than the
        installed one is acknowledged but not installed: concurrent
        deploys can deliver their syncs out of order.
        """
        generation = header.get("generation")
        if not isinstance(generation, int):
            raise ProtocolError("sync payload lacks an integer 'generation'")
        if generation >= self.sync_generation:
            state, _ = decode_checkpoint(tail, f"sync generation {generation}")
            restore_service(self.service, state)
            self.sync_generation = generation
        return {
            "value": "synced",
            "generation": self.sync_generation,
            "bundles": self.service.registry.names(),
        }, b""

    def serve_estimates(
        self, frames: List[Tuple[Dict[str, object], bytes]]
    ) -> List[object]:
        """A run of ``estimate`` frames through one
        :meth:`~repro.serving.CostService.estimate_batch`; one outcome
        per frame, in order (an estimate or a typed error — a frame
        whose payload does not decode fails alone)."""
        outcomes: List[object] = []
        requests: List[Tuple[object, ...]] = []
        slots: List[int] = []
        envs: Dict[bytes, DatabaseEnvironment] = {}
        for header, tail in frames:
            try:
                query, env = self._single_request(tail, envs)
                requests.append((query, env, _bundle(header)))
            except ReproError as exc:
                outcomes.append(exc)
                continue
            slots.append(len(outcomes))
            outcomes.append(None)
        served = self.service.estimate_batch(requests)
        for slot, outcome in zip(slots, served, strict=True):
            outcomes[slot] = outcome
        return outcomes

    def _on_estimate_many(self, header, tail):
        """A batched estimate; predictions return as raw float64."""
        queries, env = self._request(tail, {})
        values = self.service.estimate_many(
            queries,
            env,
            bundle=_bundle(header),
            batch_size=int(header.get("batch_size", 64)),
        )
        fragment, blob = protocol.floats_to_tail(np.asarray(values))
        return {"values": fragment}, blob

    def _on_counters(self, header, tail):
        """The worker's full metrics snapshot for parent-side folding;
        also the supervisor's heartbeat, whose reply proves liveness."""
        sections = _json_safe(self.service.counters())
        return {
            "value": {
                "pid": os.getpid(),
                "worker_id": self.worker_id,
                "uptime_s": time.monotonic() - self.started,
                "requests": self.requests,
                "errors": self.errors,
                "plans_decoded": self.plans_decoded,
                "generation": self.sync_generation,
                "sections": sections,
            }
        }, b""

    def _request(
        self, blob: bytes, envs: Dict[bytes, DatabaseEnvironment]
    ) -> Tuple[List[object], DatabaseEnvironment]:
        """The ``(queries, env)`` a request blob carries, plans still
        encoded; *envs* maps env sections already decoded (one drain's
        worth) to their environments."""
        section, queries = protocol.split_request(blob, self._count_decode)
        env = envs.get(section)
        if env is None:
            env = envs[section] = protocol.decode_env(section)
        return queries, env

    def _single_request(
        self, blob: bytes, envs: Dict[bytes, DatabaseEnvironment]
    ) -> Tuple[object, DatabaseEnvironment]:
        """The ``(query, env)`` a single-query request blob carries."""
        queries, env = self._request(blob, envs)
        if len(queries) != 1:
            raise ProtocolError(
                f"request blob carries {len(queries)} queries, expected 1"
            )
        return queries[0], env

    def _count_decode(self) -> None:
        self.plans_decoded += 1

    def _on_shutdown(self, header, tail):
        """Acknowledge; the serve loop exits after this reply."""
        return {"value": "bye"}, b""

    def close(self) -> None:
        """Release the service."""
        self.service.close()


def _json_safe(value: object) -> object:
    """Counters snapshots may hold numpy scalars; fold to JSON types."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _bundle(header: Dict[str, object]) -> Optional[str]:
    """The ``bundle`` field of *header* as text, or None when absent."""
    value = header.get("bundle")
    return str(value) if value is not None else None


def _reply(request_id: int, outcome: object) -> bytes:
    """One encoded reply: an ``error`` frame for an exception, else a
    ``result`` frame for a ``(payload, tail)`` pair or an estimate."""
    if isinstance(outcome, BaseException):
        header = {
            "id": request_id,
            "kind": "error",
            "error": protocol.error_to_wire(outcome),
        }
        return protocol.encode_frame(header)
    if isinstance(outcome, tuple):
        payload, blob = outcome
        return protocol.encode_frame(
            {"id": request_id, "kind": "result", **payload}, blob
        )
    return protocol.encode_frame(
        {"id": request_id, "kind": "result", "value": outcome}
    )


def serve_batch(
    runtime: WorkerRuntime, frames: List[Tuple[Dict[str, object], bytes]]
) -> Tuple[List[bytes], Optional[int]]:
    """Answer one drain of *frames*, in order.

    Each run of consecutive ``estimate`` frames is one
    :meth:`WorkerRuntime.serve_estimates` call; every other frame goes
    to its handler alone.  Returns the encoded replies plus, when the
    loop must stop, the exit code: 0 after ``shutdown``; 3 after an
    unexpected exception — the worker's state is suspect, so it exits
    and lets the supervisor decide between revive and eject (frames
    after it go unanswered and fail when the parent sees the death).
    """
    replies: List[bytes] = []
    runs = itertools.groupby(frames, key=lambda f: f[0]["kind"] == "estimate")
    for estimates, group in runs:
        batches = [list(group)] if estimates else [[f] for f in group]
        for batch in batches:
            runtime.requests += len(batch)
            ids = [int(header["id"]) for header, _tail in batch]
            try:
                if estimates:
                    outcomes = runtime.serve_estimates(batch)
                else:
                    outcomes = [runtime.handle(*batch[0])]
            except ReproError as exc:
                outcomes = [exc] * len(batch)
            except Exception as exc:  # noqa: BLE001 — fatal, reported typed
                fatal = ServingError(f"worker failed unexpectedly: {exc!r}")
                runtime.errors += len(batch)
                replies.extend(_reply(i, fatal) for i in ids)
                return replies, 3
            for request_id, outcome in zip(ids, outcomes, strict=True):
                if isinstance(outcome, BaseException):
                    runtime.errors += 1
                replies.append(_reply(request_id, outcome))
            if batch[-1][0]["kind"] == "shutdown":
                return replies, 0
    return replies, None


def _drain(
    reader: protocol.FrameReader, limit: int
) -> Tuple[List[Tuple[Dict[str, object], bytes]], bool]:
    """Block for one frame, then take every frame already buffered, up
    to *limit*.  Returns the frames and whether the stream lost frame
    sync (a bad frame or EOF mid-frame) after them; no frames and no
    desync means the parent closed the connection."""
    frames: List[Tuple[Dict[str, object], bytes]] = []
    try:
        frame = reader.recv_frame()
        while frame is not None:
            frames.append(frame)
            if len(frames) >= limit or not reader.has_frame():
                break
            frame = reader.recv_frame()
    except ReproError:
        return frames, True
    return frames, False


def serve(conn: socket.socket, runtime: WorkerRuntime) -> int:
    """The frame loop: drain → serve the batch → one reply write, until
    EOF or shutdown.  Returns the process exit code.

    ``ReproError`` from a handler becomes a typed error frame and the
    loop continues; an unexpected exception is fatal (see
    :func:`serve_batch`).  A lost frame sync is unrecoverable by
    definition: the frames read before it are answered, then a
    best-effort protocol error, then the worker exits with code 2 and
    the sentinel fd turns that into a normal death for the supervisor.
    """
    reader = protocol.FrameReader(conn)
    limit = max(1, runtime.service.batch_max)
    while True:
        frames, desync = _drain(reader, limit)
        if not frames and not desync:
            return 0  # parent closed the connection: clean retirement
        replies, code = serve_batch(runtime, frames)
        if code is None and desync:
            runtime.errors += 1
            replies.append(_reply(0, ProtocolError("worker lost frame sync")))
            code = 2
        try:
            protocol.send_frames(conn, replies)
        except ReproError:
            return 0 if code is None else code  # parent went away
        if code is not None:
            return code


def main(argv=None) -> int:
    """Entry point for ``python -m repro.cluster.proc.worker``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--conn-fd", type=int, required=True)
    parser.add_argument("--sentinel-fd", type=int, required=True)
    parser.add_argument("--config", type=str, default="{}")
    args = parser.parse_args(argv)

    # The sentinel fd is never written or read here: the parent detects
    # EOF on its read end when this process exits, and the inherited fd
    # stays open until then.
    try:
        config = json.loads(args.config)
    except json.JSONDecodeError:
        return 2
    conn = socket.socket(fileno=args.conn_fd)
    runtime = WorkerRuntime(config)
    protocol.send_frames(conn, [protocol.encode_frame({"id": 0, "kind": "hello"})])
    try:
        return serve(conn, runtime)
    finally:
        runtime.close()
        try:
            conn.close()
        except OSError:
            pass


if __name__ == "__main__":  # pragma: no cover - exercised via Popen
    sys.exit(main())
