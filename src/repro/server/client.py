"""Client library for the served engine.

:class:`EngineClient` mirrors the embedded engine's data-plane API
(``put``/``get``/``delete``/``scan``/``delete_range``/``apply_batch``/
``stats``) over the wire, plus the piece an embedded engine does not
need: :meth:`EngineClient.pipeline`, which keeps a window of requests in
flight on one connection and is what makes a served replay competitive
with an embedded one despite the socket hop.

Retry semantics (all transparent to callers, all bounded):

* **Shed requests** (``RETRY_AFTER`` admission responses and the
  ``PIPELINE_ABORT`` suffix that follows one) are resubmitted *in
  submission order* after the server-suggested back-off, under a bumped
  pipeline generation.  The server sheds before executing and aborts the
  whole same-generation suffix, so the shed set is always a clean suffix
  of the submission order and the resubmission preserves per-key order
  -- a served replay stays digest-equivalent to an embedded one even
  when admission control engages.
* **Broken connections** reconnect and resubmit every unanswered request
  in order.  A write the server executed but whose response was lost may
  apply twice; ``put``/``delete``/``delete_range`` are contents-
  idempotent, so stored contents are unaffected (the tree may carry an
  extra superseded version until compaction, like any re-put).
* **Hard errors** (``BAD_REQUEST``, ``ENGINE_ERROR``) raise
  :class:`ServerError` -- they are deterministic rejections, never
  retried.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import AcheronError
from repro.server.protocol import (
    ErrCode,
    Frame,
    FrameDecoder,
    Op,
    ProtocolError,
    Resp,
    encode_frame,
)


class ServerError(AcheronError):
    """A structured error frame from the server."""

    def __init__(self, code: str, message: str, retry_after_ms: float | None = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.server_message = message
        self.retry_after_ms = retry_after_ms

    @property
    def is_shed(self) -> bool:
        return self.code in (ErrCode.RETRY_AFTER, ErrCode.PIPELINE_ABORT)


class ConnectionLost(AcheronError):
    """The TCP stream died (or timed out) mid-conversation."""


@dataclass(frozen=True)
class CallResult:
    """One completed request: its result plus both latency currencies."""

    result: Any
    #: Modeled device microseconds the server charged this request.
    cost_us: float
    #: Wall-clock microseconds from submission to response at the client.
    wall_us: float


@dataclass(frozen=True)
class RangeDeleteSummary:
    """Wire-shaped summary of a served secondary range delete."""

    method: str
    entries_deleted: int
    memtable_entries_deleted: int
    files_modified: int
    pages_dropped: int
    pages_rewritten: int


def _parse_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise AcheronError(
            f"server address must be HOST:PORT, got {address!r}"
        )
    return host or "127.0.0.1", int(port)


class ClientConnection:
    """One TCP connection: framing, request ids, pipeline generations.

    Not thread-safe -- one thread drives one connection (acquire one per
    thread from the :class:`EngineClient` pool).
    """

    def __init__(
        self,
        address: str,
        timeout: float = 30.0,
        max_reconnects: int = 3,
        max_shed_retries: int = 64,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.max_reconnects = max_reconnects
        self.max_shed_retries = max_shed_retries
        self._host, self._port = _parse_address(address)
        self._sock: socket.socket | None = None
        self._decoder = FrameDecoder()
        self._next_request_id = 1
        self._generation = 0
        #: Retry observability, folded into EngineClient.retry_report().
        self.sheds_seen = 0
        self.reconnects = 0

    # -- raw transport --------------------------------------------------
    def connect(self) -> None:
        if self._sock is not None:
            return
        try:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self.timeout
            )
        except OSError as exc:
            raise ConnectionLost(f"connect to {self.address} failed: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._decoder = FrameDecoder()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _drop(self) -> None:
        self.close()
        self._decoder = FrameDecoder()

    def _send(self, data: bytes) -> None:
        assert self._sock is not None
        try:
            self._sock.sendall(data)
        except OSError as exc:
            self._drop()
            raise ConnectionLost(f"send to {self.address} failed: {exc}") from exc

    def _recv_frames(self) -> list[Frame]:
        """Every complete frame buffered, waiting for at least one."""
        assert self._sock is not None
        while True:
            try:
                frames = list(self._decoder.drain())
            except ProtocolError as exc:
                self._drop()
                raise ConnectionLost(
                    f"protocol error from {self.address}: {exc}"
                ) from exc
            if frames:
                return frames
            try:
                data = self._sock.recv(65536)
            except socket.timeout as exc:
                self._drop()
                raise ConnectionLost(
                    f"no response from {self.address} within {self.timeout}s"
                ) from exc
            except OSError as exc:
                self._drop()
                raise ConnectionLost(f"recv from {self.address} failed: {exc}") from exc
            if not data:
                self._drop()
                raise ConnectionLost(f"{self.address} closed the connection")
            self._decoder.feed(data)

    # -- pipelined submission -------------------------------------------
    def pipeline(
        self,
        requests: list[tuple[int, Any]],
        window: int = 64,
    ) -> list[CallResult]:
        """Submit ``(opcode, payload)`` requests keeping up to ``window``
        in flight; return one :class:`CallResult` per request, in
        submission order.  Handles shed suffixes, back-off, and
        reconnects internally; raises :class:`ServerError` on the first
        hard error (after draining what was in flight) and
        :class:`ConnectionLost` when reconnect attempts are exhausted.
        """
        results: list[CallResult | None] = [None] * len(requests)
        todo = list(range(len(requests)))  # indices still unanswered, in order
        reconnects_left = self.max_reconnects
        stuck_rounds = 0  # consecutive rounds shed without any progress
        while todo:
            before = len(todo)
            try:
                self.connect()
                shed = self._pipeline_round(requests, results, todo, window)
            except ConnectionLost:
                self.reconnects += 1
                reconnects_left -= 1
                if reconnects_left < 0:
                    raise
                time.sleep(0.05)
                # Unanswered requests (tracked in todo) resubmit in order
                # over a fresh connection; see the module docstring for
                # why the duplicate-write window is contents-safe.
                continue
            todo = [i for i in todo if results[i] is None]
            if shed:
                self.sheds_seen += len(shed)
                stuck_rounds = 0 if len(todo) < before else stuck_rounds + 1
                if stuck_rounds > self.max_shed_retries:
                    raise ServerError(
                        ErrCode.RETRY_AFTER,
                        f"server shed every request for {stuck_rounds - 1} "
                        f"consecutive retry rounds",
                    )
                backoff_ms = max(s.retry_after_ms or 0.0 for s in shed.values())
                time.sleep(backoff_ms / 1000.0 if backoff_ms else 0.01)
                self._generation = (self._generation + 1) & 0xFFFF
        return results  # type: ignore[return-value]

    def _pipeline_round(
        self,
        requests: list[tuple[int, Any]],
        results: list[CallResult | None],
        todo: list[int],
        window: int,
    ) -> dict[int, ServerError]:
        """One send/recv pass over ``todo``; fills ``results`` for OK
        responses, returns ``{index: shed}`` for shed ones, raises the
        first hard error after the window drains.

        Each refill of the window is one send, and every response one
        ``recv`` delivered is handled before the next refill, so a busy
        window moves in batches rather than a frame at a time."""
        pending: dict[int, int] = {}  # request_id -> index into requests
        sent_at: dict[int, float] = {}
        shed: dict[int, ServerError] = {}
        hard: ServerError | None = None
        cursor = 0
        while cursor < len(todo) or pending:
            frames: list[bytes] = []
            # Once anything sheds, every later same-generation request is
            # dead on arrival (the server's pipeline-abort rule), so stop
            # feeding the doomed suffix and just drain what's in flight.
            while not shed and cursor < len(todo) and len(pending) < window:
                index = todo[cursor]
                cursor += 1
                rid = self._next_request_id
                self._next_request_id = (self._next_request_id % 0xFFFFFFFF) + 1
                kind, payload = requests[index]
                pending[rid] = index
                sent_at[rid] = time.perf_counter()
                frames.append(encode_frame(kind, rid, payload, self._generation))
            if frames:
                self._send(b"".join(frames))
            if not pending:  # shed with the unsent suffix still in todo
                break
            for frame in self._recv_frames():
                index = pending.pop(frame.request_id, None)
                if index is None:
                    continue  # stale response from a pre-reconnect life
                wall_us = (time.perf_counter() - sent_at.pop(frame.request_id)) * 1e6
                if frame.kind == Resp.OK:
                    result, cost_us = frame.payload
                    results[index] = CallResult(result, float(cost_us), wall_us)
                else:
                    err = _decode_error(frame)
                    if err.is_shed:
                        shed[index] = err
                    else:
                        hard = hard or err
        if hard is not None:
            raise hard
        return shed

    def call(self, kind: int, payload: Any) -> CallResult:
        """One request, one response (still shed/reconnect-safe)."""
        return self.pipeline([(kind, payload)], window=1)[0]


def _decode_error(frame: Frame) -> ServerError:
    payload = frame.payload
    if isinstance(payload, dict):
        return ServerError(
            str(payload.get("code", "unknown")),
            str(payload.get("message", "")),
            payload.get("retry_after_ms"),
        )
    return ServerError("unknown", repr(payload))


class EngineClient:
    """Pooled client for a served engine, mirroring the embedded API.

    ``pool_size`` bounds concurrent connections; threads borrow one with
    :meth:`connection` (or implicitly through the convenience methods).

    Usage::

        with EngineClient("127.0.0.1:7021") as client:
            client.put(1, "a")
            assert client.get(1) == "a"
            results = client.pipeline([(Op.PUT, (k, v, None)) for k, v in rows])
    """

    def __init__(
        self,
        address: str,
        pool_size: int = 4,
        timeout: float = 30.0,
        window: int = 64,
    ) -> None:
        if pool_size < 1:
            raise AcheronError(f"pool_size must be >= 1, got {pool_size}")
        self.address = address
        self.pool_size = pool_size
        self.timeout = timeout
        self.window = window
        self._idle: list[ClientConnection] = []
        self._created = 0
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._closed = False

    # -- pool -----------------------------------------------------------
    def acquire(self) -> ClientConnection:
        with self._available:
            while True:
                if self._closed:
                    raise AcheronError("client is closed")
                if self._idle:
                    return self._idle.pop()
                if self._created < self.pool_size:
                    self._created += 1
                    return ClientConnection(self.address, timeout=self.timeout)
                self._available.wait()

    def release(self, conn: ClientConnection) -> None:
        with self._available:
            if self._closed:
                conn.close()
                self._created -= 1
            else:
                self._idle.append(conn)
            self._available.notify()

    class _Borrowed:
        def __init__(self, client: "EngineClient") -> None:
            self._client = client
            self._conn: ClientConnection | None = None

        def __enter__(self) -> ClientConnection:
            self._conn = self._client.acquire()
            return self._conn

        def __exit__(self, *exc_info: object) -> None:
            assert self._conn is not None
            self._client.release(self._conn)

    def connection(self) -> "_Borrowed":
        """Borrow a connection for the duration of a ``with`` block."""
        return EngineClient._Borrowed(self)

    def close(self) -> None:
        with self._available:
            self._closed = True
            conns = self._idle
            self._idle = []
            self._available.notify_all()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "EngineClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- engine-shaped data plane ---------------------------------------
    def put(self, key: Any, value: Any, delete_key: int | None = None) -> None:
        with self.connection() as conn:
            conn.call(Op.PUT, (key, value, delete_key))

    def get(self, key: Any, default: Any = None) -> Any:
        with self.connection() as conn:
            found, value = conn.call(Op.GET, (key,)).result
        return value if found else default

    def contains(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, default=sentinel) is not sentinel

    def delete(self, key: Any) -> None:
        with self.connection() as conn:
            conn.call(Op.DELETE, (key,))

    def scan(
        self,
        lo: Any,
        hi: Any,
        limit: int | None = None,
        reverse: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        with self.connection() as conn:
            rows = conn.call(Op.SCAN, (lo, hi, limit, bool(reverse))).result
        return iter(rows)

    def delete_range(
        self, lo: int, hi: int, method: str = "auto"
    ) -> RangeDeleteSummary:
        with self.connection() as conn:
            summary = conn.call(Op.DELETE_RANGE, (lo, hi, method)).result
        return RangeDeleteSummary(**summary)

    def apply_batch(self, ops: Iterable[tuple]) -> int:
        with self.connection() as conn:
            return conn.call(Op.BATCH, [tuple(op) for op in ops]).result

    def put_many(self, pairs: Iterable[tuple[Any, Any]]) -> int:
        return self.apply_batch(("put", k, v) for k, v in pairs)

    def stats(self) -> dict:
        """The served engine's stats dict, ``server`` section included."""
        with self.connection() as conn:
            return conn.call(Op.STATS, None).result

    def ping(self) -> dict:
        """Server info: protocol version, topology, engine clock tick."""
        with self.connection() as conn:
            return conn.call(Op.PING, None).result

    def pipeline(
        self, requests: list[tuple[int, Any]], window: int | None = None
    ) -> list[CallResult]:
        """Pipelined submission on one pooled connection."""
        with self.connection() as conn:
            return conn.pipeline(requests, window=window or self.window)

    def retry_report(self) -> dict:
        """Sheds observed and reconnects performed across the pool (the
        client-side mirror of the server's admission counters)."""
        with self._lock:
            conns = list(self._idle)
        return {
            "sheds_seen": sum(c.sheds_seen for c in conns),
            "reconnects": sum(c.reconnects for c in conns),
            "pooled_connections": len(conns),
        }
