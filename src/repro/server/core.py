"""The served engine: reader-routed, shard-affine executors over the shards.

Process model (one Python process, thread-per-role -- the same threading
discipline the background write path and the shard-affine workload pool
use):

* an **accept thread** owns the listening socket and spawns one reader
  thread per connection;
* **reader threads** parse every frame one ``recv`` delivered
  (:class:`~repro.server.protocol.FrameDecoder`) and route them as one
  batch: each request is validated and admitted, shard-affine requests
  are staged for the executor worker *owning* that shard, multi-shard
  batches are scattered per shard, and global operations (cross-shard
  scans, secondary-delete fan-outs, stats) run on the reader itself
  behind an executor barrier.  At the end of the batch each worker gets
  its staged jobs in one queue operation, and the connection gets every
  answer the reader gave itself (sheds, rejections, pings, barriers) in
  one send.  Routing holds the server's route lock, so admission state
  has one writer at a time and a barrier owns the world while it runs;
* **executor workers** each own a fixed subset of shards
  (``shard i -> worker i % W``, via
  :meth:`~repro.shard.partition.PartitionMap` routing), take every job
  queued for them at once, execute the jobs in order against those shard
  trees directly, and send each connection its responses from that batch
  in one ``sendall`` -- **no cross-worker locking on the data path**: a
  shard's tree is only ever driven by its one worker (or by a barrier
  while every worker is provably idle), which is exactly the invariant
  the sharded engine's own multi-writer replay relies on.

Requests from one connection execute in arrival order (one reader routes
them in order, a barrier hands over everything routed before it and waits
for it to finish, each worker queue is FIFO, and one key always maps to
one worker), so a pipelined connection behaves like a serial client at
each key -- the property that makes served replays digest-equivalent to
embedded ones.

**Admission control** (see :class:`AdmissionConfig`) sheds load with
structured ``RETRY_AFTER`` errors instead of queueing without bound:

* a per-connection in-flight cap (pipelining depth);
* per-worker queue-depth caps, tightened 4x for a shard the hot-shard
  detector has flagged (the PR 7 ``hot_shard_storm`` signal: one shard's
  share of routed writes within a sliding window);
* the PR 4 backpressure counters: each shard's background flush-queue
  depth is sampled on a cadence and writes to a shard at or past its
  stall threshold are shed at the door rather than stalling an executor.

A shed request *aborts the pipeline suffix*: every later in-flight
request of the same generation on that connection is shed too
(``PIPELINE_ABORT``), so the client can resubmit the suffix in order and
no acknowledged write is ever lost or reordered.  Writes are acknowledged
only after the shard tree applied them.

The server serves both a :class:`~repro.shard.engine.ShardedEngine` and a
bare single-tree :class:`~repro.core.engine.AcheronEngine` (one shard,
one executor).  Self-tuning controllers (auto-split, memory governor,
policy tuner) stay idle in served mode: they are router-thread machinery,
and the served data path deliberately bypasses the router's notebooks --
arm them on the embedded engine before serving if their layouts are
wanted.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.engine import AcheronEngine
from repro.errors import AcheronError, ConfigError
from repro.server.protocol import (
    ErrCode,
    Frame,
    FrameDecoder,
    Op,
    PROTOCOL_VERSION,
    ProtocolError,
    Resp,
    encode_frame,
    error_payload,
)
from repro.shard.partition import PartitionMap

_SECONDARY_METHODS = ("auto", "kiwi", "full_rewrite", "eager", "lazy")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionConfig:
    """Admission-control thresholds (defaults sized for the test scales).

    ``max_inflight_per_conn``
        Pipelining depth one connection may have in flight (accepted but
        unanswered).  Beyond it, requests shed with ``RETRY_AFTER``.
    ``max_queue_depth``
        Cap on one executor worker's pending queue.  Writes routed at a
        worker past the cap shed; a shard flagged *hot* gets the cap
        divided by ``hot_tighten`` so a storm sheds before it monopolizes
        the worker.
    ``backpressure_depth``
        The PR 4 signal: when a shard tree's background flush queue is at
        or past this depth (sampled every ``sample_every`` routed
        writes), writes to that shard shed at the door instead of
        stalling an executor thread in the tree's own backpressure.
    ``hot_window_ops`` / ``hot_share``
        The PR 7 signal: a shard receiving at least ``hot_share`` of the
        routed writes within a ``hot_window_ops`` window (and more than
        one shard exists) is flagged hot until a window ends without it.
    ``retry_after_ms``
        Suggested client back-off carried in every shed response.
    """

    max_inflight_per_conn: int = 128
    max_queue_depth: int = 512
    hot_tighten: int = 4
    backpressure_depth: int = 6
    hot_window_ops: int = 1024
    hot_share: float = 0.5
    retry_after_ms: float = 25.0
    sample_every: int = 256


@dataclass(frozen=True)
class ServerConfig:
    """Socket/topology knobs for :class:`EngineServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read the bound port from .port
    #: Executor workers; None = one per shard (capped at 8).
    workers: int | None = None
    backlog: int = 64
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)


# ---------------------------------------------------------------------------
# per-connection state
# ---------------------------------------------------------------------------
class _Connection:
    """One accepted client connection (socket + pipeline bookkeeping)."""

    __slots__ = (
        "sock",
        "peer",
        "conn_id",
        "send_lock",
        "state_lock",
        "inflight",
        "shed_generation",
        "alive",
    )

    def __init__(self, sock: socket.socket, peer: str, conn_id: int) -> None:
        self.sock = sock
        self.peer = peer
        self.conn_id = conn_id
        self.send_lock = threading.Lock()
        #: Guards ``inflight``: routers raise it, executors lower it.
        self.state_lock = threading.Lock()
        self.inflight = 0
        #: Generation currently being shed (pipeline abort), or None.
        #: Read and written only under the server's route lock.
        self.shed_generation: int | None = None
        self.alive = True

    def send_frames(self, frames: list[bytes]) -> bool:
        """Best-effort send of ``frames`` in one ``sendall``; False (and
        dead) on any socket error."""
        data = b"".join(frames)
        with self.send_lock:
            if not self.alive:
                return False
            try:
                self.sock.sendall(data)
                return True
            except OSError:
                self.alive = False
                return False

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _BadRequest(Exception):
    """Internal: request payload failed validation (message for client)."""


#: Executor queue sentinel.
_STOP = object()


@dataclass
class _Job:
    """One unit of executor work: a request bound to one shard."""

    conn: _Connection
    frame: Frame
    shard: int
    #: For scattered batches: the shard's slice of the ops, plus the
    #: shared scatter state that aggregates the response.
    ops: list | None = None
    scatter: "_Scatter | None" = None


class _Scatter:
    """Aggregates a multi-shard batch back into one response."""

    __slots__ = ("lock", "remaining", "applied", "cost_us", "failed")

    def __init__(self, parts: int) -> None:
        self.lock = threading.Lock()
        self.remaining = parts
        self.applied = 0
        self.cost_us = 0.0
        self.failed: str | None = None

    def done(self, applied: int, cost_us: float, error: str | None) -> bool:
        """Fold one part in; True when this was the last part."""
        with self.lock:
            self.applied += applied
            self.cost_us += cost_us
            if error and self.failed is None:
                self.failed = error
            self.remaining -= 1
            return self.remaining == 0


class _WorkQueue:
    """One executor's FIFO: a router appends a batch of jobs in one call,
    the owning worker takes everything queued in one call and says when
    it has finished them."""

    __slots__ = ("_jobs", "_busy", "_ready")

    def __init__(self) -> None:
        self._jobs: list = []
        #: Size of the batch the worker took and has not finished.
        self._busy = 0
        self._ready = threading.Condition(threading.Lock())

    def __len__(self) -> int:
        """Jobs queued or still executing: the depth admission caps."""
        return len(self._jobs) + self._busy

    def put_many(self, jobs: list) -> None:
        with self._ready:
            self._jobs.extend(jobs)
            self._ready.notify()

    def take_all(self) -> list:
        with self._ready:
            while not self._jobs:
                self._ready.wait()
            jobs, self._jobs = self._jobs, []
            self._busy = len(jobs)
        return jobs

    def done(self) -> None:
        self._busy = 0


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------
class EngineServer:
    """Serve an engine to many concurrent pipelined clients.

    ``engine`` may be a :class:`ShardedEngine` (each shard pinned to an
    executor worker) or a single :class:`AcheronEngine` (one shard, one
    worker).  The server takes over the engine's data path; drive the
    engine only through clients while serving.

    Usage::

        server = EngineServer(engine, ServerConfig(port=0)).start()
        ... EngineClient(f"127.0.0.1:{server.port}") ...
        server.stop()
    """

    def __init__(self, engine: Any, config: ServerConfig | None = None) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        shards = getattr(engine, "shards", None)
        if shards is not None:
            self._shards: list[AcheronEngine] = list(shards)
            self._pmap: PartitionMap = engine.partition_map
        else:
            self._shards = [engine]
            self._pmap = PartitionMap()
        workers = self.config.workers
        if workers is None:
            workers = min(len(self._shards), 8)
        if workers < 1:
            raise ConfigError(f"server workers must be >= 1, got {workers}")
        self._workers = min(workers, len(self._shards))
        #: Fixed shard -> executor ownership (see PartitionMap.executor_map).
        self._owners = self._pmap.executor_map(self._workers)
        self._adm = self.config.admission

        self._listener: socket.socket | None = None
        self._port: int | None = None
        self._queues = [_WorkQueue() for _ in range(self._workers)]
        self._idle = threading.Condition()
        #: Handed-over-but-unfinished executor jobs.  Raised by a router
        #: *before* the hand-over and lowered by an executor once its
        #: batch is executed and answered, so "pending == 0" really means
        #: every worker is idle -- there is no taken-but-not-yet-flagged
        #: window for a barrier to slip through.
        self._pending = 0
        self._threads: list[threading.Thread] = []
        self._conns: dict[int, _Connection] = {}
        self._conn_lock = threading.Lock()
        self._next_conn_id = 0
        self._stopping = threading.Event()
        self._started = False

        # --- routing and admission state (mutated under the route lock) ---
        self._route_lock = threading.Lock()
        #: Jobs routed in the current batch, per worker, not yet handed over.
        self._staged: list[list[_Job]] = [[] for _ in range(self._workers)]
        #: Answers the router owes the connection whose batch it routes.
        self._outbox: list[bytes] = []
        #: Set by stop() as it queues the stop markers: nothing may follow them.
        self._routing_closed = False
        self._counters: dict[str, int] = {
            "accepted": 0,
            "completed": 0,
            "responses_failed": 0,
            "shed_inflight": 0,
            "shed_queue": 0,
            "shed_hot_shard": 0,
            "shed_backpressure": 0,
            "pipeline_aborts": 0,
            "bad_requests": 0,
            "engine_errors": 0,
            "protocol_errors": 0,
            "connections_opened": 0,
            "connections_closed": 0,
            "barrier_ops": 0,
            "scatter_batches": 0,
            "hot_windows": 0,
            #: Batches routed: the complete frames one ``recv`` delivered.
            "route_batches": 0,
            #: ``sendall`` calls carrying responses (one per connection
            #: per routed or executed batch).
            "response_sends": 0,
        }
        self._op_counts: dict[str, int] = {}
        self._stats_lock = threading.Lock()
        #: Rolling hot-shard window (routed writes per shard).
        self._window_writes: dict[int, int] = {}
        self._window_total = 0
        self._hot_shards: set[int] = set()
        #: Sampled PR 4 flush-queue depth per shard (refreshed on cadence).
        self._bp_depths: dict[int, int] = {}
        self._since_sample = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._port is None:
            raise AcheronError("server not started")
        return self._port

    @property
    def address(self) -> str:
        return f"{self.config.host}:{self.port}"

    def start(self) -> "EngineServer":
        if self._started:
            raise AcheronError("server already started")
        self._started = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(self.config.backlog)
        listener.settimeout(0.2)
        self._listener = listener
        self._port = listener.getsockname()[1]
        for w in range(self._workers):
            thread = threading.Thread(
                target=self._executor_loop, args=(w,), name=f"repro-exec-{w}"
            )
            thread.daemon = True
            thread.start()
            self._threads.append(thread)
        acceptor = threading.Thread(target=self._accept_loop, name="repro-accept")
        acceptor.daemon = True
        acceptor.start()
        self._threads.append(acceptor)
        return self

    def stop(self, close_engine: bool = False) -> None:
        """Graceful shutdown: accepted requests finish (writes stay
        acknowledged-iff-applied), requests read afterwards answer
        ``SHUTTING_DOWN``, then sockets close and threads join."""
        if not self._started or self._stopping.is_set():
            if close_engine:
                self.engine.close()
            return
        self._stopping.set()
        with self._route_lock:
            # Executors finish everything handed over before the marker,
            # so every acknowledged write was applied.
            self._routing_closed = True
            for q in self._queues:
                q.put_many([_STOP])
        for thread in self._threads:
            thread.join(timeout=10.0)
        with self._conn_lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for conn in conns:
            conn.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if close_engine:
            self.engine.close()

    def __enter__(self) -> "EngineServer":
        return self if self._started else self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # accept + reader threads
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:  # bounded sends so a dead client can't wedge an executor
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDTIMEO,
                    struct.pack("ll", 30, 0),
                )
            except OSError:  # pragma: no cover - platform-dependent
                pass
            with self._conn_lock:
                conn_id = self._next_conn_id
                self._next_conn_id += 1
                conn = _Connection(sock, f"{addr[0]}:{addr[1]}", conn_id)
                self._conns[conn_id] = conn
            self._count("connections_opened")
            reader = threading.Thread(
                target=self._reader_loop, args=(conn,), name=f"repro-read-{conn_id}"
            )
            reader.daemon = True
            reader.start()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _reader_loop(self, conn: _Connection) -> None:
        try:
            self._read_and_route(conn)
        finally:  # whatever ended the loop, the connection goes with it
            conn.close()
            with self._conn_lock:
                self._conns.pop(conn.conn_id, None)
            self._count("connections_closed")

    def _read_and_route(self, conn: _Connection) -> None:
        decoder = FrameDecoder()
        sock = conn.sock
        sock.settimeout(0.2)
        while conn.alive and not self._stopping.is_set():
            try:
                data = sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            if not data:  # orderly EOF
                return
            frames: list[Frame] = []
            error: ProtocolError | None = None
            try:
                decoder.feed(data)
                for frame in decoder.drain():
                    if frame.kind not in Op.ALL:
                        raise ProtocolError(
                            "bad_kind", f"frame kind {frame.kind:#x} is not a request"
                        )
                    frames.append(frame)
            except ProtocolError as exc:
                error = exc
            if frames:
                self._route_frames(conn, frames)
            if error is not None:
                # Structured goodbye, then hang up: a desynchronized
                # stream has no trustworthy resync point.
                self._count("protocol_errors")
                conn.send_frames(
                    [encode_frame(
                        Resp.ERR, 0, error_payload(ErrCode.BAD_REQUEST, str(error))
                    )]
                )
                return

    # ------------------------------------------------------------------
    # routing (reader threads, under the route lock)
    # ------------------------------------------------------------------
    def _route_frames(self, conn: _Connection, frames: list[Frame]) -> None:
        """Route one ``recv``'s requests: hand each worker its jobs in one
        queue operation, then send the router's own answers in one send."""
        self._count("route_batches")
        with self._route_lock:
            try:
                for frame in frames:
                    if self._routing_closed:
                        self._outbox.append(
                            _reply_err(frame, ErrCode.SHUTTING_DOWN, "server is stopping")
                        )
                        continue
                    try:
                        self._route(conn, frame)
                    except _BadRequest as exc:
                        self._count("bad_requests")
                        self._outbox.append(
                            _reply_err(frame, ErrCode.BAD_REQUEST, str(exc))
                        )
            finally:
                self._hand_over()
                replies, self._outbox = self._outbox, []
        if replies:
            self._send(conn, replies)

    def _route(self, conn: _Connection, frame: Frame) -> None:
        kind = frame.kind
        payload = frame.payload
        if kind == Op.PING:
            self._count_op("ping")
            self._outbox.append(_reply_ok(frame, self._server_info(), 0.0))
            return

        # --- pipeline-abort suffix: one shed response sheds the tail ---
        if conn.shed_generation == frame.generation:
            self._count("pipeline_aborts")
            self._outbox.append(
                _reply_err(
                    frame,
                    ErrCode.PIPELINE_ABORT,
                    "an earlier request of this pipeline generation was shed",
                    retry_after_ms=self._adm.retry_after_ms,
                )
            )
            return
        conn.shed_generation = None

        # --- per-connection in-flight cap ---
        if conn.inflight >= self._adm.max_inflight_per_conn:
            self._shed(conn, frame, "shed_inflight", "connection in-flight cap reached")
            return

        if kind in (Op.PUT, Op.GET, Op.DELETE):
            self._route_point(conn, frame)
        elif kind == Op.SCAN:
            self._route_scan(conn, frame)
        elif kind == Op.BATCH:
            self._route_batch(conn, frame)
        elif kind == Op.DELETE_RANGE:
            self._count_op("delete_range")
            self._validate_delete_range(payload)
            self._run_barrier(conn, frame)
        elif kind == Op.STATS:
            self._count_op("stats")
            self._run_barrier(conn, frame)
        else:  # pragma: no cover - decoder already validated kinds
            raise _BadRequest(f"unhandled opcode {kind:#x}")

    # -- point ops ------------------------------------------------------
    def _route_point(self, conn: _Connection, frame: Frame) -> None:
        kind = frame.kind
        payload = frame.payload
        if not isinstance(payload, tuple) or not payload:
            raise _BadRequest("point op payload must be a non-empty tuple")
        if kind == Op.PUT and len(payload) != 3:
            raise _BadRequest("PUT payload must be (key, value, delete_key)")
        if kind in (Op.GET, Op.DELETE) and len(payload) != 1:
            raise _BadRequest("GET/DELETE payload must be (key,)")
        key = payload[0]
        if key is None:
            raise _BadRequest("key must not be None")
        try:
            shard = self._pmap.shard_for(key)
        except TypeError as exc:
            raise _BadRequest(f"unroutable key {key!r}: {exc}") from None
        self._count_op(
            {Op.PUT: "put", Op.GET: "get", Op.DELETE: "delete"}[kind]
        )
        is_write = kind in Op.WRITES
        if is_write:
            self._note_write(shard)
        if not self._admit(conn, frame, shard, is_write):
            return
        self._dispatch(_Job(conn, frame, shard))

    # -- scans ----------------------------------------------------------
    def _route_scan(self, conn: _Connection, frame: Frame) -> None:
        payload = frame.payload
        if not isinstance(payload, tuple) or len(payload) != 4:
            raise _BadRequest("SCAN payload must be (lo, hi, limit, reverse)")
        lo, hi, limit, reverse = payload
        if lo is None or hi is None:
            raise _BadRequest("scan bounds must not be None")
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise _BadRequest("scan limit must be None or a non-negative int")
        self._count_op("scan")
        try:
            indices = list(self._pmap.overlapping(lo, hi))
        except TypeError as exc:
            raise _BadRequest(f"unroutable scan bounds: {exc}") from None
        if len(indices) == 1:
            # Shard-local: stays on the owning worker's thread.
            if not self._admit(conn, frame, indices[0], is_write=False):
                return
            self._dispatch(_Job(conn, frame, indices[0]))
        else:
            self._run_barrier(conn, frame)

    # -- batches --------------------------------------------------------
    def _route_batch(self, conn: _Connection, frame: Frame) -> None:
        payload = frame.payload
        if not isinstance(payload, list):
            raise _BadRequest("BATCH payload must be a list of op tuples")
        groups: dict[int, list[tuple]] = {}
        for op in payload:
            if not isinstance(op, tuple) or len(op) < 2:
                raise _BadRequest("batch ops must be ('put', k, v[, dk]) or ('delete', k)")
            verb = op[0]
            if verb == "put":
                if len(op) not in (3, 4):
                    raise _BadRequest("put op must be ('put', key, value[, delete_key])")
            elif verb == "delete":
                if len(op) != 2:
                    raise _BadRequest("delete op must be ('delete', key)")
            else:
                raise _BadRequest(f"unknown batch verb {verb!r}")
            try:
                groups.setdefault(self._pmap.shard_for(op[1]), []).append(op)
            except TypeError as exc:
                raise _BadRequest(f"unroutable key {op[1]!r}: {exc}") from None
        self._count_op("batch")
        if not groups:
            self._outbox.append(_reply_ok(frame, 0, 0.0))
            return
        for shard, ops in groups.items():
            self._note_write(shard, len(ops))
        # Admission for a batch: every target shard must admit it (the
        # batch is all-or-nothing at the door, so a retried batch never
        # half-applies around the shed).
        for shard in groups:
            if not self._admit(conn, frame, shard, is_write=True):
                return
        if len(groups) == 1:
            ((shard, ops),) = groups.items()
            self._dispatch(_Job(conn, frame, shard, ops=ops))
            return
        self._count("scatter_batches")
        # One logical request: account it once, then stage the parts
        # (accounting per part would leak conn.inflight, which only
        # decrements when the aggregated response goes out).
        self._accept(conn)
        scatter = _Scatter(len(groups))
        for shard, ops in groups.items():
            self._dispatch(
                _Job(conn, frame, shard, ops=ops, scatter=scatter), account=False
            )

    # -- admission ------------------------------------------------------
    def _note_write(self, shard: int, count: int = 1) -> None:
        """Feed the PR 7 hot-shard window and the PR 4 sampling cadence."""
        self._window_writes[shard] = self._window_writes.get(shard, 0) + count
        self._window_total += count
        self._since_sample += count
        if self._since_sample >= self._adm.sample_every:
            self._since_sample = 0
            self._bp_depths = {
                i: sh.tree.write_stats().get("queue_depth", 0)
                for i, sh in enumerate(self._shards)
            }
        if self._window_total >= self._adm.hot_window_ops:
            hot: set[int] = set()
            if len(self._shards) > 1:
                for index, writes in self._window_writes.items():
                    if writes / self._window_total >= self._adm.hot_share:
                        hot.add(index)
            if hot:
                self._count("hot_windows")
            self._hot_shards = hot
            self._window_writes.clear()
            self._window_total = 0

    def _admit(
        self, conn: _Connection, frame: Frame, shard: int, is_write: bool
    ) -> bool:
        """True to enqueue; False after answering with a shed error."""
        adm = self._adm
        worker = self._owners[shard]
        depth = len(self._queues[worker]) + len(self._staged[worker])
        cap = adm.max_queue_depth
        if is_write and shard in self._hot_shards:
            cap = max(1, cap // adm.hot_tighten)
            if depth >= cap:
                self._shed(
                    conn, frame, "shed_hot_shard",
                    f"shard {shard} is hot and its executor queue is full",
                )
                return False
        if depth >= cap:
            self._shed(
                conn, frame, "shed_queue",
                f"executor queue for shard {shard} is full",
            )
            return False
        if is_write and self._bp_depths.get(shard, 0) >= adm.backpressure_depth:
            # The sampled depth says stalled -- but the sample refreshes
            # on routed-write cadence, and a client whose writes are all
            # being shed barely advances that cadence.  Re-read the live
            # depth before actually shedding, or a drained flush queue
            # stays "stalled" forever (a stale-sample livelock).
            live = self._shards[shard].tree.write_stats().get("queue_depth", 0)
            self._bp_depths[shard] = live
            if live >= adm.backpressure_depth:
                self._shed(
                    conn, frame, "shed_backpressure",
                    f"shard {shard} flush queue is at its stall threshold",
                )
                return False
        return True

    def _shed(
        self, conn: _Connection, frame: Frame, counter: str, reason: str
    ) -> None:
        self._count(counter)
        conn.shed_generation = frame.generation
        self._outbox.append(
            _reply_err(
                frame,
                ErrCode.RETRY_AFTER,
                reason,
                retry_after_ms=self._adm.retry_after_ms,
            )
        )

    # -- dispatch and barriers -----------------------------------------
    def _accept(self, conn: _Connection) -> None:
        with conn.state_lock:
            conn.inflight += 1
        self._count("accepted")

    def _dispatch(self, job: _Job, account: bool = True) -> None:
        if account:
            self._accept(job.conn)
        self._staged[self._owners[job.shard]].append(job)

    def _hand_over(self) -> None:
        """Give every worker the jobs staged for it, one queue operation
        per worker."""
        staged = [(w, jobs) for w, jobs in enumerate(self._staged) if jobs]
        if not staged:
            return
        with self._idle:
            self._pending += sum(len(jobs) for _, jobs in staged)
        for w, jobs in staged:
            self._staged[w] = []
            self._queues[w].put_many(jobs)

    def _run_barrier(self, conn: _Connection, frame: Frame) -> None:
        """Execute a global op on this router with every worker idle."""
        self._count("barrier_ops")
        self._accept(conn)
        self._hand_over()  # what this batch routed before it runs first
        with self._idle:
            self._idle.wait_for(lambda: self._pending == 0)
        # Every handed-over job has finished and this router holds the
        # route lock, so nothing can reach a worker until this op finishes.
        self._outbox.append(self._execute(frame, shard=None))
        self._finish(conn, 1)

    # -- responses ------------------------------------------------------
    def _send(self, conn: _Connection, frames: list[bytes]) -> None:
        ok = conn.send_frames(frames)
        with self._stats_lock:
            self._counters["response_sends"] += 1
            if not ok:
                self._counters["responses_failed"] += len(frames)

    def _finish(self, conn: _Connection, requests: int) -> None:
        with conn.state_lock:
            conn.inflight -= requests
        self._count("completed", requests)

    # ------------------------------------------------------------------
    # executors
    # ------------------------------------------------------------------
    def _executor_loop(self, worker: int) -> None:
        q = self._queues[worker]
        while True:
            jobs = q.take_all()
            # stop() queues the marker after routing closed, so it is last.
            stop = jobs[-1] is _STOP
            if stop:
                jobs.pop()
            try:
                replies: dict[_Connection, list[bytes]] = {}
                for job in jobs:
                    reply = self._execute(job.frame, job.shard, job)
                    if reply is not None:
                        replies.setdefault(job.conn, []).append(reply)
                for conn, frames in replies.items():
                    # Lowered before the send: a client refilling its
                    # window on these answers must not meet a stale cap.
                    self._finish(conn, len(frames))
                    self._send(conn, frames)
            finally:
                q.done()
                with self._idle:
                    self._pending -= len(jobs)
                    self._idle.notify_all()
            if stop:
                break

    def _execute(
        self,
        frame: Frame,
        shard: int | None,
        job: _Job | None = None,
    ) -> bytes | None:
        """Run one request against its shard (or the whole engine) and
        return its response frame (None for a scatter part that is not
        the last).  Writes are acknowledged only after this returns from
        the tree -- a crash before the response loses nothing acked."""
        target = self.engine if shard is None else self._shards[shard]
        disk = target.disk.stats if shard is not None else self.engine.disk.stats
        before_us = disk.modeled_us
        try:
            result = self._apply(frame, target, job)
            error = None
        except _BadRequest as exc:
            result, error = None, ("bad", str(exc))
        except AcheronError as exc:
            result, error = None, ("engine", str(exc))
        except Exception as exc:  # noqa: BLE001 - fault barrier at the rim
            result, error = None, ("engine", f"{type(exc).__name__}: {exc}")
        cost_us = disk.modeled_us - before_us

        if job is not None and job.scatter is not None:
            last = job.scatter.done(
                result if isinstance(result, int) else 0,
                cost_us,
                error[1] if error else None,
            )
            if not last:
                return None
            if job.scatter.failed is not None:
                self._count("engine_errors")
                return _reply_err(frame, ErrCode.ENGINE_ERROR, job.scatter.failed)
            return _reply_ok(frame, job.scatter.applied, job.scatter.cost_us)
        if error is not None:
            bad = error[0] == "bad"
            self._count("bad_requests" if bad else "engine_errors")
            code = ErrCode.BAD_REQUEST if bad else ErrCode.ENGINE_ERROR
            return _reply_err(frame, code, error[1])
        return _reply_ok(frame, result, cost_us)

    def _apply(self, frame: Frame, target: Any, job: _Job | None) -> Any:
        kind = frame.kind
        payload = frame.payload
        if kind == Op.PUT:
            key, value, delete_key = payload
            target.put(key, value, delete_key=delete_key)
            return None
        if kind == Op.GET:
            sentinel = object()
            value = target.get(payload[0], default=sentinel)
            return (False, None) if value is sentinel else (True, value)
        if kind == Op.DELETE:
            target.delete(payload[0])
            return None
        if kind == Op.SCAN:
            lo, hi, limit, reverse = payload
            return [(k, v) for k, v in target.scan(lo, hi, limit=limit, reverse=bool(reverse))]
        if kind == Op.BATCH:
            ops = job.ops if job is not None and job.ops is not None else payload
            return target.apply_batch(ops)
        if kind == Op.DELETE_RANGE:
            lo, hi, method = payload
            report = target.delete_range(lo, hi, method=method)
            return {
                "method": report.method,
                "entries_deleted": report.entries_deleted,
                "memtable_entries_deleted": report.memtable_entries_deleted,
                "files_modified": report.files_modified,
                "pages_dropped": report.pages_dropped,
                "pages_rewritten": report.pages_rewritten,
            }
        if kind == Op.STATS:
            stats = self.engine.stats()
            payload_dict = stats.to_dict()
            payload_dict["server"] = self.server_report()
            return payload_dict
        raise _BadRequest(f"unhandled opcode {kind:#x}")  # pragma: no cover

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_delete_range(payload: Any) -> None:
        if not isinstance(payload, tuple) or len(payload) != 3:
            raise _BadRequest("DELETE_RANGE payload must be (lo, hi, method)")
        lo, hi, method = payload
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise _BadRequest("delete-key bounds must be ints")
        if method not in _SECONDARY_METHODS:
            raise _BadRequest(f"unknown secondary delete method {method!r}")

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _count(self, name: str, by: int = 1) -> None:
        with self._stats_lock:
            self._counters[name] += by

    def _count_op(self, name: str) -> None:
        with self._stats_lock:
            self._op_counts[name] = self._op_counts.get(name, 0) + 1

    def _server_info(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "shards": len(self._shards),
            "workers": self._workers,
            "boundaries": list(self._pmap.to_list()),
            "tick": self.engine.clock.now(),
        }

    def server_report(self) -> dict:
        """JSON-safe admission/throughput counters (the ``server`` stats
        section; see :mod:`repro.metrics.server`)."""
        with self._stats_lock:
            counters = dict(self._counters)
            ops = dict(self._op_counts)
        shed = (
            counters["shed_inflight"]
            + counters["shed_queue"]
            + counters["shed_hot_shard"]
            + counters["shed_backpressure"]
        )
        with self._conn_lock:
            open_conns = len(self._conns)
        return {
            **counters,
            "shed_total": shed,
            "ops": ops,
            "workers": self._workers,
            "shards": len(self._shards),
            "connections_open": open_conns,
            "queue_depths": [len(q) for q in self._queues],
            "hot_shards": sorted(self._hot_shards),
            "admission": {
                "max_inflight_per_conn": self._adm.max_inflight_per_conn,
                "max_queue_depth": self._adm.max_queue_depth,
                "backpressure_depth": self._adm.backpressure_depth,
                "hot_window_ops": self._adm.hot_window_ops,
                "hot_share": self._adm.hot_share,
                "retry_after_ms": self._adm.retry_after_ms,
            },
        }

    def stats(self):
        """The engine's :class:`EngineStats` with the ``server`` section
        attached (mirrors what the wire ``STATS`` op returns)."""
        import dataclasses

        return dataclasses.replace(self.engine.stats(), server=self.server_report())


def _reply_ok(frame: Frame, result: Any, cost_us: float) -> bytes:
    return encode_frame(Resp.OK, frame.request_id, (result, cost_us), frame.generation)


def _reply_err(
    frame: Frame, code: str, message: str, retry_after_ms: float | None = None
) -> bytes:
    return encode_frame(
        Resp.ERR,
        frame.request_id,
        error_payload(code, message, retry_after_ms),
        frame.generation,
    )


def wait_until_listening(
    address: str, timeout: float = 10.0, interval: float = 0.05
) -> None:
    """Block until a TCP connect to ``host:port`` succeeds (readiness
    probe for tests, the CLI smoke script, and CI)."""
    host, _, port = address.rpartition(":")
    deadline = time.monotonic() + timeout
    while True:
        try:
            with socket.create_connection((host, int(port)), timeout=interval + 0.2):
                return
        except OSError:
            if time.monotonic() >= deadline:
                raise AcheronError(f"no server listening at {address} after {timeout}s")
            time.sleep(interval)
