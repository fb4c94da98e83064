"""The served engine: protocol totality, equivalence, admission, recovery.

Four areas, mirroring the subsystem's contract:

* the wire codec round-trips every data-plane value and the frame
  decoder is *total* -- any byte soup in any segmentation yields frames,
  "needs more bytes", or a structured :class:`ProtocolError`, never a
  crash or a hang;
* a served replay is contents-digest-equivalent to an embedded replay of
  the same stream, across shard counts and concurrent pipelined clients;
* admission control sheds with structured retries (never by dropping an
  acknowledged write) and the client's shed-suffix resubmission keeps
  digests equal even while shedding;
* a mid-request client disconnect, a mid-write engine crash (armed via
  the crash-matrix fault points), and a server restart all leave the
  store recoverable.
"""

from __future__ import annotations

import hashlib
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import acheron_config
from repro.core.engine import AcheronEngine
from repro.server import (
    AdmissionConfig,
    EngineClient,
    EngineServer,
    ErrCode,
    FrameDecoder,
    Op,
    PROTOCOL_VERSION,
    ProtocolError,
    Resp,
    ServerConfig,
    ServerError,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.server.client import ClientConnection
from repro.server.core import _STOP, _Connection, _WorkQueue
from repro.server.protocol import HEADER_AFTER_LENGTH, Frame
from repro.shard.engine import ShardedEngine
from repro.workload.adversarial import build_adversary
from repro.workload.generator import generate_operations
from repro.workload.runner import run_workload
from repro.workload.spec import OpKind, WorkloadSpec

from conftest import TINY

KEY_SPACE = (0, 60_000)


def tiny_engine(directory, shards):
    """A served-or-embedded engine at the test scale."""
    cfg = acheron_config(**TINY)
    if shards == 1:
        return AcheronEngine(cfg, directory=str(directory))
    return ShardedEngine(cfg, directory=str(directory), shards=shards, key_space=KEY_SPACE)


def contents_digest(engine) -> str:
    digest = hashlib.sha256()
    for key, value in engine.scan(0, 10**9):
        digest.update(repr((key, value)).encode())
    return digest.hexdigest()


@pytest.fixture
def served(tmp_path):
    """A started 4-shard server; yields (server, engine, address)."""
    engine = tiny_engine(tmp_path / "store", 4)
    server = EngineServer(engine, ServerConfig(port=0)).start()
    yield server, engine
    server.stop(close_engine=True)


# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------
class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None, True, False, 0, -1, 2**62, -(2**70), 2**200, 1.5, float("inf"),
            "", "text", "unié", b"", b"bytes",
            [1, "two", None], (3, (4, b"5")), {"k": [1, {"n": None}]},
            ("put", 17, "v17", None), [("delete", 3), ("put", 9, "x")],
        ],
    )
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_tuple_and_list_stay_distinct(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert type(decode_value(encode_value((1, 2)))) is tuple
        assert type(decode_value(encode_value([1, 2]))) is list

    def test_non_str_dict_key_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_value({1: "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(ProtocolError):
            encode_value(object())

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            decode_value(encode_value(1) + b"\x00")

    def test_hostile_nesting_rejected(self):
        deep = encode_value(None)
        for _ in range(64):  # hand-roll a 64-deep list: l,count=1,...
            deep = b"l" + struct.pack("<I", 1) + deep
        with pytest.raises(ProtocolError):
            decode_value(deep)

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-(2**80), 2**80),
                st.floats(allow_nan=False),
                st.text(max_size=32),
                st.binary(max_size=32),
            ),
            lambda leaf: st.one_of(
                st.lists(leaf, max_size=4),
                st.lists(leaf, max_size=4).map(tuple),
                st.dictionaries(st.text(max_size=8), leaf, max_size=4),
            ),
            max_leaves=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, value):
        assert decode_value(encode_value(value)) == value


# ---------------------------------------------------------------------------
# frame decoder totality
# ---------------------------------------------------------------------------
def feed_in_chunks(decoder: FrameDecoder, data: bytes, cuts: list[int]):
    """Feed ``data`` split at ``cuts``; collect frames after every chunk."""
    frames = []
    positions = sorted({min(c, len(data)) for c in cuts}) + [len(data)]
    start = 0
    for end in positions:
        decoder.feed(data[start:end])
        frames.extend(decoder.drain())
        start = end
    return frames


class TestFrameDecoder:
    def test_roundtrip_byte_at_a_time(self):
        wire = encode_frame(Op.PUT, 7, (1, "v", None), generation=3) + encode_frame(
            Resp.OK, 7, (None, 12.5)
        )
        decoder = FrameDecoder()
        frames = []
        for i in range(len(wire)):
            decoder.feed(wire[i : i + 1])
            frames.extend(decoder.drain())
        assert [f.kind for f in frames] == [Op.PUT, Resp.OK]
        assert frames[0].request_id == 7 and frames[0].generation == 3
        assert frames[0].payload == (1, "v", None)
        assert frames[1].payload == (None, 12.5)

    def test_partial_frame_returns_none(self):
        wire = encode_frame(Op.GET, 1, (5,))
        decoder = FrameDecoder()
        decoder.feed(wire[:-1])
        assert decoder.next_frame() is None
        assert decoder.buffered == len(wire) - 1

    def test_oversized_length_prefix_rejected_without_allocation(self):
        decoder = FrameDecoder(max_frame_bytes=1024)
        decoder.feed(struct.pack("<I", 1 << 30))
        with pytest.raises(ProtocolError, match="oversized"):
            decoder.next_frame()

    def test_bad_magic_rejected(self):
        wire = bytearray(encode_frame(Op.PING, 1, None))
        wire[4] ^= 0xFF
        decoder = FrameDecoder()
        decoder.feed(bytes(wire))
        with pytest.raises(ProtocolError, match="bad_magic"):
            decoder.next_frame()

    def test_bad_version_rejected(self):
        wire = bytearray(encode_frame(Op.PING, 1, None))
        wire[6] = PROTOCOL_VERSION + 1
        decoder = FrameDecoder()
        decoder.feed(bytes(wire))
        with pytest.raises(ProtocolError, match="bad_version"):
            decoder.next_frame()

    def test_corrupt_payload_fails_crc(self):
        wire = bytearray(encode_frame(Op.PUT, 1, (1, "value", None)))
        wire[-1] ^= 0x01
        decoder = FrameDecoder()
        decoder.feed(bytes(wire))
        with pytest.raises(ProtocolError, match="bad_crc"):
            decoder.next_frame()

    def test_poisoned_decoder_stays_poisoned(self):
        decoder = FrameDecoder()
        decoder.feed(struct.pack("<I", 0))  # length below header size
        with pytest.raises(ProtocolError):
            decoder.next_frame()
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame(Op.PING, 1, None))
        with pytest.raises(ProtocolError):
            decoder.next_frame()

    @given(data=st.binary(max_size=256), cuts=st.lists(st.integers(0, 256), max_size=8))
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_garbage_never_crashes(self, data, cuts):
        """Totality: arbitrary bytes in arbitrary segmentation produce
        frames, None, or ProtocolError -- nothing else, no hang."""
        decoder = FrameDecoder()
        try:
            feed_in_chunks(decoder, data, cuts)
        except ProtocolError:
            pass  # structured rejection is the contract

    @given(
        frames=st.lists(
            st.tuples(
                st.sampled_from(sorted(Op.ALL | Resp.ALL)),
                st.integers(0, 2**32 - 1),
                st.one_of(st.none(), st.integers(-100, 100), st.text(max_size=16)),
            ),
            min_size=1,
            max_size=5,
        ),
        cuts=st.lists(st.integers(0, 512), max_size=6),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_valid_streams_survive_any_segmentation(self, frames, cuts):
        wire = b"".join(encode_frame(k, rid, p) for k, rid, p in frames)
        decoded = feed_in_chunks(FrameDecoder(), wire, cuts)
        assert [(f.kind, f.request_id, f.payload) for f in decoded] == frames

    @given(garbage=st.binary(min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_truncation_then_garbage_is_structured(self, garbage):
        """A valid frame, then a truncated tail extended with garbage:
        the first frame parses; the rest errors or waits, never crashes."""
        good = encode_frame(Op.STATS, 9, None)
        tail = encode_frame(Op.PUT, 10, (1, "v", None))[: HEADER_AFTER_LENGTH]
        decoder = FrameDecoder()
        decoder.feed(good + tail)
        assert decoder.next_frame().request_id == 9
        try:
            decoder.feed(garbage)
            while decoder.next_frame() is not None:
                pass
        except ProtocolError:
            pass


# ---------------------------------------------------------------------------
# served == embedded
# ---------------------------------------------------------------------------
def equivalence_spec() -> WorkloadSpec:
    return WorkloadSpec(
        operations=1_200,
        preload=700,
        seed=0xBEEF,
        weights={
            OpKind.INSERT: 0.42,
            OpKind.UPDATE: 0.20,
            OpKind.POINT_DELETE: 0.10,
            OpKind.POINT_QUERY: 0.15,
            OpKind.EMPTY_QUERY: 0.04,
            OpKind.RANGE_QUERY: 0.04,
            OpKind.SECONDARY_RANGE_DELETE: 0.05,
        },
    )


class TestServedEquivalence:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_digest_matches_embedded_replay(self, tmp_path, shards):
        """Contents digest and total modeled device time both equal the
        embedded replay: every response carries the modeled microseconds
        its request cost, and the wire adds no modeled work."""
        operations = generate_operations(equivalence_spec())
        embedded = tiny_engine(tmp_path / "embedded", shards)
        embedded_modeled_us = run_workload(embedded, operations).total_modeled_us
        expected = contents_digest(embedded)
        embedded.close()

        engine = tiny_engine(tmp_path / "served", shards)
        server = EngineServer(engine, ServerConfig(port=0)).start()
        try:
            result = run_workload(
                None, operations, connect=server.address, clients=4
            )
            assert result.operations == len(operations)
            assert result.served is not None
            assert len(result.served["latencies_us"]) == len(operations)
            assert contents_digest(engine) == expected
            # Modeled time is schedule-exact: background workers (an
            # ambient REPRO_WORKERS) flush and compact at wall-clock moments.
            trees = [s.tree for s in getattr(engine, "shards", [engine])]
            if all(tree.write_path is None for tree in trees):
                assert embedded_modeled_us > 0
                assert result.total_modeled_us == embedded_modeled_us
        finally:
            server.stop(close_engine=True)

    def test_eight_pipelined_clients_stay_equivalent(self, tmp_path):
        """The acceptance-criterion shape: >= 8 concurrent clients."""
        spec = WorkloadSpec(operations=1_000, preload=600, seed=3)
        operations = generate_operations(spec)
        embedded = tiny_engine(tmp_path / "embedded", 4)
        run_workload(embedded, operations)
        expected = contents_digest(embedded)
        embedded.close()

        engine = tiny_engine(tmp_path / "served", 4)
        server = EngineServer(engine, ServerConfig(port=0)).start()
        try:
            run_workload(None, operations, connect=server.address, clients=8)
            assert contents_digest(engine) == expected
        finally:
            server.stop(close_engine=True)

    def test_multi_shard_batch_scatters_and_aggregates(self, served):
        server, engine = served
        with EngineClient(server.address) as client:
            applied = client.apply_batch(
                [("put", k, f"v{k}") for k in range(0, 60_000, 5_000)]
                + [("delete", 5_000)]
            )
            assert applied == 13
            assert client.get(10_000) == "v10000"
            assert client.get(5_000, default="MISS") == "MISS"
            report = server.server_report()
            assert report["scatter_batches"] == 1

    def test_cross_shard_scan_runs_as_barrier(self, served):
        server, engine = served
        with EngineClient(server.address) as client:
            client.apply_batch([("put", k, k) for k in range(0, 60_000, 1_000)])
            rows = list(client.scan(0, 59_999))
            assert rows == [(k, k) for k in range(0, 60_000, 1_000)]
            assert server.server_report()["barrier_ops"] >= 1

    def test_stats_over_the_wire_carries_server_section(self, served):
        server, _ = served
        with EngineClient(server.address) as client:
            client.put(123, "x")
            stats = client.stats()
            assert stats["server"]["accepted"] >= 1
            assert stats["server"]["workers"] == 4
            assert "persistence" in stats and "io" in stats

    def test_served_stats_helper_attaches_section(self, served):
        server, _ = served
        stats = server.stats()
        assert stats.server is not None
        assert stats.server["shards"] == 4
        assert stats.to_dict()["server"]["workers"] == 4


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_backpressure_shed_is_structured_retry(self, tmp_path):
        """backpressure_depth=0 treats every shard as stalled: writes shed
        with RETRY_AFTER (bounded client retries then a structured
        error), reads still execute."""
        engine = tiny_engine(tmp_path / "store", 4)
        server = EngineServer(
            engine,
            ServerConfig(
                port=0,
                admission=AdmissionConfig(backpressure_depth=0, retry_after_ms=1.0),
            ),
        ).start()
        try:
            with EngineClient(server.address) as client:
                with client.connection() as conn:
                    conn.max_shed_retries = 3
                    with pytest.raises(ServerError) as excinfo:
                        conn.call(Op.PUT, (1, "v", None))
                    assert excinfo.value.code == ErrCode.RETRY_AFTER
                    # Reads are not write-backpressure: still served.
                    assert conn.call(Op.GET, (1,)).result == (False, None)
            report = server.server_report()
            assert report["shed_backpressure"] > 0
            assert report["engine_errors"] == 0
        finally:
            server.stop(close_engine=True)

    def test_hot_shard_storm_sheds_without_losing_acked_writes(self, tmp_path):
        """The PR7 storm against tight admission: shedding engages (hot
        shard and/or queue caps), nothing crashes, and the shed-suffix
        retry protocol keeps the served contents digest-equal to an
        embedded replay -- i.e. no acknowledged write was lost or
        reordered."""
        operations = build_adversary(
            "hot_shard_storm", seed=0xBAD, preload=768, operations=2_048
        )
        embedded = tiny_engine(tmp_path / "embedded", 4)
        run_workload(embedded, operations)
        expected = contents_digest(embedded)
        embedded.close()

        engine = tiny_engine(tmp_path / "served", 4)
        server = EngineServer(
            engine,
            ServerConfig(
                port=0,
                admission=AdmissionConfig(
                    max_queue_depth=4,
                    hot_tighten=4,
                    hot_window_ops=128,
                    hot_share=0.5,
                    retry_after_ms=1.0,
                ),
            ),
        ).start()
        try:
            result = run_workload(
                None, operations, connect=server.address, clients=2
            )
            report = server.server_report()
            assert report["shed_total"] > 0, "storm should trip admission"
            assert report["hot_windows"] > 0, "storm should flag the hot shard"
            assert result.served["sheds_seen"] > 0
            assert contents_digest(engine) == expected
        finally:
            server.stop(close_engine=True)

    def test_inflight_cap_sheds_and_aborts_suffix(self, served):
        """A raw burst past the per-connection cap: the server sheds with
        RETRY_AFTER and aborts the same-generation suffix; the pooled
        client resubmits and every request eventually succeeds."""
        server, _ = served
        server._adm = AdmissionConfig(max_inflight_per_conn=4, retry_after_ms=1.0)
        with EngineClient(server.address, window=64) as client:
            requests = [(Op.PUT, (k, k, None)) for k in range(64)]
            results = client.pipeline(requests)
            assert all(r is not None for r in results)
        report = server.server_report()
        assert report["shed_inflight"] > 0
        assert report["pipeline_aborts"] > 0


# ---------------------------------------------------------------------------
# batching: readers route, executors and clients send in batches
# ---------------------------------------------------------------------------
class _RecordingSocket:
    """Stands in for a client socket: keeps every ``sendall``."""

    def __init__(self) -> None:
        self.sent: list[bytes] = []

    def sendall(self, data: bytes) -> None:
        self.sent.append(bytes(data))

    def shutdown(self, how: int) -> None:
        pass

    def close(self) -> None:
        pass


def decode_all(data: bytes) -> list[Frame]:
    decoder = FrameDecoder()
    decoder.feed(data)
    return list(decoder.drain())


def read_responses(sock: socket.socket, count: int) -> dict[int, Frame]:
    decoder = FrameDecoder()
    frames: dict[int, Frame] = {}
    while len(frames) < count:
        data = sock.recv(65536)
        assert data, "server hung up early"
        decoder.feed(data)
        frames.update((f.request_id, f) for f in decoder.drain())
    return frames


class TestBatching:
    def test_executor_answers_a_drained_batch_in_one_send(self, tmp_path):
        """One routed batch reaches the worker in one hand-over; the
        worker executes it in order and answers the connection once."""
        engine = tiny_engine(tmp_path / "store", 1)
        server = EngineServer(engine, ServerConfig(port=0))  # no threads
        sock = _RecordingSocket()
        conn = _Connection(sock, "test", 0)
        requests = [Frame(Op.PUT, k, 0, (k, f"v{k}", None)) for k in range(1, 21)]
        requests.append(Frame(Op.PUT, 21, 0, (5, "again", None)))
        requests.append(Frame(Op.GET, 22, 0, (5,)))
        try:
            server._route_frames(conn, requests)
            assert sock.sent == []  # every request went to the executor
            assert len(server._queues[0]) == len(requests)
            server._queues[0].put_many([_STOP])
            server._executor_loop(0)  # runs the batch, then meets the marker
            assert len(sock.sent) == 1
            replies = decode_all(sock.sent[0])
            assert [f.request_id for f in replies] == list(range(1, 23))
            assert all(f.kind == Resp.OK for f in replies)
            assert replies[-1].payload[0] == (True, "again")
            report = server.server_report()
            assert report["route_batches"] == 1
            assert report["response_sends"] == 1
            assert report["accepted"] == report["completed"] == len(requests)
            assert conn.inflight == 0
            assert len(server._queues[0]) == 0
        finally:
            engine.close()

    def test_router_answers_in_one_send_and_refuses_after_stop(self, tmp_path):
        engine = tiny_engine(tmp_path / "store", 1)
        server = EngineServer(engine, ServerConfig(port=0))
        sock = _RecordingSocket()
        conn = _Connection(sock, "test", 0)
        try:
            server._route_frames(conn, [Frame(Op.PING, 1, 0, None),
                                        Frame(Op.GET, 2, 0, "not a tuple")])
            server._routing_closed = True  # what stop() sets
            server._route_frames(conn, [Frame(Op.PUT, 3, 0, (1, "v", None))])
            assert len(sock.sent) == 2
            ping, bad = decode_all(sock.sent[0])
            assert ping.kind == Resp.OK and ping.payload[0]["shards"] == 1
            assert bad.payload["code"] == ErrCode.BAD_REQUEST
            (late,) = decode_all(sock.sent[1])
            assert late.payload["code"] == ErrCode.SHUTTING_DOWN
            assert len(server._queues[0]) == 0  # nothing reached a worker
        finally:
            engine.close()

    def test_work_queue_depth_counts_the_batch_in_progress(self):
        q = _WorkQueue()
        q.put_many(["a", "b"])
        q.put_many(["c"])
        assert len(q) == 3
        assert q.take_all() == ["a", "b", "c"]
        assert len(q) == 3  # taken, not yet finished: admission still sees it
        q.put_many(["d"])
        assert len(q) == 4
        q.done()
        assert len(q) == 1

    def test_barrier_in_a_batch_sees_what_was_routed_before_it(self, served):
        """Writes to two shards, a cross-shard scan and a later write all
        in one ``sendall``: the scan runs after the writes before it and
        before the write after it."""
        server, engine = served
        wire = b"".join([
            encode_frame(Op.PUT, 1, (10, "a", None)),
            encode_frame(Op.PUT, 2, (59_000, "b", None)),
            encode_frame(Op.SCAN, 3, (0, 59_999, None, False)),
            encode_frame(Op.PUT, 4, (10, "c", None)),
            encode_frame(Op.GET, 5, (10,)),
        ])
        raw = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        try:
            raw.sendall(wire)
            replies = read_responses(raw, 5)
        finally:
            raw.close()
        assert all(f.kind == Resp.OK for f in replies.values())
        assert replies[3].payload[0] == [(10, "a"), (59_000, "b")]
        assert replies[5].payload[0] == (True, "c")
        assert server.server_report()["barrier_ops"] == 1

    def test_concurrent_readers_and_barriers_lose_no_accounting(self, served):
        """Eight pipelining connections and cross-shard scans on more
        threads than cores, switching often: every request is answered,
        every acknowledged write is stored, and the in-flight, pending
        and queue-depth counts all return to zero."""
        server, engine = served
        errors: list[BaseException] = []

        def writer(lane: int) -> None:
            try:
                keys = range(lane * 7_000, lane * 7_000 + 6_000, 20)
                with EngineClient(server.address) as client:
                    for start in range(0, len(keys), 100):
                        chunk = keys[start:start + 100]
                        results = client.pipeline(
                            [(Op.PUT, (k, f"{lane}:{k}", None)) for k in chunk], window=32
                        )
                        assert len(results) == len(chunk)
                        client.scan(0, 59_999, limit=5)  # a barrier between chunks
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(lane,)) for lane in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for lane in range(8):
            for k in range(lane * 7_000, lane * 7_000 + 6_000, 20):
                assert engine.get(k) == f"{lane}:{k}"
        report = server.server_report()
        assert report["accepted"] == report["completed"]
        assert report["queue_depths"] == [0, 0, 0, 0]
        assert server._pending == 0
        assert all(conn.inflight == 0 for conn in server._conns.values())

    def test_client_refills_its_window_in_one_send(self, served, monkeypatch):
        server, _ = served
        sends: list[list[Frame]] = []
        original = ClientConnection._send

        def recording_send(self, data):
            sends.append(decode_all(data))
            original(self, data)

        monkeypatch.setattr(ClientConnection, "_send", recording_send)
        with EngineClient(server.address) as client:
            client.put_many((k, f"v{k}") for k in range(0, 60_000, 500))
            requests = [(Op.GET, (k,)) for k in range(0, 60_000, 500)]
            sends.clear()
            results = client.pipeline(requests, window=16)
        assert [r.result for r in results] == [(True, f"v{k}") for k in range(0, 60_000, 500)]
        assert len(sends[0]) == 16  # the first fill is one send
        assert all(1 <= len(frames) <= 16 for frames in sends)
        assert sum(len(frames) for frames in sends) == len(requests)
        # Every answer a recv delivers is handled before the next refill,
        # and a refill is one send, so there is never more than one send
        # per response.
        assert len(sends) <= len(requests) - 15


# ---------------------------------------------------------------------------
# failure handling and recovery
# ---------------------------------------------------------------------------
class TestRobustness:
    def test_mid_request_disconnect_leaves_server_healthy(self, served):
        server, engine = served
        with EngineClient(server.address) as client:
            client.put(1, "before")
        # Half a frame, then hang up mid-request.
        raw = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        raw.sendall(encode_frame(Op.PUT, 99, (2, "torn", None))[:11])
        raw.close()
        deadline = time.monotonic() + 5
        while server.server_report()["connections_closed"] < 2:
            assert time.monotonic() < deadline, "reader did not notice the disconnect"
            time.sleep(0.02)
        with EngineClient(server.address) as client:
            assert client.get(1) == "before"
            assert client.get(2, default="MISS") == "MISS"  # torn request never acked

    def test_garbage_stream_gets_structured_goodbye(self, served):
        server, _ = served
        raw = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        raw.sendall(b"\x13\x00\x00\x00 definitely not a frame......")
        decoder = FrameDecoder()
        goodbye = None
        raw.settimeout(5)
        try:
            while goodbye is None:
                data = raw.recv(4096)
                if not data:
                    break
                decoder.feed(data)
                goodbye = decoder.next_frame()
        finally:
            raw.close()
        assert goodbye is not None and goodbye.kind == Resp.ERR
        assert goodbye.payload["code"] == ErrCode.BAD_REQUEST
        assert server.server_report()["protocol_errors"] == 1
        with EngineClient(server.address) as client:  # server survived
            assert client.ping()["protocol"] == PROTOCOL_VERSION

    def test_engine_crash_mid_write_never_acks_the_lost_write(self, tmp_path):
        """Arm a crash-matrix fault point (wal.append) under the served
        engine: the hit write errors structurally instead of acking, the
        server survives, and reopening the store recovers every write
        that WAS acked."""
        from repro.storage import faults as fp
        from repro.storage.faults import FaultInjector

        directory = tmp_path / "store"
        injector = FaultInjector()
        engine = ShardedEngine(
            acheron_config(**TINY),
            directory=str(directory),
            shards=4,
            key_space=KEY_SPACE,
            faults=injector,
        )
        server = EngineServer(engine, ServerConfig(port=0)).start()
        acked = []
        crashed_key = None
        try:
            with EngineClient(server.address) as client:
                for k in range(0, 40):
                    client.put(k, f"v{k}")
                    acked.append(k)
                injector.arm(fp.WAL_APPEND, fp.CRASH)
                with pytest.raises(ServerError) as excinfo:
                    for k in range(40, 400):
                        client.put(k, f"v{k}")
                        acked.append(k)
                crashed_key = acked[-1] + 1
                assert excinfo.value.code == ErrCode.ENGINE_ERROR
                assert client.ping()["shards"] == 4  # server itself survived
            assert server.server_report()["engine_errors"] >= 1
        finally:
            server.stop(close_engine=False)
        # The "process" is gone; recover the store and audit the acks.
        recovered = ShardedEngine(directory=str(directory), degraded_ok=True)
        for k in acked:
            assert recovered.get(k) == f"v{k}", f"acked write {k} lost"
        assert recovered.get(crashed_key) is None  # errored, never acked
        recovered.close()

    def test_server_restart_reserves_the_same_store(self, tmp_path):
        directory = tmp_path / "store"
        engine = tiny_engine(directory, 4)
        server = EngineServer(engine, ServerConfig(port=0)).start()
        with EngineClient(server.address) as client:
            client.apply_batch([("put", k, f"gen1-{k}") for k in range(0, 2_000, 25)])
        server.stop(close_engine=True)

        reopened = ShardedEngine(directory=str(directory))
        second = EngineServer(reopened, ServerConfig(port=0)).start()
        try:
            with EngineClient(second.address) as client:
                assert client.get(25) == "gen1-25"
                client.put(25, "gen2-25")
                assert client.get(25) == "gen2-25"
                assert len(list(client.scan(0, 2_000))) == 80
        finally:
            second.stop(close_engine=True)

    def test_sigterm_on_the_readiness_line_still_stops_cleanly(self, tmp_path):
        """A supervisor may signal the instant it reads the readiness
        line, so the handlers must already be installed when it prints."""
        directory = tmp_path / "store"
        engine = tiny_engine(directory, 4)
        engine.apply_batch([("put", k, f"v{k}") for k in range(0, 3_000, 7)])
        engine.apply_batch([("delete", k) for k in range(0, 3_000, 35)])
        expected = contents_digest(engine)
        engine.close()

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(directory), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            rest, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert line.startswith(f"serving {directory} at "), line + rest
        assert "shutting down" in rest
        assert proc.returncode == 0

        reopened = ShardedEngine(directory=str(directory))
        try:
            assert contents_digest(reopened) == expected
        finally:
            reopened.close()

    def test_connect_after_stop_is_refused(self, tmp_path):
        engine = tiny_engine(tmp_path / "store", 1)
        server = EngineServer(engine, ServerConfig(port=0)).start()
        with EngineClient(server.address) as client:
            client.put(1, "v")
        server.stop(close_engine=True)
        with pytest.raises(Exception):  # ConnectionLost or refused connect
            with EngineClient(server.address, timeout=2) as client:
                client.get(1)
