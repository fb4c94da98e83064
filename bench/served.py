"""The ``served_kv`` workload: a real ``repro serve`` process over loopback.

Set-up builds a 4-shard durable store embedded, closes it, starts the CLI
``serve`` on it as a subprocess and connects two ``ClientConnection``s.
Connection *i* owns shards 2*i* and 2*i*+1: every key it touches and every
scan it issues stays inside them, so per-shard operation order -- and with
it the final contents and every modeled counter -- does not depend on how
the two connections interleave.

Three phases, in this order.  ``warm`` is an untimed pipelined burst: on
this sandbox the first second or two of two-core load after a quiet spell
runs about 40 % faster than the load sustained (10.9k against 7.6k
requests/s in the sizing probe), and the burst burns that off so that what
follows does not depend on what ran before the benchmark.  ``saturate`` is
a closed loop: each connection ``pipeline()``s a fixed request list.
``paced`` is an open loop: each connection issues ``call()`` on a fixed
schedule and each request is timed from the instant it was due, so a stall
charges the requests queued behind it.
"""

from __future__ import annotations

import gc
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from bench import gen, workloads
from bench.gen import DELETE, GET, PUT, SCAN
from bench.workloads import Failed, PassData, Spec

CONNECTIONS = 2
#: Paced phase: requests per second per connection, and its share of --seconds.
PACED_RATE = 1_000
PACED_SHARE = 0.5
#: Warm-up burst, as a share of the saturate phase's request count.
WARM_SHARE = 0.5
PIPELINE_WINDOW = 32
#: A paced phase whose generator ran later than this at the median is overloaded.
SEND_LAG_LIMIT_US = 5_000.0

_READY = re.compile(r"^serving .* at (\S+:\d+) \(\d+ shard\(s\)\)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def to_request(op: tuple) -> tuple[int, Any]:
    from repro.server.protocol import Op

    kind = op[0]
    if kind == GET:
        return Op.GET, (op[1],)
    if kind == PUT:
        return Op.PUT, (op[1], op[2], op[3])
    if kind == DELETE:
        return Op.DELETE, (op[1],)
    if kind == SCAN:
        return Op.SCAN, (op[1], op[2], None, False)
    raise ValueError(f"served_kv issues no {kind!r}")


def from_response(op: tuple, result: Any) -> Any:
    """A wire result in the shape the embedded call would have returned."""
    if op[0] == GET:
        found, value = result
        return value if found else None
    if op[0] == SCAN:
        return gen.scan_fingerprint(result)
    return None


class Server:
    """One ``repro serve`` subprocess (through the tracing launcher when
    ``trace_dump`` is set) and what /proc says about it."""

    def __init__(self, directory: str, root: Path, trace_dump: str | None) -> None:
        # No ambient REPRO_* arming, serial trees.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["REPRO_WORKERS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if trace_dump:
            command = [sys.executable, "-m", "bench.serve_traced", trace_dump]
        else:
            command = [sys.executable, "-m", "repro.cli"]
        self.proc = subprocess.Popen(
            command + ["serve", directory, "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        self.address = self._wait_ready()

    def _wait_ready(self) -> str:
        assert self.proc.stdout is not None
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.proc.wait()
                raise RuntimeError(f"server exited before ready (rc={self.proc.returncode})")
            match = _READY.match(line.strip())
            if match:
                return match.group(1)

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def voluntary_switches(self) -> int:
        total = 0
        for status in Path(f"/proc/{self.proc.pid}/task").glob("*/status"):
            try:
                text = status.read_text()
            except OSError:  # the thread ended between glob and read
                continue
            match = re.search(r"^voluntary_ctxt_switches:\s+(\d+)", text, re.M)
            total += int(match.group(1)) if match else 0
        return total

    def peak_rss_mb(self) -> float:
        text = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"^VmHWM:\s+(\d+) kB", text, re.M).group(1)) / 1024.0

    def stop(self) -> int:
        """SIGTERM until it exits, SIGKILL past 30 s; returns the exit code.

        The signal is repeated because CPython can leave one unhandled
        when it lands just as the main thread blocks in ``Event.wait``
        (seen when a server was stopped within a millisecond of its
        readiness line; bench/README.md, "Not measured").
        """
        for _ in range(15):
            if self.proc.poll() is not None:
                break
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                continue
        else:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


class Deployment:
    """A store built embedded, the server on it and the client connections.

    Ready means the server answered ``STATS``; :meth:`close` hangs up and
    stops the server, and is what every exit path goes through.
    """

    def __init__(self, spec: Spec, directory: str, key_hi: int, streams: list[gen.Stream],
                 root: Path, trace_dump: str | None) -> None:
        from repro.server.client import ClientConnection
        from repro.server.protocol import Op

        engine = workloads.open_engine(spec, directory, key_hi)
        for stream in streams:
            workloads.apply_setup(engine, stream)
        engine.close()
        self.directory = directory
        self.conns: list[Any] = []
        self.server = Server(directory, root, trace_dump)
        try:
            self.conns = [ClientConnection(self.server.address) for _ in range(CONNECTIONS)]
            for conn in self.conns:
                conn.connect()
            self.stats = self.conns[0].call(Op.STATS, None).result
        except BaseException:
            self.close()
            raise

    def close(self) -> int:
        for conn in self.conns:
            conn.close()
        return self.server.stop()


def check_loaded_config(spec: Spec, stats: dict) -> list[str]:
    """The store is self-describing; the server must have loaded its config."""
    problems = []
    want_cache = spec.config["cache_pages"] * spec.shards
    if stats["cache"].get("capacity_pages") != want_cache:
        problems.append(f"server cache capacity {stats['cache'].get('capacity_pages')} != {want_cache}")
    want_threshold = spec.config["delete_persistence_threshold"]
    if stats["persistence"].get("threshold") != want_threshold:
        problems.append(f"server D_th {stats['persistence'].get('threshold')} != {want_threshold}")
    if stats["server"].get("shards") != spec.shards:
        problems.append(f"server has {stats['server'].get('shards')} shards, not {spec.shards}")
    return problems


def paced_phase(conn: Any, ops: list[tuple], requests: list[tuple], latency_ns: list[int],
                got: list[Any], offset: int, lag_ns: list[int], start_ns: int,
                cpu_ns: list[int]) -> None:
    """Issue ``requests`` on the fixed schedule; results land at ``offset``."""
    interval = 1_000_000_000 // PACED_RATE
    now = time.perf_counter_ns
    cpu0 = time.thread_time_ns()
    for i, op in enumerate(ops):
        due = start_ns + i * interval
        wait = due - now()
        if wait > 0:
            time.sleep(wait / 1e9)
        kind, payload = requests[i]
        sent = now()
        try:
            result = from_response(op, conn.call(kind, payload).result)
        except Exception as exc:  # noqa: BLE001 - a failed op is a counted result
            result = Failed(exc)
        latency_ns[offset + i] = now() - due
        lag_ns[i] = sent - due
        got[offset + i] = result
    cpu_ns.append(time.thread_time_ns() - cpu0)


def saturate_phase(conn: Any, ops: list[tuple], requests: list[tuple], latency_ns: list[int],
                   got: list[Any], offset: int, cpu_ns: list[int]) -> None:
    cpu0 = time.thread_time_ns()
    try:
        results = conn.pipeline(requests, window=PIPELINE_WINDOW)
    except Exception as exc:  # noqa: BLE001 - the whole list failed
        failure = Failed(exc)
        for i in range(len(ops)):
            got[offset + i] = failure
        return
    finally:
        cpu_ns.append(time.thread_time_ns() - cpu0)
    for i, (op, res) in enumerate(zip(ops, results)):
        latency_ns[offset + i] = int(res.wall_us * 1e3)
        got[offset + i] = from_response(op, res.result)


def in_threads(target: Any, per_connection: list[tuple]) -> float:
    """Run ``target(*args)`` once per connection, concurrently; wall seconds."""
    threads = [threading.Thread(target=target, args=args) for args in per_connection]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def run_served(spec: Spec, seed: int, seconds: float, scale: float, setup_repeats: int,
               workdir: Path, root: Path, trace_dump: str | None, tracer: Any = None) -> PassData:
    from repro.server.protocol import Op

    sizes = spec.sizes(seconds, scale)
    # Requests per connection, phase by phase.
    saturate_n = sizes.ops
    warm_n = int(saturate_n * WARM_SHARE)
    paced_n = max(100, int(PACED_RATE * seconds * PACED_SHARE * scale))
    per_conn = warm_n + saturate_n + paced_n
    span = spec.key_span(sizes.preload, per_conn)
    key_hi = span * CONNECTIONS

    started = time.perf_counter()
    streams = [
        gen.generate(seed * 1_000 + i, spec.mix, per_conn, sizes.preload, i * span,
                     (i + 1) * span, preload_deletes=sizes.preload_deletes)
        for i in range(CONNECTIONS)
    ]
    requests = [[to_request(op) for op in stream.ops] for stream in streams]
    generate_s = time.perf_counter() - started

    deployment = None
    setup_s = []
    for repeat in range(setup_repeats):
        if deployment is not None:
            deployment.close()
            shutil.rmtree(deployment.directory)
        # Only the measured server dumps a trace.
        dump = trace_dump if repeat == setup_repeats - 1 else None
        started = time.perf_counter()
        deployment = Deployment(spec, str(workdir / f"served-{repeat}"), key_hi, streams, root, dump)
        setup_s.append(time.perf_counter() - started)
    gc.collect()
    gc.freeze()

    server, conns, directory = deployment.server, deployment.conns, deployment.directory
    try:
        before = deployment.stats
        problems = check_loaded_config(spec, before)
        boundaries = list(conns[0].call(Op.PING, None).result["boundaries"])
        total = per_conn * CONNECTIONS
        latency_ns = [0] * total
        got: list[Any] = [None] * total
        lag_ns = [[0] * paced_n for _ in conns]
        paced_cpu_ns: list[int] = []
        saturate_cpu_ns: list[int] = []
        if tracer is not None:
            tracer.reset()  # the set-up is not part of the traced phase

        server_cpu0, switches0 = server.cpu_seconds(), server.voluntary_switches()
        # Connection i owns the slice of the shared lists at i * per_conn.
        def slices(first: int, count: int, rest: Any) -> list[tuple]:
            return [
                (conns[i], streams[i].ops[first:first + count],
                 requests[i][first:first + count], latency_ns, got, i * per_conn + first, *rest(i))
                for i in range(CONNECTIONS)
            ]

        def space_amp_now() -> float:
            stats = conns[0].call(Op.STATS, None).result
            return float(stats["amplification"]["space_amplification"])

        in_threads(saturate_phase, slices(0, warm_n, lambda i: ([],)))
        space_amp = [space_amp_now()]
        saturate_wall = in_threads(
            saturate_phase, slices(warm_n, saturate_n, lambda i: (saturate_cpu_ns,)))
        space_amp.append(space_amp_now())
        start_ns = time.perf_counter_ns() + 20_000_000
        paced_wall = in_threads(
            paced_phase,
            slices(warm_n + saturate_n, paced_n, lambda i: (lag_ns[i], start_ns, paced_cpu_ns)))
        if tracer is not None:
            tracer.uninstall()
        server_cpu_s = server.cpu_seconds() - server_cpu0
        switches = server.voluntary_switches() - switches0

        started = time.perf_counter()
        after = conns[0].call(Op.STATS, None).result
        stats_ms = (time.perf_counter() - started) * 1e3
        space_amp.append(float(after["amplification"]["space_amplification"]))
        server_rss = server.peak_rss_mb()
        sheds = sum(conn.sheds_seen for conn in conns)
        reconnects = sum(conn.reconnects for conn in conns)
    finally:
        exit_code = deployment.close()
    if exit_code != 0:
        problems.append(f"server exited with code {exit_code} on SIGTERM")

    dir_bytes = workloads.directory_bytes(directory)
    started = time.perf_counter()
    reopened = workloads.open_engine(spec, directory, key_hi, fresh=False)
    reopen_s = time.perf_counter() - started
    expected = gen.contents_digest(
        (k, s.model.rows[k][0]) for s in streams for k in sorted(s.model.rows)
    )
    if workloads.stored_digest(reopened, key_hi) != expected:
        problems.append("contents digest after SIGTERM and reopen differs from the model")
    try:
        reopened.verify_invariants()
    except Exception as exc:  # noqa: BLE001 - any invariant failure fails the run
        problems.append(f"verify_invariants: {type(exc).__name__}: {exc}")
    reopened.close()

    lag_all = sorted(lag for lags in lag_ns for lag in lags)
    return PassData(
        spec=spec, streams=streams, latency_ns=latency_ns, got=got,
        wall_s=paced_wall + saturate_wall, setup_s=setup_s,
        generate_s=generate_s, before=before, after=after, stats_ms=stats_ms,
        space_amp=space_amp, compactions=[], range_reports=[], boundaries=boundaries,
        peak_rss_mb=server_rss, dir_bytes=dir_bytes, reopen_s=reopen_s, problems=problems,
        served={
            "saturate_requests": saturate_n * CONNECTIONS,
            #: Indices (into the concatenated streams) of the paced requests.
            "paced_index": [i * per_conn + warm_n + saturate_n + j
                            for i in range(CONNECTIONS) for j in range(paced_n)],
            "paced_wall_s": paced_wall,
            "saturate_wall_s": saturate_wall,
            "paced_cpu_s": sum(paced_cpu_ns) / 1e9,
            "saturate_cpu_s": sum(saturate_cpu_ns) / 1e9,
            "send_lag_ns": lag_all,
            "server_cpu_s": server_cpu_s,
            "server_voluntary_switches": switches,
            "sheds_seen": sheds,
            "reconnects": reconnects,
            "client_peak_rss_mb": workloads.peak_rss_mb(),
        },
    )
