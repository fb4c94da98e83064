"""Served-engine observability: admission, shedding, and throughput.

The mirror of :mod:`repro.metrics.writepath` for the network front door:
turns the server's raw admission counters (the ``server`` section of
:class:`~repro.core.engine.EngineStats`, produced by
:meth:`~repro.server.core.EngineServer.server_report`) into derived
aggregates and a rendered table.  Experiments use it to show *where
requests went* -- how many were executed, how many were shed at the door
(and by which signal: pipelining cap, queue depth, hot shard, flush
backpressure), and how much of the shed volume was the pipeline-abort
suffix rather than the triggering request.

Read-only over the report dict; works on a live server's
``server_report()`` or on a stats dict a client fetched over the wire.
"""

from __future__ import annotations

from typing import Any

from repro.metrics.reporting import format_table


def server_load_report(server: dict[str, Any]) -> dict[str, Any]:
    """Derived aggregates over a raw ``server`` counters section.

    Adds:

    ``shed_rate``
        Shed responses as a fraction of all admission decisions
        (accepted + shed) -- the headline admission-pressure number.
    ``abort_amplification``
        Pipeline-abort responses per triggering shed (how much suffix
        each shed dragged down with it; 0 when nothing was shed).
    ``completion_rate``
        Completed over accepted (1.0 once the server is drained).
    """
    shed = server.get("shed_total", 0)
    accepted = server.get("accepted", 0)
    decisions = accepted + shed
    aborts = server.get("pipeline_aborts", 0)
    return {
        **server,
        "shed_rate": shed / decisions if decisions else 0.0,
        "abort_amplification": aborts / shed if shed else 0.0,
        "completion_rate": server.get("completed", 0) / accepted if accepted else 0.0,
    }


def format_server_load(server: dict[str, Any], name: str = "server") -> str:
    """The served-engine report as an aligned two-column table."""
    report = server_load_report(server)
    queue_depths = report.get("queue_depths", [])
    hot = report.get("hot_shards", [])
    rows = [
        ["workers x shards", f"{report.get('workers', 0)} x {report.get('shards', 0)}"],
        ["connections (open/ever)",
         f"{report.get('connections_open', 0)}/{report.get('connections_opened', 0)}"],
        ["requests accepted", report.get("accepted", 0)],
        ["requests completed", report.get("completed", 0)],
        ["completion rate", f"{report['completion_rate']:.3f}"],
        ["batches routed", report.get("route_batches", 0)],
        ["response sends", report.get("response_sends", 0)],
        ["barrier ops", report.get("barrier_ops", 0)],
        ["scatter batches", report.get("scatter_batches", 0)],
        ["shed total", report.get("shed_total", 0)],
        ["shed rate", f"{report['shed_rate']:.4f}"],
        ["  shed: in-flight cap", report.get("shed_inflight", 0)],
        ["  shed: queue depth", report.get("shed_queue", 0)],
        ["  shed: hot shard", report.get("shed_hot_shard", 0)],
        ["  shed: backpressure", report.get("shed_backpressure", 0)],
        ["pipeline aborts", report.get("pipeline_aborts", 0)],
        ["abort amplification", f"{report['abort_amplification']:.2f}"],
        ["hot windows flagged", report.get("hot_windows", 0)],
        ["hot shards (now)", ", ".join(map(str, hot)) if hot else "(none)"],
        ["executor queues (now)", "/".join(map(str, queue_depths)) or "(none)"],
        ["bad requests", report.get("bad_requests", 0)],
        ["engine errors", report.get("engine_errors", 0)],
        ["protocol errors", report.get("protocol_errors", 0)],
    ]
    return format_table(["served engine", "value"], rows, title=f"[{name}] admission")
