"""The traced pass: timing and counting wrappers installed from outside.

:class:`Tracer` patches one table of entry points (``TRACE_POINTS``) for
the duration of a pass and restores every original afterwards, including
``from x import f`` aliases other modules hold.  The program is not
edited: spans inside it are a later issue.

A *span* wrapper records name, start, end and parent on a per-thread
stack.  Aggregates (calls, total, self, hits, bytes) are kept for every
``(name, parent)`` pair; self time is duration minus the time covered by
child spans.  Raw spans are kept only for one root operation in
``RAW_SAMPLE_EVERY`` and for every root operation slower than
``RAW_SLOW_NS``.  A *count* wrapper only counts calls (and non-None
results) on leaves too hot to time.

A trace point whose module, class or attribute no longer exists is listed
in ``Tracer.missing`` and its metrics read ``null``; it never raises.

Aggregates are plain list slots updated without a lock.  In the served
process, where several threads run wrappers, an update can be lost when two
collide, so counts there are exact to within a few in a hundred thousand.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

RAW_SAMPLE_EVERY = 128
RAW_SLOW_NS = 1_000_000
#: Raw spans kept of one root operation (a pipelined request list is one
#: root with tens of thousands of children).
RAW_MAX_PER_ROOT = 256


@dataclass(frozen=True)
class TracePoint:
    layer: str
    module: str
    #: ``Class.method`` or a module-level function name.
    attr: str
    #: ``span``; ``scan`` (a span that also drains the returned iterator,
    #: so the lazy merge is timed where it belongs); ``count``; or
    #: ``bound_get`` (``Memtable.get`` is rebound per instance in
    #: ``__init__``, so the counter is installed there).
    kind: str = "span"
    #: Bytes to accumulate: ``"result"`` or ``"arg"`` (first positional).
    size_of: str | None = None

    @property
    def name(self) -> str:
        return self.attr


def _points(layer: str, module: str, owner: str, names: str, **kw: Any) -> list[TracePoint]:
    prefix = f"{owner}." if owner else ""
    return [TracePoint(layer, module, prefix + name, **kw) for name in names.split()]


TRACE_POINTS: list[TracePoint] = [
    *_points("server.client", "repro.server.client", "ClientConnection", "call pipeline"),
    TracePoint("server.protocol", "repro.server.protocol", "encode_frame", size_of="result"),
    TracePoint("server.protocol", "repro.server.protocol", "FrameDecoder.feed", size_of="arg"),
    TracePoint("server.protocol", "repro.server.protocol", "FrameDecoder.next_frame"),
    *_points("shard.engine", "repro.shard.engine", "ShardedEngine",
             "put get delete delete_range apply_batch flush stats"),
    TracePoint("shard.engine", "repro.shard.engine", "ShardedEngine.scan", kind="scan"),
    *_points("core.engine", "repro.core.engine", "AcheronEngine",
             "put get delete delete_range apply_batch flush stats"),
    TracePoint("core.engine", "repro.core.engine", "AcheronEngine.scan", kind="scan"),
    # _flush is private, but a put-triggered flush never passes through
    # flush(); without it the largest write stall would have no span.
    *_points("lsm.tree", "repro.lsm.tree", "LSMTree",
             "put get delete apply_batch flush _flush maintain"),
    TracePoint("lsm.tree", "repro.lsm.tree", "LSMTree.scan", kind="scan"),
    *_points("lsm.compaction", "repro.lsm.compaction.executor", "", "merge_task install_task"),
    TracePoint("core.fade", "repro.core.fade", "FadeScheduler.plan"),
    *_points("core.kiwi", "repro.core.kiwi", "", "kiwi_range_delete lazy_range_delete"),
    *_points("storage.wal", "repro.storage.wal", "WriteAheadLog", "append append_many truncate"),
    *_points("storage.filestore", "repro.storage.filestore", "FileStore",
             "write_sstable write_manifest"),
    *_points("filters.bloom", "repro.filters.bloom", "BloomFilter", "build from_hash_pairs"),
    TracePoint("lsm.memtable", "repro.lsm.memtable", "Memtable.add", kind="count"),
    TracePoint("lsm.memtable", "repro.lsm.memtable", "Memtable.get", kind="bound_get"),
    TracePoint("filters.bloom", "repro.filters.bloom", "BloomFilter.might_contain_hashed",
               kind="count"),
    *_points("storage.cache", "repro.storage.cache", "BlockCache", "get put", kind="count"),
    TracePoint("shard.partition", "repro.shard.partition", "PartitionMap.shard_for", kind="count"),
    *_points("storage.disk", "repro.storage.disk", "SimulatedDisk", "read_pages write_pages",
             kind="count"),
]


class Tracer:
    """Installs ``points``, aggregates what they see, restores on exit."""

    def __init__(
        self,
        points: list[TracePoint] | None = None,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.points = list(TRACE_POINTS if points is None else points)
        self.clock = clock
        self.missing: list[str] = []
        self._index = {point.name: i for i, point in enumerate(self.points)}
        width = len(self.points) + 1  # parent slot 0 is "no parent"
        self._width = width
        size = len(self.points) * width
        self._calls = [0] * size
        self._total = [0] * size
        self._self = [0] * size
        self._hits = [0] * size
        self._bytes = [0] * size
        self._tls = threading.local()
        #: Kept raw spans: (root id, thread, name, start, end, parent index).
        self.raw: list[tuple] = []
        self._roots = 0
        self._patched: list[tuple[Any, str, Any]] = []  # (owner, attr, original)
        self._aliases: list[tuple[Any, Any]] = []  # (wrapper, original)

    # -- wrappers -------------------------------------------------------
    def _span(self, point: TracePoint, fn: Callable) -> Callable:
        idx = self._index[point.name]
        width, clock, tls = self._width, self.clock, self._tls
        calls, total, selfs = self._calls, self._total, self._self
        hits, sizes, raw = self._hits, self._bytes, self.raw
        drain = point.kind == "scan"
        size_of = point.size_of

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                stack, spans = tls.stack, tls.spans
            except AttributeError:
                stack, spans = tls.stack, tls.spans = [], []
            frame = [idx, 0, len(spans)]  # name, child time, own span index
            parent = stack[-1] if stack else None
            span = [idx, 0, 0, parent[2] if parent else -1]
            spans.append(span)
            stack.append(frame)
            result = None
            span[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
                return result
            finally:
                span[2] = end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                    slot = idx * width + parent[0] + 1
                else:
                    slot = idx * width
                calls[slot] += 1
                total[slot] += duration
                selfs[slot] += duration - frame[1]
                if result is not None:
                    hits[slot] += 1
                    if size_of == "result":
                        sizes[slot] += len(result)
                if size_of == "arg":
                    sizes[slot] += len(args[-1])
                if parent is None:
                    self._roots += 1
                    if self._roots % RAW_SAMPLE_EVERY == 0 or duration > RAW_SLOW_NS:
                        thread = threading.get_ident()
                        raw.extend((self._roots, thread, *s) for s in spans[:RAW_MAX_PER_ROOT])
                    spans.clear()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _count(self, point: TracePoint, fn: Callable) -> Callable:
        slot = self._index[point.name] * self._width
        calls, hits = self._calls, self._hits

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[slot] += 1
            result = fn(*args, **kwargs)
            if result is not None:
                hits[slot] += 1
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _bound_get(self, point: TracePoint, init: Callable) -> Callable:
        count = self._count

        def wrapper(instance: Any, *args: Any, **kwargs: Any) -> None:
            init(instance, *args, **kwargs)
            instance.get = count(point, instance.get)

        wrapper.__wrapped__ = init  # type: ignore[attr-defined]
        return wrapper

    # -- install / restore ----------------------------------------------
    def install(self) -> "Tracer":
        for point in self.points:
            try:
                self._install_point(point)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(point.name)
        return self

    def _install_point(self, point: TracePoint) -> None:
        module = importlib.import_module(point.module)
        owner_name, _, attr = point.attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if point.kind == "bound_get":
            getattr(owner, attr)  # the point is gone if the class has no get
            attr = "__init__"
        raw = inspect.getattr_static(owner, attr)
        make = {"count": self._count, "bound_get": self._bound_get}.get(point.kind, self._span)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper: Any = type(raw)(make(point, raw.__func__))
        else:
            wrapper = make(point, raw)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, raw))
        if not owner_name:
            # from-import aliases: every module global bound to the
            # original function must see the wrapper too.
            self._aliases.append((wrapper, raw))
            _rebind_globals(raw, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for wrapper, original in self._aliases:
            # Also catches modules first imported while tracing was on.
            _rebind_globals(wrapper, original)
        self._patched.clear()
        self._aliases.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------
    def reset(self) -> None:
        """Forget everything seen so far (called when set-up ends)."""
        for table in (self._calls, self._total, self._self, self._hits, self._bytes):
            table[:] = [0] * len(table)
        self.raw.clear()
        self._roots = 0

    def aggregates(self) -> list[dict]:
        """One row per ``(name, parent)`` pair that was seen."""
        rows = []
        width = self._width
        for idx, point in enumerate(self.points):
            for parent in range(width):
                slot = idx * width + parent
                if self._calls[slot]:
                    rows.append(
                        {
                            "name": point.name,
                            "layer": point.layer,
                            "kind": "count" if point.kind in ("count", "bound_get") else "span",
                            "parent": self.points[parent - 1].name if parent else None,
                            "calls": self._calls[slot],
                            "total_ns": self._total[slot],
                            "self_ns": self._self[slot],
                            "hits": self._hits[slot],
                            "bytes": self._bytes[slot],
                        }
                    )
        return rows

    def write_spans(self, path: str) -> None:
        """The kept raw spans, one JSON object per line."""
        names = [point.name for point in self.points]
        with open(path, "w") as out:
            for root, thread, idx, start, end, parent in self.raw:
                row = {"root": root, "thread": thread, "name": names[idx],
                       "start_ns": start, "end_ns": end, "parent": parent}
                out.write(json.dumps(row) + "\n")


def _rebind_globals(old: Any, new: Any) -> None:
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(namespace.items()):
            if value is old:
                namespace[name] = new


class Aggregates:
    """Queries over :meth:`Tracer.aggregates` rows."""

    def __init__(self, rows: list[dict], missing: list[str]) -> None:
        self.rows = rows
        self.missing = set(missing)

    def total(self, names: str | list[str], field: str = "total_ns",
              parent: str | None = "*") -> int | None:
        """``field`` summed over the rows of ``names`` (under ``parent`` only,
        when given); None when one of the trace points is missing."""
        names = [names] if isinstance(names, str) else names
        if self.missing.intersection(names):
            return None
        return sum(
            row[field]
            for row in self.rows
            if row["name"] in names and (parent == "*" or row["parent"] == parent)
        )

    def calls(self, names: str | list[str]) -> int | None:
        return self.total(names, "calls")

    def hits(self, names: str | list[str]) -> int | None:
        return self.total(names, "hits")

    def self_ns(self, names: str | list[str]) -> int | None:
        return self.total(names, "self_ns")

    def root_total_ns(self) -> int:
        """Time covered by spans that had no parent (whole operations)."""
        return sum(r["total_ns"] for r in self.rows if r["parent"] is None and r["kind"] == "span")

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer; sums to :meth:`root_total_ns`."""
        out: dict[str, int] = {}
        for row in self.rows:
            if row["kind"] == "span":
                out[row["layer"]] = out.get(row["layer"], 0) + row["self_ns"]
        return out
