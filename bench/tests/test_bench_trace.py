import importlib

from bench import metrics
from bench.trace import TRACE_POINTS, Aggregates, TracePoint, Tracer


def resolve(point):
    module = importlib.import_module(point.module)
    owner_name, _, attr = point.attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    if point.kind == "bound_get":
        attr = "__init__"
    return owner.__dict__[attr] if owner_name else getattr(owner, attr)


def test_install_patches_and_uninstall_restores_everything():
    import repro.core.engine
    import repro.server.client
    import repro.server.core
    import repro.server.protocol

    before = {point.name: resolve(point) for point in TRACE_POINTS}
    original = repro.server.protocol.encode_frame
    tracer = Tracer().install()
    try:
        assert tracer.missing == []
        assert all(resolve(p) is not before[p.name] for p in TRACE_POINTS)
        # `from x import f` aliases in importing modules see the wrapper too.
        assert repro.server.client.encode_frame is repro.server.protocol.encode_frame
        assert repro.server.core.encode_frame is not original
        assert repro.core.engine.lazy_range_delete.__wrapped__ is before["lazy_range_delete"]
    finally:
        tracer.uninstall()
    assert {point.name: resolve(point) for point in TRACE_POINTS} == before
    assert repro.server.client.encode_frame is original
    assert repro.server.core.encode_frame is original
    assert repro.core.engine.lazy_range_delete is before["lazy_range_delete"]


def test_a_removed_trace_point_is_reported_missing_and_reads_null():
    gone = [
        TracePoint("core.fade", "repro.core.fade", "FadeScheduler.no_such_method"),
        TracePoint("lsm.tree", "repro.no_such_module", "f"),
    ]
    tracer = Tracer(gone).install()
    tracer.uninstall()
    assert tracer.missing == ["FadeScheduler.no_such_method", "f"]
    ledger = metrics.Ledger()
    aggregates = Aggregates([], ["FadeScheduler.plan"])
    ledger.put("core.fade.plan_calls", aggregates.calls("FadeScheduler.plan"),
               reason="trace point missing")
    ledger.ratio("core.fade.plan_us_per_call", aggregates.total("FadeScheduler.plan"), 10)
    assert ledger.metrics["core.fade.plan_calls"]["value"] is None
    assert ledger.metrics["core.fade.plan_us_per_call"]["reason"] == "trace point missing"


class Clock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class Tree:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 5  # outer's own work
        self.inner()
        self.inner()
        self.clock.now += 1
        return "done"

    def inner(self):
        self.clock.now += 10
        self.leaf()

    def leaf(self):
        self.clock.now += 2
        return None


def test_self_time_is_duration_minus_children():
    clock = Clock()
    points = [TracePoint("a", __name__, f"Tree.{name}") for name in ("outer", "inner")]
    points.append(TracePoint("b", __name__, "Tree.leaf", kind="count"))
    with Tracer(points, clock=clock) as tracer:
        Tree(clock).outer()
    rows = {(r["name"], r["parent"]): r for r in tracer.aggregates()}
    outer, inner = rows[("Tree.outer", None)], rows[("Tree.inner", "Tree.outer")]
    assert (outer["calls"], outer["total_ns"], outer["self_ns"], outer["hits"]) == (1, 30, 6, 1)
    assert (inner["calls"], inner["total_ns"], inner["self_ns"], inner["hits"]) == (2, 24, 24, 0)
    assert rows[("Tree.leaf", None)]["calls"] == 2  # counted, never timed
    summary = Aggregates(tracer.aggregates(), tracer.missing)
    assert summary.root_total_ns() == 30
    assert summary.layer_self_ns() == {"a": 30}
    assert not hasattr(Tree.outer, "__wrapped__")
