"""Per-layer spans for the traced benchmark run.

`install()` wraps the public entry points of every tssim layer from the
outside: module functions where run_scenario or a driver looks them up,
class methods of the engine and the overlay structures, and the hooks
of the one driver instance a run builds. Nothing under src/ changes,
and the wrappers exist only in the traced process.

A span records calls and wall time; its self time is its total time
minus the time of spans nested inside it, so the self times of one run
add up to the time spent inside the outermost spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

DRIVER_HOOKS = (
    "on_join", "on_leave", "on_move", "on_produce", "on_chunk_delivered",
    "on_message", "on_timer", "on_audit", "has_local", "find_provider",
    "replica_counts", "finalize",
)
TURNTABLE_OPS = ("route_hookup", "offer_handoff")
TREE_OPS = ("update_summary", "emergency_replicate", "replica_count",
            "route_request", "diffuse_chunk", "attach", "detach")
MESH_OPS = ("gossip_round", "route_request", "replica_count",
            "colored_diffuse", "add_peer", "remove_peer")
INTERVAL_OPS = ("repair_on_event", "rebalance", "sweep_assign_bounds",
                "coverage_gaps_fast")
EVENT_KINDS = ("tick", "chunk", "slot_free", "gossip", "publish", "join",
               "leave", "pause", "resume", "seek_forward", "seek_backward",
               "produce", "audit", "sample", "rebalance")
OUTCOME_COUNTERS = ("chunks_requested", "chunks_delivered", "chunks_missed",
                    "dropped_messages")


class Spans:
    """Call counts, total and self wall time per span name, in memory."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # nested time of each open span

    def wrap(self, name: str, fn, tally=None):
        """`fn` timed as span `name`; `tally(result)` is added to counts[name]."""
        calls, total, self_s, counts = self.calls, self.total, self.self_s, self.counts
        calls[name] += 0  # a span that never runs still reports 0 calls
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = open_spans.pop()
                calls[name] += 1
                total[name] += elapsed
                self_s[name] += elapsed - nested
                if open_spans:
                    open_spans[-1] += elapsed
            if tally is not None:
                counts[name] += tally(result)
            return result

        return span

    def count(self, name: str, fn, kind=None):
        """`fn` counted, not timed; `kind(*args)` adds a per-kind count."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            if kind is not None:
                counts[f"{name}.{kind(*args)}"] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, name: str, tally=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), tally))


def _event_kind(engine_mod, workload_mod):
    def kind(_engine, _time, payload) -> str:
        if isinstance(payload, engine_mod.TimerFire):
            return payload.tag[0]
        if isinstance(payload, engine_mod.MessageDelivery):
            return payload.message[0]
        if isinstance(payload, workload_mod.SessionEvent):
            return payload.kind.value
        if isinstance(payload, engine_mod.ProduceChunk):
            return "produce"
        return type(payload).__name__
    return kind


def install(spans: Spans) -> None:
    """Wrap every layer's public entry points for the rest of the process."""
    from tssim import drivers, engine, interval, metrics, mesh, tree, turntable, workload

    # run_scenario looks these up in its own module
    spans.patch(metrics, "build_timeline", "stream.build_timeline")
    spans.patch(metrics, "generate_sessions", "workload.generate_sessions")
    spans.patch(metrics, "generate_profiles", "workload.generate_profiles")
    spans.patch(metrics, "collect_report", "metrics.collect_report")

    Engine = engine.Engine
    spans.patch(Engine, "run", "engine")
    spans.patch(Engine, "store_chunk", "engine.store_chunk")
    Engine.schedule = spans.count("engine.events", Engine.schedule,
                                  _event_kind(engine, workload))
    Engine.send_chunk = spans.count("engine.send_chunk", Engine.send_chunk)
    Engine.send_control = spans.count("engine.send_control", Engine.send_control)

    # Each tally counts the outcome behind one ratio in layer_metrics.
    tallies = {
        "drivers.find_provider": lambda r: r is not None and r[0] == engine.PRODUCER,
        "turntable.offer_handoff": lambda r: r is not None,
        "tree.emergency_replicate": lambda r: not r.new_pins,
        "mesh.gossip_round": lambda r: len(r.adopted),
        "mesh.route_request": lambda r: r.served_by is not None,
        "interval.sweep_assign_bounds": lambda r: isinstance(r, interval.Infeasible),
    }
    build_driver = metrics.build_driver

    def instrumented_driver(*args, **kwargs):
        driver = build_driver(*args, **kwargs)
        for hook in DRIVER_HOOKS:
            name = f"drivers.{hook}"
            spans.patch(driver, hook, name, tallies.get(name))
        return driver

    metrics.build_driver = instrumented_driver

    for op in TURNTABLE_OPS:
        name = f"turntable.{op}"
        spans.patch(turntable.Turntable, op, name, tallies.get(name))
    for op in TREE_OPS:
        name = f"tree.{op}"
        spans.patch(tree.SectorTree, op, name, tallies.get(name))
    for op in MESH_OPS:
        name = f"mesh.{op}"
        spans.patch(mesh.SectorMesh, op, name, tallies.get(name))

    # drivers.py imported these three by name; rebalance looks up the
    # sweep and the gap check in interval's own namespace.
    spans.patch(drivers, "repair_on_event", "interval.repair_on_event")
    spans.patch(drivers, "rebalance", "interval.rebalance")
    gaps = spans.wrap("interval.coverage_gaps_fast", interval.coverage_gaps_fast)
    drivers.coverage_gaps_fast = gaps
    interval.coverage_gaps_fast = gaps
    spans.patch(interval, "sweep_assign_bounds", "interval.sweep_assign_bounds",
                tallies["interval.sweep_assign_bounds"])


def layer_metrics(spans: Spans, scale: float) -> dict[str, float]:
    """Every per-layer value the traced process itself can measure.

    Each span gives `<span>.calls` and `<span>.self_s`; the span "engine"
    is Engine.run, so its self time is `engine.self_s`. Times are
    multiplied by `scale`, the run's scaled over wall time. The workload
    sizes, outcome counters, events_per_s, invariants.failed and
    trace_overhead_ratio come from elsewhere and are added by the caller.
    """
    calls, counts = spans.calls, spans.counts
    total = {name: t * scale for name, t in spans.total.items()}
    self_s = {name: t * scale for name, t in spans.self_s.items()}

    def ratio(name: str) -> float:
        return counts[name] / calls[name] if calls[name] else 0.0

    out: dict[str, float] = {
        "stream.build_timeline.s": total["stream.build_timeline"],
        "workload.generate_sessions.s": total["workload.generate_sessions"],
        "workload.generate_profiles.s": total["workload.generate_profiles"],
        "engine.events": counts["engine.events"],
        "engine.send_chunk.calls": counts["engine.send_chunk"],
        "engine.send_control.calls": counts["engine.send_control"],
        "drivers.find_provider.producer_ratio": ratio("drivers.find_provider"),
        "turntable.offer_handoff.hit_ratio": ratio("turntable.offer_handoff"),
        "tree.emergency_replicate.noop_ratio": ratio("tree.emergency_replicate"),
        "mesh.gossip_round.adopted_per_call": ratio("mesh.gossip_round"),
        "mesh.route_request.served_ratio": ratio("mesh.route_request"),
        "interval.sweep_assign_bounds.infeasible_ratio": ratio(
            "interval.sweep_assign_bounds"),
        "metrics.collect_report.s": total["metrics.collect_report"],
        "metrics.emit_report.s": total["metrics.emit_report"],
    }
    for kind in EVENT_KINDS:
        out[f"engine.events.{kind}"] = counts[f"engine.events.{kind}"]
    for span in list(calls):
        out[f"{span}.calls"] = calls[span]
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    return out
