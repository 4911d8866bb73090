"""Overlay drivers: the glue between the event engine and each design.

A driver translates engine lifecycle calls (join, leave, produce,
request) into operations on its overlay structures and reports overlay
metrics back. Three designs are wired here: the sector tree, the sector
gossip mesh, and the lag-interval assignment. The first two share the
turntable's rotating sector layout; the third has no sectors at all.
"""

from __future__ import annotations

import random
from itertools import accumulate

from tssim.config import ScenarioConfig, require_valid
from tssim.engine import DEDICATED, PRODUCER, OverlayDriver, PeerState
from tssim.interval import (
    Interval,
    IntervalGraph,
    OverlayConstraints,
    OverlayEvent,
    coverage_gaps_fast,
    repair_on_event,
    rebalance,
)
from tssim.mesh import ColorScheme, SectorMesh
from tssim.tree import SectorTree
from tssim.turntable import Holders, Turntable, sector_of_chunk

_DEPARTED = PeerState.DEPARTED  # a module global reads faster than an enum member


class _TurntableDriver(OverlayDriver):
    """Shared sector bookkeeping for the tree and mesh variants.

    `config` is the run's ScenarioConfig; the layout (`m`, `r`), the
    replication targets (`k_rep`, `k_min`) and `producer_archive` are
    read from it once it passes the scenario file's rules. `holders` is
    the run's one index of who pins each chunk: each sector's tree or
    mesh in `structures`, from the subclass's `_build_structures`,
    writes its pins to it, and the census reads it. Each structure
    answers `route_request(entry, chunk)` from the entry peer the
    turntable names.
    """

    def __init__(self, config: ScenarioConfig):
        require_valid(config)
        self.config = config
        self.holders = Holders()
        self.structures = self._build_structures(config)
        self.turntable = Turntable(m=config.m, r=config.r)
        self.permanent_losses = 0
        self.emergency_rounds = 0
        self.retained_republished = 0

    def on_produce(self, chunk_id: int, now: float) -> None:
        for rep, chunk in self.turntable.publish_chunk(chunk_id):
            self.engine.move_chunk(PRODUCER, rep, chunk, "publish")

    def _flush_retained(self, sector: int, now: float) -> None:
        """Republish parked chunks; called right after a join into `sector`."""
        rep = self.turntable.representants_of(sector)[0]
        for chunk in self.turntable.clear_retained(sector):
            self.engine.move_chunk(PRODUCER, rep, chunk, "publish")
            self.retained_republished += 1

    def on_message(self, src: int, dst: int, message: tuple, now: float) -> None:
        if message[0] == "publish":
            peer = self.engine.peers.get(dst)
            if peer is None or peer.state is _DEPARTED:
                self.engine.counters["dropped_messages"] += 1
                self.turntable.retain_for_sector(
                    sector_of_chunk(message[1], self.config.m), message[1])
                return
            self.diffuse(dst, message[1], now)

    def find_provider(self, peer_id: int, chunk_id: int, now: float):
        """The peer the sector routes to if still present, else the archive."""
        hops = 0
        entry = self.turntable.route_hookup(peer_id, chunk_id)
        if entry is not None:
            sector, start, hops = entry
            served_by, route_hops = self.structures[sector].route_request(start, chunk_id)
            hops += route_hops
            server = self.engine.peers.get(served_by)  # None on a miss
            if server is not None and server.state is not _DEPARTED:
                return (served_by, hops)
        if self.config.producer_archive:
            return (PRODUCER, hops + 1)
        return (None, hops)

    def _pin_set_drift(self, sectors: list[dict]) -> list[str]:
        """A problem for each member, of each sector's members by peer id,
        whose engine pin set is not its store or that pins another
        sector's chunk; then one holders recount over all their stores."""
        peers, m = self.engine.peers, self.config.m
        problems = []
        for sector, members in enumerate(sectors):
            for pid, member in sorted(members.items()):
                if peers[pid].pinned is not member.store:
                    problems.append(f"peer {pid}'s engine pins are not its overlay store")
                if any(chunk % m != sector for chunk in member.store):
                    problems.append(f"peer {pid} pins a chunk of another sector")
        return problems + self.holders.drift(
            (pid, member.store) for members in sectors for pid, member in members.items())

    def replica_counts(self, now: float) -> list[int]:
        count = self.holders.count
        return [count(chunk) for chunk in range(self.engine.head_chunk + 1)]


class TreeDriver(_TurntableDriver):
    """Turntable sectors, each organized as a diffusion tree."""

    def __init__(self, config: ScenarioConfig):
        super().__init__(config)
        # requester -> {next chunk: offered holder}; dropped when it leaves
        self.pending_handoff: dict[int, dict[int, int]] = {}
        # requester -> sender of its last delivered chunk; same lifetime
        self.last_server: dict[int, int] = {}

    def _build_structures(self, config: ScenarioConfig) -> list:
        return [SectorTree(fanout=config.fanout, summary_mode=config.summary_mode,
                           bloom_bits=config.bloom_bits,
                           bloom_hashes=config.bloom_hashes, holders=self.holders)
                for _ in range(config.m)]

    # -- membership -------------------------------------------------------

    def on_join(self, peer_id: int, lag: int, now: float) -> None:
        sector = self.turntable.join(peer_id)
        peer = self.engine.peers[peer_id]
        tree = self.structures[sector]
        tree.attach(peer_id, storage_capacity=peer.profile.storage_capacity)
        peer.pinned = tree.nodes[peer_id].store
        self._flush_retained(sector, now)

    def on_leave(self, peer_id: int, now: float, abrupt: bool) -> None:
        sector = self.turntable.leave(peer_id)
        self.pending_handoff.pop(peer_id, None)
        self.last_server.pop(peer_id, None)
        if abrupt:
            # the tree still lists the peer; the audit sweep finds it
            return
        self._remove_from_tree(sector, peer_id, now)

    def _remove_from_tree(self, sector: int, peer_id: int, now: float) -> None:
        """Detach a leaver and re-replicate, in one call, every chunk it
        held that is now below k_min in its sector.

        One `update_summary` walk over the leaver's chunks, ascending,
        publishes its empty store and returns those chunks; detaching
        moves no chunk, so they are still short when replicated.
        """
        tree = self.structures[sector]
        short = tree.update_summary(peer_id, removed=sorted(tree.nodes[peer_id].store),
                                    k_min=self.config.k_min)
        eng = self.engine
        tree.detach(peer_id)
        result = tree.emergency_replicate(
            short, self.config.k_rep,
            producer_archive=self.config.producer_archive)
        self.emergency_rounds += len(short)
        self.permanent_losses += len(result.lost)
        sent: dict[int, int] = {}  # source -> repair copies
        for chunk, pins in result.new_pins.items():
            src = result.fetched_from[chunk]
            sent[src] = sent.get(src, 0) + len(pins)
        eng.move_repairs(sent, result.stored)
        eng.counters["control_messages"] += sum(sent.values())

    def on_audit(self, now: float) -> None:
        """Find abruptly departed members still wired into the trees."""
        for sector, tree in enumerate(self.structures):
            departed = [
                pid for pid in sorted(tree.nodes)
                if self.engine.peers[pid].state is _DEPARTED
            ]
            for pid in departed:
                self._remove_from_tree(sector, pid, now)

    # -- chunk flow ----------------------------------------------------------

    def diffuse(self, rep: int, chunk_id: int, now: float) -> None:
        sector = sector_of_chunk(chunk_id, self.config.m)
        tree = self.structures[sector]
        pinned = tree.diffuse_chunk(chunk_id, self.config.k_rep)
        for pid in pinned:
            self.engine.move_chunk(rep, pid, chunk_id, "diffuse")
        self.engine.counters["control_messages"] += len(pinned)

    def find_provider(self, peer_id: int, chunk_id: int, now: float):
        shortcuts = self.pending_handoff.get(peer_id)
        shortcut = shortcuts.pop(chunk_id, None) if shortcuts else None
        if shortcut is not None and self.engine.has_chunk(shortcut, chunk_id):
            return (shortcut, 1)
        # named, not super(): every request would build a proxy object
        return _TurntableDriver.find_provider(self, peer_id, chunk_id, now)

    def on_chunk_delivered(self, peer_id: int, chunk_id: int, src: int,
                           now: float) -> None:
        prev = self.last_server.get(peer_id)
        self.last_server[peer_id] = src
        if src < 0:
            return
        if prev is not None and prev >= 0 and prev != src:
            self.turntable.refresh_handoff_link(prev, src)
        candidate = self.turntable.offer_handoff(src, chunk_id + 1,
                                                 self.engine.has_chunk)
        if candidate is not None:
            self.pending_handoff.setdefault(peer_id, {})[chunk_id + 1] = candidate
            self.engine.counters["control_messages"] += 1

    # -- reporting -----------------------------------------------------------------

    def periodic_check(self, now: float) -> list[str]:
        problems = [f"sector {sector}: {msg}"
                    for sector, tree in enumerate(self.structures)
                    for msg in tree.check_invariants()]
        return problems + self._pin_set_drift([tree.nodes for tree in self.structures])

    def finalize(self, now: float) -> None:
        self.on_audit(now)

    def extra_metrics(self) -> dict[str, float]:
        return {
            "permanent_losses": self.permanent_losses,
            "emergency_rounds": self.emergency_rounds,
            "retained_republished": self.retained_republished,
            "stale_handoffs": self.turntable.stale_handoffs,
            "summary_overhead_bytes": sum(
                t.summary_traffic_bytes for t in self.structures),
        }


class MeshDriver(_TurntableDriver):
    """Turntable sectors, each organized as a colored gossip mesh."""

    def _build_structures(self, config: ScenarioConfig) -> list:
        scheme = ColorScheme(colors=config.colors, sector_count=config.m)
        return [
            SectorMesh(
                scheme,
                random.Random(f"mesh:{config.seed}:{sector}"),
                gossip_period=config.gossip_period,
                max_degree=config.max_degree,
                k_rep=config.k_rep,
                request_ttl=config.request_ttl,
                holders=self.holders,
            )
            for sector in range(config.m)
        ]

    def on_join(self, peer_id: int, lag: int, now: float) -> None:
        sector = self.turntable.join(peer_id)
        profile = self.engine.peers[peer_id].profile
        member = self.structures[sector].add_peer(
            peer_id, now, storage_capacity=profile.storage_capacity)
        self.engine.peers[peer_id].pinned = member.store
        self.engine.schedule_timer(now + self.config.gossip_period, peer_id,
                                   ("gossip",))
        self._flush_retained(sector, now)

    def on_leave(self, peer_id: int, now: float, abrupt: bool) -> None:
        sector = self.turntable.leave(peer_id)
        # replicas die with the peer; gossip adoption re-fills them
        self.structures[sector].remove_peer(peer_id, now)

    def on_timer(self, owner: int, tag: tuple, now: float) -> None:
        peer = self.engine.peers.get(owner)
        if peer is None or peer.state is _DEPARTED:
            return
        mesh = self.structures[self.turntable.sector_of_peer[owner]]
        report = mesh.gossip_round(owner, now)
        eng = self.engine
        if report.partner is not None:
            eng.counters["control_messages"] += 2
        for adopter, chunk in report.adopted:
            sender = report.partner if adopter == owner else owner
            eng.move_chunk(sender, adopter, chunk, "adopt")
        eng.schedule_timer(now + self.config.gossip_period, owner, tag)

    def diffuse(self, rep: int, chunk_id: int, now: float) -> None:
        sector = sector_of_chunk(chunk_id, self.config.m)
        mesh = self.structures[sector]
        pinned = mesh.colored_diffuse(rep, chunk_id)
        for pid in pinned:
            self.engine.move_chunk(rep, pid, chunk_id, "diffuse")
        self.engine.counters["control_messages"] += max(1, len(pinned))

    def periodic_check(self, now: float) -> list[str]:
        problems = [f"sector {sector}: {msg}"
                    for sector, mesh in enumerate(self.structures)
                    for msg in mesh.check_invariants(now)]
        return problems + self._pin_set_drift([mesh.peers for mesh in self.structures])

    def finalize(self, now: float) -> None:
        if not self.config.producer_archive:
            self.permanent_losses += self.replica_counts(now).count(0)

    def extra_metrics(self) -> dict[str, float]:
        return {
            "permanent_losses": self.permanent_losses,
            "retained_republished": self.retained_republished,
            "coloring_gaps": sum(m.coloring_gaps for m in self.structures),
            "recolor_events": sum(m.recolor_events for m in self.structures),
            "route_detours": sum(m.route_detours for m in self.structures),
            "stale_view_evictions": sum(m.stale_evictions for m in self.structures),
            "domination_violations": sum(
                m.domination_report()[0] for m in self.structures),
        }


class IntervalDriver(OverlayDriver):
    """Lag-interval overlay: viewers themselves are the archive.

    Every participating viewer maintains a buffer covering a closed lag
    range around its playback position. Joins, leaves, and moves are
    patched locally; a periodic rebalance re-runs the global sweep and
    adopts its assignment when feasible. Requests are served by any
    member whose range covers the wanted lag, preferring the least
    loaded, with the producer as optional fallback.
    """

    def __init__(self, config: ScenarioConfig):
        require_valid(config)
        self.config = config
        # every member's cap comes from its profile on join
        self.constraints = OverlayConstraints(k=config.k, T=config.horizon_T)
        self.graph = IntervalGraph(T=config.horizon_T)
        self.coverage_samples = 0
        self.coverage_incidents = 0
        self.repair_incidents = 0
        self.interval_changes = 0
        self.requests_by_lag: dict[int, int] = {}
        # (l, r) spans captured at each rebalance; sessions all end by the
        # horizon, so length statistics must come from mid-run state
        self.buffer_snapshots: list[list[tuple[int, int]]] = []

    def bind(self, engine) -> None:
        super().bind(engine)
        if self.config.dedicated_server:
            self.constraints.caps[DEDICATED] = float("inf")
            self.graph.add(Interval(DEDICATED, 0, 0, self.constraints.T))
        engine.schedule_timer(self.config.rebalance_period_s,
                              PRODUCER, ("rebalance",))

    # -- membership ----------------------------------------------------------

    def _member_lag(self, lag: int) -> int:
        return max(0, min(lag, self.constraints.T))

    def on_join(self, peer_id: int, lag: int, now: float) -> None:
        profile = self.engine.peers[peer_id].profile
        self.constraints.caps[peer_id] = profile.upload_capacity
        outcome = repair_on_event(
            self.graph, self.constraints,
            OverlayEvent(kind="join", peer_id=peer_id,
                         lag=self._member_lag(lag)))
        self._account(outcome)

    def on_leave(self, peer_id: int, now: float, abrupt: bool) -> None:
        if abrupt:
            # nobody is notified; the hole stays until the next rebalance
            self.graph.remove(peer_id)
            self.constraints.caps.pop(peer_id, None)
            return
        outcome = repair_on_event(self.graph, self.constraints,
                                  OverlayEvent(kind="leave", peer_id=peer_id))
        self.constraints.caps.pop(peer_id, None)
        self._account(outcome)

    def on_move(self, peer_id: int, old_lag: int, new_lag: int, now: float) -> None:
        outcome = repair_on_event(
            self.graph, self.constraints,
            OverlayEvent(kind="move", peer_id=peer_id,
                         lag=self._member_lag(new_lag)))
        self._account(outcome)

    def _account(self, outcome) -> None:
        self.interval_changes += len(outcome.changed)
        self.engine.counters["control_messages"] += max(1, len(outcome.changed))
        if outcome.incidents:
            self.repair_incidents += len(outcome.incidents)

    # -- serving -----------------------------------------------------------------

    def find_provider(self, peer_id: int, chunk_id: int, now: float):
        lag = self.engine.head_chunk - chunk_id
        self.requests_by_lag[lag] = self.requests_by_lag.get(lag, 0) + 1
        if lag <= self.constraints.T:
            holders = self.graph.holders[lag]
            loads = self.engine._active_uploads
            # the engine keeps only senders with a transfer running, so a
            # holder missing from loads is idle, and the idle holder with
            # the lowest id is the (load, id) minimum
            idle = holders.difference(loads, (peer_id,))
            if idle:
                return (min(idle), 1)
            best = min(((loads.get(pid, 0), pid) for pid in holders
                        if pid != peer_id), default=None)
            if best is not None:
                return (best[1], 1)
        return (PRODUCER, 1) if self.config.producer_archive else (None, 0)

    # -- maintenance ----------------------------------------------------------------

    def on_timer(self, owner: int, tag: tuple, now: float) -> None:
        outcome = rebalance(self.graph, self.constraints)
        self._account(outcome)
        self._sample_coverage()
        self.buffer_snapshots.append([
            (iv.l, iv.r) for iv in self.graph.intervals()
            if iv.peer_id != DEDICATED
        ])
        self.engine.schedule_timer(now + self.config.rebalance_period_s,
                                   PRODUCER, tag)

    def _sample_coverage(self) -> None:
        self.coverage_samples += 1
        gaps = coverage_gaps_fast(self.graph, self.constraints.k,
                                  self.constraints.T)
        if gaps:
            self.coverage_incidents += 1

    # -- reporting ---------------------------------------------------------------------

    def replica_counts(self, now: float) -> list[int]:
        cover = self.graph.coverage()
        head, T = self.engine.head_chunk, self.constraints.T
        return [cover[head - chunk] if head - chunk <= T else 0
                for chunk in range(head + 1)]

    def periodic_check(self, now: float) -> list[str]:
        problems = []
        peers = self.engine.peers
        for iv in self.graph.intervals():
            if not (0 <= iv.l <= iv.c <= iv.r):
                problems.append(f"malformed interval for peer {iv.peer_id}")
            if (iv.peer_id != DEDICATED
                    and peers[iv.peer_id].state is _DEPARTED):
                problems.append(f"departed peer {iv.peer_id} still holds an interval")
        problems.extend(self.graph.index_drift())
        return problems

    def finalize(self, now: float) -> None:
        self._sample_coverage()

    def buffer_length_by_decile(self) -> tuple[float, float] | None:
        """Mean buffer length in the most- vs least-requested lag decile.

        Lengths are drawn from the rebalance-time snapshots, because by
        the time a report is collected every session has ended and the
        live graph is empty.
        """
        if not self.requests_by_lag:
            return None
        T = self.constraints.T
        totals = [0] * (T + 1)
        for lag, n in self.requests_by_lag.items():
            if 0 <= lag <= T:
                totals[lag] += n
        order = sorted(range(T + 1), key=lambda lag: (-totals[lag], lag))
        decile = max(1, (T + 1) // 10)
        hot = set(order[:decile])
        cold = set(order[-decile:])

        def mean_len(lags: set[int]) -> float:
            # below[t]: how many of the lags are below t, for t in 0..T + 1
            below = list(accumulate((lag in lags for lag in range(T + 1)),
                                    initial=0))
            lengths = [r - l for snapshot in self.buffer_snapshots
                       for l, r in snapshot
                       if l <= T and below[min(r, T) + 1] > below[l]]
            return sum(lengths) / len(lengths) if lengths else 0.0

        return mean_len(hot), mean_len(cold)

    def extra_metrics(self) -> dict[str, float]:
        frac = (self.coverage_incidents / self.coverage_samples
                if self.coverage_samples else 0.0)
        metrics = {
            "coverage_incident_fraction": frac,
            "repair_incidents": self.repair_incidents,
            "interval_changes": self.interval_changes,
            "members_final": sum(
                1 for pid in self.graph.vertices if pid != DEDICATED),
        }
        deciles = self.buffer_length_by_decile()
        if deciles is not None:
            hot, cold = deciles
            metrics["buffer_mean_hot_decile"] = hot
            metrics["buffer_mean_cold_decile"] = cold
        return metrics
