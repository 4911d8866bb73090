"""Deterministic discrete-event core shared by all three overlays.

The engine owns the clock, the event queue, peer lifecycle, and a
simplified transport: fixed per-hop latency, one transfer rate for every
chunk, per-peer upload capacity with FIFO queueing, and silent drops to
departed peers. It reads the stream shape, horizon, transport and
audit and sample periods from the run's ScenarioConfig, which it checks
by the scenario file's rules. Overlay logic lives in driver objects; the
engine asks a driver where a chunk can be found and handles the transfer
bookkeeping itself.

Viewers move in lag space by tssim.stream's rule, which the workload
plans sessions with too: a playing viewer keeps a constant lag, so its
position advances with the stream head; a paused viewer takes its lag
increase on resume, and a seek sets the lag from its target. Every
chunk_duration a playing viewer ticks: it plays what it has, or asks the
overlay for the chunk at its position. A chunk that cannot be found is
skipped at the next tick rather than retried forever, which models a
player abandoning a lost segment and keeps every run bounded.

A viewer that left is sealed at the next audit, right after the
driver's: its store becomes a SealedStore and its pin set a shared empty
one, so memory follows the audience present, not all who ever joined.
Before that audit the tree may still pin chunks to an abrupt leaver it
has not detached; mesh and interval never write to a departed peer. A
sealed store answers `in` and `len` as before; a write to it raises.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from tssim.config import ScenarioConfig, require_valid
from tssim.stream import (
    StreamParams,
    air_time,
    chunk_duration,
    head_chunk_at,
    resumed_lag,
)
from tssim.workload import PeerProfile, SessionEvent, SessionEventKind

PRODUCER = -1
DEDICATED = -2  # optional always-on server peer (interval overlay)


class InvariantViolation(Exception):
    """Raised in checked mode when a structural invariant breaks."""


@dataclass(slots=True)
class ProduceChunk:
    chunk_id: int


@dataclass(slots=True)
class MessageDelivery:
    src: int
    dst: int
    message: tuple


@dataclass(slots=True)
class TimerFire:
    owner: int
    tag: tuple


class PeerState(Enum):
    PLAYING = "playing"
    PAUSED = "paused"
    DEPARTED = "departed"


class SealedStore(array):
    """A departed viewer's chunk ids, sorted: SealedStore("i", sorted(store))."""

    __slots__ = ()

    def __contains__(self, chunk_id: int) -> bool:
        i = bisect_left(self, chunk_id)
        return i < len(self) and self[i] == chunk_id

    def __setitem__(self, chunk_id: int, stamp: int) -> None:
        raise InvariantViolation(f"write of chunk {chunk_id} to a sealed store")


NO_PINS: frozenset[int] = frozenset()


@dataclass(slots=True)
class PeerRuntime:
    profile: PeerProfile
    state: PeerState
    lag: int  # chunks behind the head; 0 = live edge
    joined_at: float
    store: dict[int, int] = field(default_factory=dict)  # chunk -> use stamp
    pinned: set[int] = field(default_factory=set)
    tick_epoch: int = 0
    first_delivery: float | None = None
    served: int = 0


class Engine:
    """Event loop plus transport. One instance = one run = one thread."""

    def __init__(self, config: ScenarioConfig, driver,
                 check_invariants: bool = False):
        require_valid(config)
        self.stream = StreamParams(
            bitrate_bps=config.stream_kbps * 1000,
            chunk_size_bytes=int(config.chunk_mb * 1_000_000),
        )
        self.horizon = config.horizon_s
        self.config = config
        self.driver = driver
        self.checked = check_invariants
        self._transfer_time = (self.stream.chunk_size_bytes * 8
                               / (config.transfer_kbps * 1000))
        self._chunk_duration = chunk_duration(self.stream)

        self.now = 0.0
        self.head_chunk = -1
        self._heap: list[tuple[float, int, object]] = []
        self._seq = 0
        self.peers: dict[int, PeerRuntime] = {}
        self._left_since_audit: list[int] = []

        self._active_uploads: dict[int, int] = {}  # senders with a transfer running
        self._upload_queue: dict[int, deque] = {}
        self._profiles: dict[int, PeerProfile] = {}

        self.counters = {
            "chunks_produced": 0,
            "chunks_requested": 0,
            "chunks_delivered": 0,
            "chunks_missed": 0,
            "chunks_served_local": 0,
            "live_chunks": 0,
            "control_messages": 0,
            "dropped_messages": 0,
            "producer_upload_bytes": 0,
            "transfer_bytes": 0,
        }
        self.hops_histogram: dict[int, int] = {}
        self.startup_delays: list[float] = []
        # one (time, counts) pair per sample; counts[c] is chunk c's census
        self.replica_samples: list[tuple[float, array]] = []

        driver.bind(self)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, time: float, payload) -> None:
        heapq.heappush(self._heap, (time, self._seq, payload))
        self._seq += 1

    def schedule_timer(self, time: float, owner: int, tag: tuple) -> None:
        self.schedule(time, TimerFire(owner=owner, tag=tag))

    # -- transport --------------------------------------------------------------

    def send_control(self, src: int, dst: int, message: tuple) -> None:
        """One control message, one hop away."""
        self.counters["control_messages"] += 1
        self.schedule(self.now + self.config.hop_latency_s,
                      MessageDelivery(src, dst, message))

    def send_chunk(self, src: int, dst: int, chunk_id: int, hops: int) -> None:
        """Move one chunk; `src` runs at most upload_capacity transfers at once."""
        if src == PRODUCER or src == DEDICATED:
            self.counters["producer_upload_bytes"] += self.stream.chunk_size_bytes
            self._deliver_chunk(src, dst, chunk_id, hops)
            return
        peer = self.peers.get(src)
        if peer is None or peer.state is PeerState.DEPARTED:
            self.counters["dropped_messages"] += 1
            return
        active = self._active_uploads.get(src, 0)
        if active < peer.profile.upload_capacity:
            self._start_transfer(src, dst, chunk_id, hops)
        else:
            self._upload_queue.setdefault(src, deque()).append((dst, chunk_id, hops))

    def _start_transfer(self, src: int, dst: int, chunk_id: int, hops: int) -> None:
        peer = self.peers[src]
        self._active_uploads[src] = self._active_uploads.get(src, 0) + 1
        if self._active_uploads[src] > peer.profile.upload_capacity:
            raise InvariantViolation(f"peer {src} exceeded its upload capacity")
        peer.served += 1
        self._deliver_chunk(src, dst, chunk_id, hops)
        self.schedule_timer(self.now + self._transfer_time, src, ("slot_free",))

    def _deliver_chunk(self, src: int, dst: int, chunk_id: int, hops: int) -> None:
        self.counters["transfer_bytes"] += self.stream.chunk_size_bytes
        delay = self._transfer_time + self.config.hop_latency_s * max(1, hops)
        self.schedule(self.now + delay,
                      MessageDelivery(src, dst, ("chunk", chunk_id, src)))

    def _on_slot_free(self, src: int) -> None:
        self._active_uploads[src] -= 1
        if not self._active_uploads[src]:
            del self._active_uploads[src]
        queue = self._upload_queue.get(src)
        while queue:
            dst, chunk_id, hops = queue.popleft()
            target = self.peers.get(dst)
            if target is None or target.state is PeerState.DEPARTED:
                self.counters["dropped_messages"] += 1
                continue
            self._start_transfer(src, dst, chunk_id, hops)
            break
        if queue is not None and not queue:
            del self._upload_queue[src]

    # -- stores ---------------------------------------------------------------------

    def store_chunk(self, peer_id: int, chunk_id: int, pin: bool = False) -> bool:
        """LRU insert; pinned chunks are never evicted. False = no room."""
        peer = self.peers[peer_id]
        if peer.pinned is NO_PINS:
            raise InvariantViolation(f"peer {peer_id} is sealed; cannot store {chunk_id}")
        if pin:
            peer.pinned.add(chunk_id)
        if chunk_id in peer.store:
            peer.store[chunk_id] = self._seq
            return True
        while len(peer.store) >= peer.profile.storage_capacity:
            evictable = [c for c in peer.store if c not in peer.pinned]
            if not evictable:
                if pin:
                    peer.pinned.discard(chunk_id)
                return False
            victim = min(evictable, key=lambda c: (peer.store[c], c))
            del peer.store[victim]
        peer.store[chunk_id] = self._seq
        return True

    def has_chunk(self, peer_id: int, chunk_id: int) -> bool:
        peer = self.peers.get(peer_id)
        return peer is not None and chunk_id in peer.store

    # -- viewer lifecycle -------------------------------------------------------------

    def _on_session_event(self, evt: SessionEvent) -> None:
        kind = evt.kind
        if kind is SessionEventKind.JOIN:
            self._on_join(evt)
            return
        peer = self.peers.get(evt.peer_id)
        if peer is None or peer.state is PeerState.DEPARTED:
            return
        if kind is SessionEventKind.LEAVE:
            peer.state = PeerState.DEPARTED
            peer.tick_epoch += 1
            self._left_since_audit.append(evt.peer_id)
            self.driver.on_leave(evt.peer_id, self.now, evt.abrupt)
        elif kind is SessionEventKind.PAUSE:
            if peer.state is PeerState.PAUSED:
                return
            peer.state = PeerState.PAUSED
            peer.tick_epoch += 1
            duration = evt.duration or 0.0
            self.schedule_timer(self.now + duration, evt.peer_id,
                                ("resume", peer.tick_epoch, duration))
        elif kind in (SessionEventKind.SEEK_FORWARD, SessionEventKind.SEEK_BACKWARD):
            assert evt.target is not None
            target = max(0, min(evt.target, self.head_chunk))
            old_lag = peer.lag
            peer.lag = self.head_chunk - target
            if peer.lag != old_lag:
                self.driver.on_move(evt.peer_id, old_lag, peer.lag, self.now)

    def _on_join(self, evt: SessionEvent) -> None:
        profile = self._profiles[evt.peer_id]
        position = min(evt.position or 0, max(0, self.head_chunk))
        lag = max(0, self.head_chunk - position)
        self.peers[evt.peer_id] = PeerRuntime(
            profile=profile, state=PeerState.PLAYING, lag=lag, joined_at=self.now,
        )
        self.driver.on_join(evt.peer_id, lag, self.now)
        self.schedule_timer(self.now, evt.peer_id, ("tick", 0))

    def _on_resume(self, peer_id: int, epoch: int, duration: float) -> None:
        peer = self.peers.get(peer_id)
        if peer is None or peer.state is not PeerState.PAUSED:
            return
        if peer.tick_epoch != epoch:
            return
        old_lag = peer.lag
        peer.lag = resumed_lag(self.stream, peer.lag, duration, self.head_chunk)
        peer.state = PeerState.PLAYING
        if peer.lag != old_lag:
            self.driver.on_move(peer_id, old_lag, peer.lag, self.now)
        self.schedule_timer(self.now, peer_id, ("tick", peer.tick_epoch))

    def _viewer_tick(self, fire: TimerFire) -> None:
        """Play or request one chunk, then reschedule this same timer."""
        peer_id = fire.owner
        peer = self.peers.get(peer_id)
        # pause and leave bump the epoch, so a matching tick is a playing viewer's
        if peer is None or peer.tick_epoch != fire.tag[1]:
            return
        position = self.head_chunk - peer.lag
        if self.head_chunk >= 0 and position >= 0:
            self._consume(peer_id, peer, position)
        self.schedule(self.now + self._chunk_duration, fire)

    def _consume(self, peer_id: int, peer: PeerRuntime, position: int) -> None:
        if peer.lag == 0:
            # live edge: fed by the producer's live broadcast, not the archive
            self.counters["live_chunks"] += 1
            self.store_chunk(peer_id, position)
            self._first_delivery(peer, 0.0)
            return
        if self.driver.has_local(peer_id, position, self.now):
            self.counters["chunks_served_local"] += 1
            if position in peer.store:
                peer.store[position] = self._seq
            self._first_delivery(peer, 0.0)
            return
        self.counters["chunks_requested"] += 1
        server, hops = self.driver.find_provider(peer_id, position, self.now)
        if server is None:
            self.counters["control_messages"] += hops
            self.counters["chunks_missed"] += 1
            return
        self.counters["control_messages"] += max(1, hops)
        self.hops_histogram[hops] = self.hops_histogram.get(hops, 0) + 1
        self.send_chunk(server, peer_id, position, hops)

    def _first_delivery(self, peer: PeerRuntime, delay: float) -> None:
        """Record the startup delay at a viewer's first played chunk."""
        if peer.first_delivery is None:
            peer.first_delivery = self.now
            self.startup_delays.append(delay)

    def _on_chunk_arrival(self, src: int, dst: int, chunk_id: int) -> None:
        peer = self.peers.get(dst)
        if peer is None or peer.state is PeerState.DEPARTED:
            self.counters["dropped_messages"] += 1
            return
        self.counters["chunks_delivered"] += 1
        self.store_chunk(dst, chunk_id)
        self._first_delivery(peer, self.now - peer.joined_at)
        self.driver.on_chunk_delivered(dst, chunk_id, src, self.now)

    # -- main loop ------------------------------------------------------------------------

    def run(self, sessions: list[SessionEvent],
            profiles: dict[int, PeerProfile]) -> None:
        """Process every event up to the horizon, in (time, seq) order."""
        self._profiles = profiles
        end = self.horizon

        chunk_id = 0
        while (airs := air_time(self.stream, chunk_id)) <= end:
            self.schedule(airs, ProduceChunk(chunk_id))
            chunk_id += 1
        for evt in sessions:
            if evt.time <= end:
                self.schedule(evt.time, evt)
        if self.horizon > 0:
            self.schedule_timer(self.config.sample_period_s, PRODUCER, ("sample",))
            self.schedule_timer(self.config.audit_period_s, PRODUCER, ("audit",))

        heap, pop, dispatch = self._heap, heapq.heappop, self._dispatch
        while heap:
            time, _, payload = pop(heap)
            if time > end:
                break
            self.now = time
            dispatch(payload)

        self.now = end
        self.driver.finalize(self.now)
        if self.checked:
            self._run_checks()

    def _dispatch(self, payload) -> None:
        kind = type(payload)  # exact types, the most frequent first
        if kind is TimerFire:
            tag = payload.tag
            name = tag[0]
            if name == "tick":
                self._viewer_tick(payload)
            elif name == "slot_free":
                self._on_slot_free(payload.owner)
            elif name == "resume":
                self._on_resume(payload.owner, tag[1], tag[2])
            elif name == "sample":
                self._take_sample()
                self.schedule_timer(self.now + self.config.sample_period_s,
                                    PRODUCER, ("sample",))
            elif name == "audit":
                self.driver.on_audit(self.now)
                self._seal_departed()
                if self.checked:
                    self._run_checks()
                self.schedule_timer(self.now + self.config.audit_period_s,
                                    PRODUCER, ("audit",))
            else:
                self.driver.on_timer(payload.owner, tag, self.now)
        elif kind is MessageDelivery:
            msg = payload.message
            if msg[0] == "chunk":
                self._on_chunk_arrival(msg[2], payload.dst, msg[1])
            else:
                self.driver.on_message(payload.src, payload.dst, msg, self.now)
        elif kind is SessionEvent:
            self._on_session_event(payload)
        elif kind is ProduceChunk:
            self.head_chunk = payload.chunk_id
            self.counters["chunks_produced"] += 1
            self.driver.on_produce(payload.chunk_id, self.now)

    def _take_sample(self) -> None:
        self.replica_samples.append(
            (self.now, array("i", self.driver.replica_counts(self.now))))

    def _seal_departed(self) -> None:
        """Shrink the state of every viewer that left since the last audit."""
        for pid in self._left_since_audit:
            peer = self.peers[pid]
            peer.store = SealedStore("i", sorted(peer.store))
            peer.pinned = NO_PINS
        self._left_since_audit.clear()

    def _run_checks(self) -> None:
        problems = self.driver.periodic_check(self.now)
        for pid, peer in sorted(self.peers.items()):
            if len(peer.store) > peer.profile.storage_capacity:
                problems.append(f"peer {pid} store exceeds capacity")
        for pid, active in sorted(self._active_uploads.items()):
            if active > self.peers[pid].profile.upload_capacity:
                problems.append(f"peer {pid} exceeds upload capacity")
        if problems:
            raise InvariantViolation("; ".join(problems))

    # -- derived views ----------------------------------------------------------------------

    def availability_ratio(self) -> float:
        requested = self.counters["chunks_requested"]
        if requested == 0:
            return 0.0
        return self.counters["chunks_delivered"] / requested


class OverlayDriver:
    """Base driver: no overlay, every request misses. Drivers override."""

    def bind(self, engine: Engine) -> None:
        self.engine = engine

    def on_join(self, peer_id: int, lag: int, now: float) -> None:
        pass

    def on_leave(self, peer_id: int, now: float, abrupt: bool) -> None:
        pass

    def on_move(self, peer_id: int, old_lag: int, new_lag: int, now: float) -> None:
        pass

    def on_produce(self, chunk_id: int, now: float) -> None:
        pass

    def on_chunk_delivered(self, peer_id: int, chunk_id: int, src: int,
                           now: float) -> None:
        pass

    def on_message(self, src: int, dst: int, message: tuple, now: float) -> None:
        pass

    def on_timer(self, owner: int, tag: tuple, now: float) -> None:
        pass

    def on_audit(self, now: float) -> None:
        pass

    def has_local(self, peer_id: int, chunk_id: int, now: float) -> bool:
        return self.engine.has_chunk(peer_id, chunk_id)

    def find_provider(self, peer_id: int, chunk_id: int, now: float):
        """(serving peer, hops); the peer is None on a miss."""
        return (None, 0)

    def replica_counts(self, now: float) -> list[int]:
        """Replica count of every chunk, indexed by chunk id 0..head."""
        return []

    def periodic_check(self, now: float) -> list[str]:
        return []

    def finalize(self, now: float) -> None:
        pass

    def extra_metrics(self) -> dict[str, float]:
        return {}


def produced_chunks_within(stream: StreamParams, horizon: float) -> int:
    """How many chunks complete during [0, horizon]."""
    if horizon <= 0:
        return 0
    return max(0, head_chunk_at(stream, horizon) + 1)
