"""Deterministic discrete-event core shared by all three overlays.

The engine owns the clock, the event queue, peer lifecycle, and a
simplified transport: fixed per-hop latency, one transfer rate for every
chunk, per-peer upload capacity with FIFO queueing, and silent drops to
departed peers. It reads the stream shape, horizon, transport and
audit and sample periods from the run's ScenarioConfig, which it checks
by the scenario file's rules. Overlay logic lives in driver objects; the
engine asks a driver where a requested chunk can be found and sends it,
and `move_chunk` is the one way a driver copies a chunk itself: a
publish, a pin, a repair or an adoption. A tree departure's repairs go
in one `move_repairs` call, which moves each destination's chunks
together. One table charges every move. Another, `_OUTCOMES`, names
every way a chunk request ends; `_resolve` alone counts an outcome, and
a checked run checks that ended plus pending requests equal those made.

Every event passes through `Engine.schedule` and comes off the queue
through `Engine._dispatch`, in (time, seq) order. The queue is two
parts. What is known before the loop starts (every chunk's production,
every session event, the first sample and audit timers) moves from the
heap to one sorted list, the planned list; the heap keeps only what the
run itself schedules, so its size follows the audience present, not
the whole run's. A planned event has a lower seq than any event the run
schedules, so at equal times it goes first.

A timer's handler is found by one lookup of its tag's first element in
a table built with the engine: "tick", "slot_free", "resume", "sample"
and "audit" are the engine's own, and any other tag (a mesh gossip
round, an interval rebalance) goes to the driver's `on_timer`.

Viewers move in lag space by tssim.stream's rule, which the workload
plans sessions with too: a playing viewer keeps a constant lag, so its
position advances with the stream head; a paused viewer takes its lag
increase on resume, and a seek sets the lag from its target. Every
chunk_duration a playing viewer ticks: it plays what it has, or asks the
overlay for the chunk at its position. A chunk that cannot be found is
skipped at the next tick rather than retried forever, which models a
player abandoning a lost segment and keeps every run bounded.

A viewer's store is an LRU cache that never evicts a pinned chunk. The
pins are the overlay's: at join the tree and mesh drivers hand over the
structure's own member set as `PeerRuntime.pinned`, which the engine
only reads. A viewer that left is sealed at the next audit, right after
the driver's: its store becomes a SealedStore, and a shared empty set
replaces its pin set reference, so memory follows the audience present,
not all who ever joined. Before that audit the tree may still pin
chunks to an abrupt leaver it has not detached; mesh and interval never
write to a departed peer. A sealed store answers `in` and `len` as
before; a write to it raises.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from operator import itemgetter

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
_DEPARTED = PeerState.DEPARTED
_SLOT_FREE = ("slot_free",)  # every slot-free timer shares this tag
# a chunk move's purpose -> (adds to the sender's served, adds transfer_bytes);
# a move from the producer or DEDICATED adds producer_upload_bytes, not served
_CHARGES = {
    "request": (True, True),
    "publish": (False, False),
    "diffuse": (False, False),
    "repair": (True, False),
    "adopt": (False, True),
}
# how a chunk request ends -> the summary counter that outcome adds to
_OUTCOMES = {
    "delivered": "chunks_delivered",
    "refused": "chunks_delivered",  # it arrived, but every store entry is pinned
    "missed": "chunks_missed",  # no provider
    "sender_left": "dropped_messages",
    "receiver_left": "dropped_messages",  # while queued or in flight
}


@dataclass(slots=True)
class PeerRuntime:
    profile: PeerProfile
    state: PeerState
    lag: int  # chunks behind the head; 0 = live edge
    joined_at: float
    store: dict[int, int] = field(default_factory=dict)  # chunk -> use stamp
    # the overlay's own pin set, read only; sealing swaps in NO_PINS
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
        self._hop_latency = config.hop_latency_s
        self._chunk_bytes = self.stream.chunk_size_bytes

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
        self.moves = dict.fromkeys(_CHARGES, 0)  # chunk moves by purpose
        self.outcomes = dict.fromkeys(_OUTCOMES, 0)  # ended requests by outcome
        # queued transfers started after their sender left; they still arrive
        self.departed_sender_starts = 0
        self.hops_histogram: dict[int, int] = {}
        self.startup_delays: list[float] = []
        # one (time, counts) pair per sample; counts[c] is chunk c's census
        self.replica_samples: list[tuple[float, array]] = []

        # the engine's own timers by tag[0]; any other tag is the driver's
        self._timers = {
            "tick": self._viewer_tick,
            "slot_free": self._on_slot_free,
            "resume": self._on_resume,
            "sample": self._on_sample,
            "audit": self._on_audit,
        }

        driver.bind(self)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, time: float, payload) -> None:
        heappush(self._heap, (time, self._seq, payload))
        self._seq += 1

    def schedule_timer(self, time: float, owner: int, tag: tuple) -> None:
        self.schedule(time, TimerFire(owner, tag))

    # -- transport --------------------------------------------------------------

    def send_control(self, src: int, dst: int, message: tuple) -> None:
        """One control message, one hop away."""
        self.counters["control_messages"] += 1
        self.schedule(self.now + self._hop_latency,
                      MessageDelivery(src, dst, message))

    def send_chunk(self, src: int, dst: int, chunk_id: int, hops: int) -> None:
        """Move one requested chunk; a peer runs at most upload_capacity at once."""
        if src >= 0:
            peer = self.peers.get(src)
            if peer is None or peer.state is _DEPARTED:
                self._resolve("sender_left")
                return
            if self._active_uploads.get(src, 0) >= peer.profile.upload_capacity:
                self._upload_queue.setdefault(src, deque()).append((dst, chunk_id, hops))
                return
        self._start_transfer(src, dst, chunk_id, hops)

    def _start_transfer(self, src: int, dst: int, chunk_id: int, hops: int) -> None:
        """Schedule a request's arrival, then take a peer sender's upload slot."""
        self._charge(src, "request")
        now, transfer = self.now, self._transfer_time
        self.schedule(now + (transfer + self._hop_latency * max(1, hops)),
                      MessageDelivery(src, dst, ("chunk", chunk_id, src)))
        if src >= 0:
            active = self._active_uploads
            running = active[src] = active.get(src, 0) + 1
            if running > self.peers[src].profile.upload_capacity:
                raise InvariantViolation(f"peer {src} exceeded its upload capacity")
            self.schedule(now + transfer, TimerFire(src, _SLOT_FREE))

    def move_chunk(self, src: int, dst: int, chunk_id: int, purpose: str) -> None:
        """Copy a chunk for the overlay's upkeep, at once and with no upload slot:
        a publish goes as a control message, any other purpose into `dst`'s store."""
        self._charge(src, purpose)
        if purpose == "publish":
            self.send_control(src, dst, ("publish", chunk_id))
        else:
            self.store_chunk(dst, chunk_id)

    def move_repairs(self, sent: dict[int, int], received: dict[int, list[int]]) -> None:
        """A departure's repair copies, as one `move_chunk` call per copy
        would make them: `sent` counts each source's copies, and `received`
        lists each destination's chunks in the order stored. A store with
        room for all of its chunks takes them in one update."""
        for src, copies in sent.items():
            self._charge(src, "repair", copies)
        peers, stamp = self.peers, self._seq
        for dst, chunks in received.items():
            peer = peers[dst]
            store = peer.store
            if (peer.pinned is not NO_PINS
                    and len(store) + len(chunks) <= peer.profile.storage_capacity):
                store.update(dict.fromkeys(chunks, stamp))
            else:  # the LRU rule, or the sealed store's refusal
                for chunk_id in chunks:
                    self.store_chunk(dst, chunk_id)

    def _charge(self, src: int, purpose: str, copies: int = 1) -> None:
        """Count chunk moves of any purpose, by the table in _CHARGES."""
        served, transferred = _CHARGES[purpose]
        self.moves[purpose] += copies
        if src < 0:
            self.counters["producer_upload_bytes"] += copies * self._chunk_bytes
        elif served:
            self.peers[src].served += copies
        if transferred:
            self.counters["transfer_bytes"] += copies * self._chunk_bytes

    def _on_slot_free(self, fire: TimerFire) -> None:
        src = fire.owner
        active = self._active_uploads
        running = active[src] - 1
        if running:
            active[src] = running
        else:
            del active[src]
        queue = self._upload_queue.get(src)
        if queue is None:
            return
        peers = self.peers
        while queue:
            dst, chunk_id, hops = queue.popleft()
            target = peers.get(dst)
            if target is None or target.state is _DEPARTED:
                self._resolve("receiver_left")
                continue
            if peers[src].state is _DEPARTED:
                self.departed_sender_starts += 1
            self._start_transfer(src, dst, chunk_id, hops)
            break
        if not queue:
            del self._upload_queue[src]

    # -- stores ---------------------------------------------------------------------

    def store_chunk(self, peer_id: int, chunk_id: int) -> bool:
        """LRU insert; False = no room, every entry is pinned. The overlay
        pins a chunk in its own set first, and only within capacity."""
        peer = self.peers[peer_id]
        store, pinned = peer.store, peer.pinned
        if pinned is NO_PINS:
            raise InvariantViolation(f"peer {peer_id} is sealed; cannot store {chunk_id}")
        if chunk_id in store:
            store[chunk_id] = self._seq
            return True
        capacity = peer.profile.storage_capacity
        while len(store) >= capacity:
            # the least recently stamped unpinned chunk, the lower id on a tie
            victim = min(((stamp, c) for c, stamp in store.items()
                          if c not in pinned), default=None)
            if victim is None:
                return False
            del store[victim[1]]
        store[chunk_id] = self._seq
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
        if peer is None or peer.state is _DEPARTED:
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

    def _on_resume(self, fire: TimerFire) -> None:
        peer_id, (_, epoch, duration) = fire.owner, fire.tag
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
        head, lag = self.head_chunk, peer.lag
        position = head - lag
        if head >= 0 and position >= 0:
            if lag == 0:
                # live edge: fed by the producer's live broadcast, not the archive
                self.counters["live_chunks"] += 1
                self.store_chunk(peer_id, position)
                if peer.first_delivery is None:
                    self._first_delivery(peer, 0.0)
            elif position in peer.store:
                self.counters["chunks_served_local"] += 1
                peer.store[position] = self._seq
                if peer.first_delivery is None:
                    self._first_delivery(peer, 0.0)
            else:
                counters = self.counters
                counters["chunks_requested"] += 1
                server, hops = self.driver.find_provider(peer_id, position, self.now)
                if server is None:
                    counters["control_messages"] += hops
                    self._resolve("missed")
                else:
                    counters["control_messages"] += max(1, hops)
                    histogram = self.hops_histogram
                    histogram[hops] = histogram.get(hops, 0) + 1
                    self.send_chunk(server, peer_id, position, hops)
        self.schedule(self.now + self._chunk_duration, fire)

    def _resolve(self, outcome: str) -> None:
        """End one chunk request: count it by outcome and in its summary counter."""
        self.outcomes[outcome] += 1
        self.counters[_OUTCOMES[outcome]] += 1

    def _first_delivery(self, peer: PeerRuntime, delay: float) -> None:
        """Record the startup delay; callers call it while first_delivery is None."""
        peer.first_delivery = self.now
        self.startup_delays.append(delay)

    def _on_chunk_arrival(self, src: int, dst: int, chunk_id: int) -> None:
        peer = self.peers.get(dst)
        if peer is None or peer.state is _DEPARTED:
            self._resolve("receiver_left")
            return
        self._resolve("delivered" if self.store_chunk(dst, chunk_id) else "refused")
        if peer.first_delivery is None:
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

        # Everything scheduled so far leaves the heap for the planned list,
        # sorted; what lies past the horizon stays queued as a valid heap.
        # It is kept latest first and popped, so each entry is freed once run.
        heap, dispatch = self._heap, self._dispatch
        planned = sorted(heap)
        cut = bisect_right(planned, end, key=itemgetter(0))
        heap[:] = planned[cut:]
        del planned[cut:]
        planned.reverse()
        # A planned event's seq is below that of every event the run
        # schedules, so at equal times the planned event goes first: the
        # heap yields only what is strictly earlier.
        while planned:
            due, _, payload = planned.pop()
            while heap and heap[0][0] < due:
                time, _, event = heappop(heap)
                self.now = time
                dispatch(event)
            self.now = due
            dispatch(payload)
        # the first event past the horizon stays queued, so it counts as pending
        while heap and heap[0][0] <= end:
            time, _, payload = heappop(heap)
            self.now = time
            dispatch(payload)

        self.now = end
        self.driver.finalize(self.now)
        if self.checked:
            self._run_checks()

    def _dispatch(self, payload) -> None:
        kind = type(payload)  # exact types, the most frequent first
        if kind is TimerFire:
            handler = self._timers.get(payload.tag[0])
            if handler is None:
                self.driver.on_timer(payload.owner, payload.tag, self.now)
            else:
                handler(payload)
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

    def _on_sample(self, fire: TimerFire) -> None:
        self.replica_samples.append(
            (self.now, array("i", self.driver.replica_counts(self.now))))
        self.schedule_timer(self.now + self.config.sample_period_s,
                            PRODUCER, ("sample",))

    def _on_audit(self, fire: TimerFire) -> None:
        self.driver.on_audit(self.now)
        self._seal_departed()
        if self.checked:
            self._run_checks()
        self.schedule_timer(self.now + self.config.audit_period_s,
                            PRODUCER, ("audit",))

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
            if peer.pinned is not NO_PINS and not peer.pinned <= peer.store.keys():
                problems.append(f"peer {pid} pins a chunk it does not store")
        for pid, active in sorted(self._active_uploads.items()):
            if active > self.peers[pid].profile.upload_capacity:
                problems.append(f"peer {pid} exceeds upload capacity")
        counters, outcomes = self.counters, self.outcomes
        ended, pending = sum(outcomes.values()), self.pending_requests()
        if ended + pending != counters["chunks_requested"]:
            problems.append(f"{ended} requests ended and {pending} pending, but "
                            f"{counters['chunks_requested']} were made")
        # only requests add to these two; dropped_messages also counts controls
        for name in ("chunks_delivered", "chunks_missed"):
            share = sum(n for outcome, n in outcomes.items() if _OUTCOMES[outcome] == name)
            if counters[name] != share:
                problems.append(f"{name} is {counters[name]}, its outcomes sum to {share}")
        if problems:
            raise InvariantViolation("; ".join(problems))

    # -- derived views ----------------------------------------------------------------------

    def pending_requests(self) -> int:
        """Requests not yet ended: queued for an upload slot or in flight."""
        in_flight = sum(1 for _, _, payload in self._heap
                        if type(payload) is MessageDelivery
                        and payload.message[0] == "chunk")
        return in_flight + sum(map(len, self._upload_queue.values()))

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
        """Unused: a tick reads the viewer's store itself.

        It stays only because perfbench/spans.py patches it by name, and
        goes when the benchmark next changes.
        """
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
