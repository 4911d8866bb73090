"""Event ordering, transport accounting, and viewer lifecycle."""

import math
from array import array

import pytest

from tssim.config import ScenarioConfig
from tssim.drivers import TreeDriver
from tssim.engine import (
    NO_PINS,
    PRODUCER,
    Engine,
    InvariantViolation,
    OverlayDriver,
    PeerRuntime,
    PeerState,
    SealedStore,
    TimerFire,
    produced_chunks_within,
)
from tssim.stream import StreamParams, air_time, build_timeline, chunk_duration
from tssim.workload import (
    PeerProfile,
    SessionEvent,
    SessionEventKind,
    generate_profiles,
    generate_sessions,
)


class RecordingDriver(OverlayDriver):
    """Logs every callback so tests can assert on dispatch order."""

    def __init__(self):
        self.log = []

    def on_produce(self, chunk_id, now):
        self.log.append(("produce", chunk_id, now))

    def on_join(self, peer_id, lag, now):
        self.log.append(("join", peer_id, lag, now))

    def on_leave(self, peer_id, now, abrupt):
        self.log.append(("leave", peer_id, now))

    def on_move(self, peer_id, old_lag, new_lag, now):
        self.log.append(("move", peer_id, old_lag, new_lag, now))

    def on_timer(self, owner, tag, now):
        self.log.append(("timer", owner, tag, now))

    def moves(self):
        return [entry for entry in self.log if entry[0] == "move"]


def make_engine(horizon, driver=None, check_invariants=False, **settings):
    return Engine(ScenarioConfig(horizon_s=horizon, **settings),
                  driver if driver is not None else OverlayDriver(),
                  check_invariants)


def profile(pid, upload=3, storage=100_000):
    return PeerProfile(peer_id=pid, upload_capacity=upload,
                       storage_capacity=storage)


def add_peer(engine, pid, upload=3, storage=100_000, lag=0):
    engine.peers[pid] = PeerRuntime(
        profile=profile(pid, upload, storage),
        state=PeerState.PLAYING, lag=lag, joined_at=0.0,
    )


def join_event(t, pid, position):
    return SessionEvent(time=t, peer_id=pid, kind=SessionEventKind.JOIN,
                        position=position)


# -- clock and production ---------------------------------------------------


def test_one_hour_produces_112_chunks():
    engine = make_engine(3600.0)
    engine.run([], {})
    assert engine.counters["chunks_produced"] == 112
    assert engine.head_chunk == 111
    assert produced_chunks_within(StreamParams(), 3600.0) == 112


def test_zero_horizon_is_an_empty_run():
    engine = make_engine(0.0)
    engine.run([], {})
    assert engine.counters["chunks_produced"] == 0
    assert engine.head_chunk == -1
    assert engine.availability_ratio() == 0.0


def test_negative_horizon_rejected():
    with pytest.raises(ValueError):
        make_engine(-1.0)


@pytest.mark.parametrize("period", ["audit_period", "sample_period"])
def test_non_positive_period_rejected(period):
    # a zero period would reschedule its timer at the same instant forever
    with pytest.raises(ValueError, match=f"{period}_s must be greater than 0"):
        make_engine(100.0, **{f"{period}_s": 0.0})


@pytest.mark.parametrize("key,bad", [
    ("hop_latency_s", -0.1),
    ("transfer_kbps", 0.0),
    ("audit_period_s", 0.0),
    ("sample_period_s", 0.0),
    ("horizon_s", -1.0),
])
def test_engine_rejects_what_the_file_rejects(key, bad):
    with pytest.raises(ValueError, match=f"invalid scenario: {key} must be"):
        Engine(ScenarioConfig(**{key: bad}), OverlayDriver())


def test_produce_dispatches_before_same_time_join():
    driver = RecordingDriver()
    engine = make_engine(100.0, driver=driver)
    d = chunk_duration(engine.stream)
    engine.run([join_event(d, 0, 0)], {0: profile(0)})
    kinds = [entry[0] for entry in driver.log
             if entry[0] in ("produce", "join")]
    assert kinds.index("produce") < kinds.index("join")
    join_entry = next(e for e in driver.log if e[0] == "join")
    assert join_entry[2] == 0  # head chunk existed, so lag is well defined


def test_same_time_events_dispatch_in_insertion_order():
    driver = RecordingDriver()
    engine = make_engine(10.0, driver=driver)
    engine.schedule_timer(5.0, 1, ("first",))
    engine.schedule_timer(5.0, 1, ("second",))
    engine.run([], {})
    timers = [e[2][0] for e in driver.log if e[0] == "timer"]
    assert timers == ["first", "second"]


# -- timer dispatch -----------------------------------------------------------


def scheduled(engine):
    """(time, payload) of every queued event, in dispatch order."""
    return [(time, payload) for time, _, payload in sorted(engine._heap)]


def test_a_tick_plays_and_reschedules_its_own_timer():
    engine = make_engine(1000.0)
    add_peer(engine, 7, lag=0)
    engine.head_chunk, engine.now = 3, 100.0
    fire = TimerFire(7, ("tick", 0))
    engine._dispatch(fire)
    assert engine.counters["live_chunks"] == 1
    assert 3 in engine.peers[7].store
    [(time, payload)] = scheduled(engine)
    assert payload is fire
    assert time == 100.0 + chunk_duration(engine.stream)


def test_slot_free_releases_one_upload():
    engine = make_engine(1000.0)
    add_peer(engine, 5)
    engine._active_uploads[5] = 2
    engine._dispatch(TimerFire(5, ("slot_free",)))
    assert engine._active_uploads == {5: 1}
    engine._dispatch(TimerFire(5, ("slot_free",)))
    assert engine._active_uploads == {}


def test_resume_restarts_the_paused_viewers_ticks():
    driver = RecordingDriver()
    engine = make_engine(1000.0, driver=driver)
    add_peer(engine, 8, lag=4)
    peer = engine.peers[8]
    peer.state, peer.tick_epoch = PeerState.PAUSED, 1
    engine.head_chunk, engine.now = 10, 200.0
    engine._dispatch(TimerFire(8, ("resume", 1, 40.0)))
    assert peer.state is PeerState.PLAYING
    assert driver.moves() == [("move", 8, 4, 6, 200.0)]
    assert scheduled(engine) == [(200.0, TimerFire(8, ("tick", 1)))]


class CensusDriver(OverlayDriver):
    def __init__(self):
        self.audits = []

    def replica_counts(self, now):
        return [2, 1]

    def on_audit(self, now):
        self.audits.append(now)


def test_sample_records_the_census_and_reschedules():
    engine = make_engine(10_000.0, driver=CensusDriver())
    engine.now = 600.0
    engine._dispatch(TimerFire(PRODUCER, ("sample",)))
    assert engine.replica_samples == [(600.0, array("i", [2, 1]))]
    assert scheduled(engine) == [
        (600.0 + engine.config.sample_period_s, TimerFire(PRODUCER, ("sample",)))]


def test_audit_runs_the_drivers_then_seals_leavers_and_reschedules():
    driver = CensusDriver()
    engine = make_engine(10_000.0, driver=driver)
    add_peer(engine, 9)
    engine.store_chunk(9, 4)
    engine.peers[9].state = PeerState.DEPARTED
    engine._left_since_audit.append(9)
    engine.now = 300.0
    engine._dispatch(TimerFire(PRODUCER, ("audit",)))
    assert driver.audits == [300.0]
    assert isinstance(engine.peers[9].store, SealedStore)
    assert engine.peers[9].pinned is NO_PINS
    assert scheduled(engine) == [
        (300.0 + engine.config.audit_period_s, TimerFire(PRODUCER, ("audit",)))]


@pytest.mark.parametrize("tag", [("gossip",), ("rebalance",)])
def test_other_timer_tags_go_to_the_driver(tag):
    driver = RecordingDriver()
    engine = make_engine(1000.0, driver=driver)
    engine.now = 321.5
    engine._dispatch(TimerFire(4, tag))
    assert driver.log == [("timer", 4, tag, 321.5)]
    assert engine._heap == []


# -- transport ----------------------------------------------------------------


def test_transfer_time_matches_transfer_rate():
    # a 2 MB chunk at 500 kbit/s
    engine = make_engine(100.0, chunk_mb=2.0, transfer_kbps=500.0)
    assert engine._transfer_time == 32.0


def test_capacity_one_sender_serves_fifo():
    engine = make_engine(100.0)
    add_peer(engine, 100, upload=1)
    add_peer(engine, 101)
    add_peer(engine, 102)
    engine.send_chunk(100, 101, 0, hops=1)
    engine.send_chunk(100, 102, 0, hops=1)
    assert engine._active_uploads[100] == 1  # second transfer queued
    engine.run([], {})
    assert engine.peers[100].served == 2
    assert engine.counters["chunks_delivered"] == 2
    assert engine.counters["transfer_bytes"] == 2 * 2_000_000
    assert 100 not in engine._active_uploads  # idle senders leave no entry
    assert 0 in engine.peers[101].store
    assert 0 in engine.peers[102].store


def test_a_drained_upload_queue_is_dropped():
    engine = make_engine(100.0)
    add_peer(engine, 100, upload=1)
    add_peer(engine, 101)
    for chunk in range(3):
        engine.send_chunk(100, 101, chunk, hops=1)
    assert len(engine._upload_queue[100]) == 2
    engine.run([], {})
    assert engine.counters["chunks_delivered"] == 3
    assert engine._upload_queue == {}


def test_send_from_departed_peer_is_dropped():
    engine = make_engine(50.0)
    add_peer(engine, 100)
    add_peer(engine, 101)
    engine.peers[100].state = PeerState.DEPARTED
    engine.send_chunk(100, 101, 0, hops=1)
    engine.run([], {})
    assert engine.counters["dropped_messages"] == 1
    assert engine.counters["chunks_delivered"] == 0


def test_delivery_to_departed_peer_is_dropped():
    engine = make_engine(50.0)
    add_peer(engine, 100)
    add_peer(engine, 101)
    engine.send_chunk(100, 101, 0, hops=1)
    engine.peers[101].state = PeerState.DEPARTED
    engine.run([], {})
    assert engine.counters["dropped_messages"] == 1
    assert engine.counters["chunks_delivered"] == 0


def test_producer_sends_bypass_upload_capacity():
    engine = make_engine(100.0)
    add_peer(engine, 101)
    for chunk in range(10):
        engine.send_chunk(PRODUCER, 101, chunk, hops=1)
    engine.run([], {})
    assert engine.counters["chunks_delivered"] == 10
    assert engine.counters["producer_upload_bytes"] == 10 * 2_000_000


class ArrivalDriver(OverlayDriver):
    def __init__(self):
        self.arrivals = {}

    def on_chunk_delivered(self, peer_id, chunk_id, src, now):
        self.arrivals[chunk_id] = now


def test_arrival_times_match_the_transport_expression():
    driver = ArrivalDriver()
    engine = make_engine(1000.0, driver=driver, transfer_kbps=300.0,
                         hop_latency_s=0.05)
    transfer, hop = engine._transfer_time, engine.config.hop_latency_s
    now = 100.9
    # these numbers round differently if the sum is grouped otherwise
    assert now + (transfer + hop) != (now + transfer) + hop
    add_peer(engine, 100, upload=5)
    add_peer(engine, 101)
    add_peer(engine, 200, upload=1)
    engine.now = now
    expected = {}
    for chunk, hops in enumerate((0, 1, 3)):
        engine.send_chunk(100, 101, chunk, hops)
        engine.send_chunk(PRODUCER, 101, 10 + chunk, hops)
        expected[chunk] = expected[10 + chunk] = now + (transfer + hop * max(1, hops))
    # one upload slot: chunk 21 starts when chunk 20's slot frees, 22 after it
    start = now
    for chunk, hops in ((20, 3), (21, 1), (22, 0)):
        engine.send_chunk(200, 101, chunk, hops)
        expected[chunk] = start + (transfer + hop * max(1, hops))
        start = start + transfer
    engine.run([], {})
    assert driver.arrivals == expected


# -- stores ------------------------------------------------------------------


def test_store_evicts_least_recently_stamped():
    engine = make_engine(0.0)
    add_peer(engine, 1, storage=2)
    assert engine.store_chunk(1, 10)
    assert engine.store_chunk(1, 11)
    assert engine.store_chunk(1, 12)
    assert sorted(engine.peers[1].store) == [11, 12]


def test_pinned_chunks_survive_eviction():
    engine = make_engine(0.0)
    add_peer(engine, 1, storage=2)
    engine.peers[1].pinned.add(10)  # the overlay pins in its own set
    engine.store_chunk(1, 10)
    engine.store_chunk(1, 11)
    engine.store_chunk(1, 12)
    assert sorted(engine.peers[1].store) == [10, 12]


def test_store_full_of_pins_rejects():
    engine = make_engine(0.0)
    add_peer(engine, 1, storage=2)
    for chunk in (10, 11):
        engine.peers[1].pinned.add(chunk)
        engine.store_chunk(1, chunk)
    assert not engine.store_chunk(1, 12)
    assert sorted(engine.peers[1].store) == [10, 11]
    assert 12 not in engine.peers[1].pinned


def test_checked_mode_catches_store_overflow():
    engine = make_engine(0.0, check_invariants=True)
    add_peer(engine, 1, storage=1)
    engine.peers[1].store = {10: 0, 11: 0}
    with pytest.raises(InvariantViolation):
        engine.run([], {})


# -- viewer lifecycle -------------------------------------------------------


def test_viewer_plays_at_constant_lag():
    engine = make_engine(3600.0)
    engine.run([join_event(3200.0, 0, 89)], {0: profile(0)})
    # head was 99 at the join, so the viewer sits 10 chunks behind
    assert engine.peers[0].lag == 10
    # every tick missed (the base driver finds nothing), none retried
    assert engine.counters["chunks_requested"] == engine.counters["chunks_missed"]
    assert engine.counters["chunks_requested"] > 0
    assert engine.availability_ratio() == 0.0


def test_live_viewer_consumes_from_broadcast():
    engine = make_engine(1000.0)
    engine.run([join_event(100.0, 0, 10_000)], {0: profile(0)})
    assert engine.peers[0].lag == 0
    assert engine.counters["live_chunks"] > 0
    assert engine.counters["chunks_requested"] == 0


def test_pause_adds_exactly_the_ceil_of_duration_over_chunk_time():
    driver = RecordingDriver()
    engine = make_engine(3600.0, driver=driver)
    d = chunk_duration(engine.stream)
    events = [
        join_event(3200.0, 0, 50),
        SessionEvent(time=3300.0, peer_id=0, kind=SessionEventKind.PAUSE,
                     duration=100.0),
    ]
    engine.run(events, {0: profile(0)})
    assert driver.moves() == [("move", 0, 49, 49 + math.ceil(100.0 / d), 3400.0)]
    assert engine.peers[0].lag == 53


def test_pause_lag_clamps_at_the_stream_start():
    driver = RecordingDriver()
    engine = make_engine(3600.0, driver=driver)
    events = [
        join_event(3233.0, 0, 0),  # head 100, so lag is already maximal
        SessionEvent(time=3234.0, peer_id=0, kind=SessionEventKind.PAUSE,
                     duration=1.0),
    ]
    engine.run(events, {0: profile(0)})
    # ceil would push one chunk past the oldest one; the clamp holds
    assert engine.peers[0].lag == 100
    assert driver.moves() == []


def test_seek_sets_lag_from_target():
    driver = RecordingDriver()
    engine = make_engine(3600.0, driver=driver)
    events = [
        join_event(3200.0, 0, 99),
        SessionEvent(time=3300.0, peer_id=0, kind=SessionEventKind.SEEK_BACKWARD,
                     target=10),
    ]
    engine.run(events, {0: profile(0)})
    move = driver.moves()[0]
    head_at_seek = 3300.0 // 32 - 1
    assert move[3] == head_at_seek - 10
    assert engine.peers[0].lag == head_at_seek - 10


def test_seeks_clamp_to_the_recorded_range():
    driver = RecordingDriver()
    engine = make_engine(3600.0, driver=driver)
    events = [
        join_event(3200.0, 0, 50),  # head 99, lag 49
        SessionEvent(time=3300.0, peer_id=0, kind=SessionEventKind.SEEK_FORWARD,
                     target=10_000),
        SessionEvent(time=3400.0, peer_id=0, kind=SessionEventKind.SEEK_BACKWARD,
                     target=0),
    ]
    engine.run(events, {0: profile(0)})
    head_at_back = 3400.0 // 32 - 1
    # past the head lands on the live edge; chunk 0 is as far back as it goes
    assert driver.moves() == [("move", 0, 49, 0, 3300.0),
                              ("move", 0, 0, head_at_back, 3400.0)]
    assert engine.peers[0].lag == head_at_back


def test_leave_stops_the_viewer():
    driver = RecordingDriver()
    engine = make_engine(3600.0, driver=driver)
    events = [
        join_event(100.0, 0, 0),
        SessionEvent(time=200.0, peer_id=0, kind=SessionEventKind.LEAVE),
    ]
    engine.run(events, {0: profile(0)})
    assert engine.peers[0].state is PeerState.DEPARTED
    assert [pid for pid, peer in engine.peers.items()
            if peer.state is not PeerState.DEPARTED] == []
    ticks_after = [e for e in driver.log
                   if e[0] == "timer" and e[3] > 200.0]
    assert ticks_after == []


# -- determinism --------------------------------------------------------------


def run_tree_scenario(seed):
    stream = StreamParams()
    timeline = build_timeline(stream, 1800.0)
    config = ScenarioConfig()
    sessions = generate_sessions(config, timeline, 1800.0, seed)
    profiles = generate_profiles(sessions, config)
    driver = TreeDriver(config)
    engine = Engine(ScenarioConfig(horizon_s=1800.0), driver)
    engine.run(sessions, profiles)
    return engine


def test_identical_seeds_replay_identically():
    a = run_tree_scenario(5)
    b = run_tree_scenario(5)
    assert a.counters == b.counters
    assert a.hops_histogram == b.hops_histogram
    assert a.replica_samples == b.replica_samples
    assert a.startup_delays == b.startup_delays


def test_no_idle_sender_keeps_an_upload_count():
    engine = run_tree_scenario(5)
    assert any(peer.served for peer in engine.peers.values())
    assert 0 not in engine._active_uploads.values()


# -- one motion rule for the workload and the engine ---------------------------


class LeaveRecorder(TreeDriver):
    """Notes the engine's head and the leaver's lag at every leave."""

    def __init__(self, config):
        super().__init__(config)
        self.leaves = []

    def on_leave(self, peer_id, now, abrupt):
        self.leaves.append((now, self.engine.head_chunk,
                            self.engine.peers[peer_id].lag))
        super().on_leave(peer_id, now, abrupt)


def test_show_end_leaves_land_on_the_engines_show_boundary():
    # the workload plans each session by the engine's motion rule, so a
    # leave at a chunk's air time is a show-end leave, and the engine
    # must then play the first chunk of a show
    config = ScenarioConfig(seed=1, horizon_s=6 * 3600.0, arrival_rate=0.1)
    driver = LeaveRecorder(config)
    engine = Engine(config, driver)
    timeline = build_timeline(engine.stream, config.horizon_s,
                              show_seconds=config.show_seconds)
    sessions = generate_sessions(config, timeline, config.horizon_s, config.seed)
    engine.run(sessions, generate_profiles(sessions, config))
    starts = {show.first_chunk for show in timeline.shows}
    show_end = [head - lag for now, head, lag in driver.leaves
                if now < config.horizon_s and air_time(engine.stream, head) == now]
    assert len(show_end) >= 900
    assert [pos for pos in show_end if pos not in starts] == []
