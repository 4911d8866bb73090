"""Overlay drivers exercised through the event engine."""

import random
import re
from types import SimpleNamespace

import pytest

from ground_truth import SectorLawDriver
from tssim import metrics
from tssim.config import ScenarioConfig
from tssim.drivers import IntervalDriver, MeshDriver, TreeDriver
from tssim.engine import (
    DEDICATED,
    NO_PINS,
    PRODUCER,
    Engine,
    InvariantViolation,
    PeerState,
    SealedStore,
)
from tssim.stream import StreamParams, build_timeline
from tssim.workload import (
    PeerProfile,
    SessionEvent,
    SessionEventKind,
    generate_profiles,
    generate_sessions,
)


def run_engine(driver, sessions, horizon, checked=True, profiles=None,
               **settings):
    if profiles is None:
        profiles = {
            e.peer_id: PeerProfile(peer_id=e.peer_id, upload_capacity=3,
                                   storage_capacity=100_000)
            for e in sessions if e.kind is SessionEventKind.JOIN
        }
    engine = Engine(ScenarioConfig(horizon_s=horizon, **settings), driver,
                    check_invariants=checked)
    engine.run(sessions, profiles)
    return engine


def generated_run(driver, horizon=1800.0, seed=5):
    stream = StreamParams()
    timeline = build_timeline(stream, horizon)
    sessions = generate_sessions(ScenarioConfig(), timeline, horizon, seed)
    profiles = generate_profiles(sessions, ScenarioConfig())
    return run_engine(driver, sessions, horizon, profiles=profiles)


def join(t, pid, position):
    return SessionEvent(time=t, peer_id=pid, kind=SessionEventKind.JOIN,
                        position=position)


def leave(t, pid, abrupt=False):
    return SessionEvent(time=t, peer_id=pid, kind=SessionEventKind.LEAVE,
                        abrupt=abrupt)


@pytest.mark.parametrize("overlay,settings,problem", [
    (TreeDriver, {"k_min": 5, "k_rep": 3}, "k_min (5) cannot exceed k_rep (3)"),
    (MeshDriver, {"k_min": 5, "k_rep": 3}, "k_min (5) cannot exceed k_rep (3)"),
    (MeshDriver, {"fanout": 0}, "fanout must be at least 1"),
])
def test_turntable_drivers_reject_what_the_file_rejects(overlay, settings, problem):
    with pytest.raises(ValueError, match=r"invalid scenario: .*" + re.escape(problem)):
        overlay(ScenarioConfig(**settings))


@pytest.mark.parametrize("overlay", [TreeDriver, MeshDriver, IntervalDriver])
def test_each_census_sample_counts_chunks_0_to_head(overlay):
    heads = []

    class HeadRecorder(overlay):
        def replica_counts(self, now):
            heads.append((now, self.engine.head_chunk))
            return super().replica_counts(now)

    engine = generated_run(HeadRecorder(ScenarioConfig()))
    assert len(heads) > 1
    assert [(t, len(counts) - 1) for t, counts in engine.replica_samples] == heads


# -- tree --------------------------------------------------------------------


def test_tree_pins_land_in_matching_sectors():
    driver = SectorLawDriver(ScenarioConfig())
    generated_run(driver)
    assert driver.law_checks > 0
    assert driver.law_violations == 0


def test_tree_handoff_shortcut_serves_consecutive_chunks():
    class SpyDriver(TreeDriver):
        shortcut_hits = 0

        def find_provider(self, peer_id, chunk_id, now):
            expected = self.pending_handoff.get(peer_id, {}).get(chunk_id)
            outcome = super().find_provider(peer_id, chunk_id, now)
            if expected is not None and outcome[0] == expected:
                SpyDriver.shortcut_hits += 1
            return outcome

    driver = SpyDriver(ScenarioConfig(m=2, r=1, k_rep=1, k_min=1))
    sessions = [
        join(1.0, 0, 0),     # sector 0 root, pins even chunks
        join(2.0, 1, 0),     # sector 1 root, pins odd chunks
        join(640.0, 2, 0),   # lagging viewer, walks the whole archive
    ]
    # transfers must outpace playback for the next-chunk offer to land
    # before the viewer asks for it
    engine = run_engine(driver, sessions, horizon=3600.0, transfer_kbps=2000.0)
    assert SpyDriver.shortcut_hits > 10
    assert engine.counters["chunks_missed"] == 0


def test_tree_drops_the_handoff_shortcuts_of_departed_viewers():
    class OfferCountingDriver(TreeDriver):
        offers = 0

        def on_chunk_delivered(self, peer_id, chunk_id, src, now):
            before = len(self.pending_handoff.get(peer_id, ()))
            super().on_chunk_delivered(peer_id, chunk_id, src, now)
            if len(self.pending_handoff.get(peer_id, ())) > before:
                OfferCountingDriver.offers += 1

    driver = OfferCountingDriver(ScenarioConfig())
    generated_run(driver)
    assert OfferCountingDriver.offers > 100
    # every session ends by the horizon, so no requester is left
    assert driver.pending_handoff == {}


def test_tree_republishes_chunks_retained_while_sector_empty():
    driver = TreeDriver(ScenarioConfig(m=2, r=1, k_rep=1, k_min=1))
    engine = run_engine(driver, [join(200.0, 0, 10_000)], horizon=300.0)
    # chunks 0..5 existed at the join; the evens replay into sector 0
    assert driver.retained_republished == 3
    assert {0, 2, 4} <= set(engine.peers[0].store)
    # sector 1 never gained a member, so its chunks stay parked
    assert driver.turntable.producer_retained[1] == [1, 3, 5, 7]


def test_tree_parks_a_publish_that_reaches_a_departed_representant():
    # chunk 0 is produced at 32 s; its publish lands 0.05 s later, after
    # the sector's only member has left
    def run(horizon, *later):
        driver = TreeDriver(ScenarioConfig(m=1, r=1, k_rep=1, k_min=1))
        sessions = [join(1.0, 0, 0), leave(32.02, 0), *later]
        return driver, run_engine(driver, sessions, horizon=horizon)

    driver, engine = run(40.0)
    assert engine.counters["dropped_messages"] == 1
    assert driver.turntable.producer_retained == {0: [0]}
    assert driver.retained_republished == 0

    driver, engine = run(60.0, join(50.0, 1, 0))
    assert engine.counters["dropped_messages"] == 1
    assert driver.retained_republished == 1
    assert driver.turntable.producer_retained == {}
    assert 0 in engine.peers[1].pinned  # pinned by the republished diffusion


def test_tree_audit_removes_abruptly_departed_members():
    driver = TreeDriver(ScenarioConfig(m=1, r=1, k_rep=1, k_min=1))
    sessions = [
        join(1.0, 0, 10_000),
        join(2.0, 1, 10_000),
        leave(100.0, 1, abrupt=True),
    ]
    engine = run_engine(driver, sessions, horizon=900.0)
    assert 1 not in driver.structures[0].nodes
    assert engine.peers[1].state is PeerState.DEPARTED
    assert 0 in driver.structures[0].nodes


class SealCheckEngine(Engine):
    """Compares each store it seals with a snapshot taken just before."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sealed = 0
        self.sealed_lookups = 0

    def _seal_departed(self):
        before = {pid: dict(peer.store) for pid, peer in self.peers.items()
                  if peer.state is PeerState.DEPARTED
                  and not isinstance(peer.store, SealedStore)}
        super()._seal_departed()
        chunks = range(-1, self.head_chunk + 2)
        for pid, peer in self.peers.items():
            if peer.state is PeerState.DEPARTED:
                assert isinstance(peer.store, SealedStore), pid
                assert peer.pinned is NO_PINS, pid
        for pid, store in before.items():
            sealed = self.peers[pid].store
            assert len(sealed) == len(store), pid
            assert [c in sealed for c in chunks] == [c in store for c in chunks], pid
        self.sealed += len(before)

    def has_chunk(self, peer_id, chunk_id):
        peer = self.peers.get(peer_id)
        if peer is not None and isinstance(peer.store, SealedStore):
            self.sealed_lookups += 1
        return super().has_chunk(peer_id, chunk_id)


def test_tree_seals_departed_viewers_at_the_next_audit():
    # stores of 8 chunks evict, so a sealed store is not simply every
    # chunk the viewer saw; abrupt leavers are detached by the audit
    # itself, right before the seal
    config = ScenarioConfig(horizon_s=3600.0, arrival_rate=0.1,
                            storage_chunks=8)
    timeline = build_timeline(StreamParams(), config.horizon_s)
    sessions = generate_sessions(config, timeline, config.horizon_s, seed=3)
    profiles = generate_profiles(sessions, config)
    driver = TreeDriver(config)
    engine = SealCheckEngine(config, driver, check_invariants=True)
    engine.run(sessions, profiles)
    abrupt = {e.peer_id for e in sessions
              if e.kind is SessionEventKind.LEAVE and e.abrupt
              and e.time < engine.now - config.audit_period_s}
    assert abrupt
    assert all(isinstance(engine.peers[pid].store, SealedStore) for pid in abrupt)
    assert engine.sealed >= len(abrupt)
    assert any(len(engine.peers[pid].store) == 8 for pid in abrupt)
    assert engine.sealed_lookups > 0
    assert all(engine._upload_queue.values())  # no empty deque is kept


def test_a_write_to_a_sealed_viewer_is_an_invariant_violation():
    driver = TreeDriver(ScenarioConfig(m=1, r=1, k_rep=1, k_min=1))
    engine = run_engine(driver, [join(1.0, 0, 10_000), leave(100.0, 0)],
                        horizon=600.0)
    peer = engine.peers[0]
    assert isinstance(peer.store, SealedStore) and len(peer.store) > 0
    with pytest.raises(InvariantViolation):
        engine.store_chunk(0, 1_000)
    with pytest.raises(AttributeError):  # the sealed pin set is frozen
        peer.pinned.add(1_000)
    with pytest.raises(InvariantViolation):
        peer.store[1_000] = 0


def test_tree_emergency_restores_replicas_after_holder_leaves():
    driver = TreeDriver(ScenarioConfig(m=1, r=1, k_rep=2, k_min=2))
    sessions = [
        join(1.0, 0, 10_000),   # root
        join(2.0, 1, 10_000),   # holders: the two deepest members
        join(3.0, 2, 10_000),
        leave(500.0, 1),
    ]
    engine = run_engine(driver, sessions, horizon=1000.0)
    assert driver.emergency_rounds > 0
    assert driver.permanent_losses == 0
    for chunk in range(engine.head_chunk + 1):
        assert driver.structures[0].replica_count(chunk) == 2


# -- mesh ---------------------------------------------------------------------


class MirrorCheckDriver(MeshDriver):
    """Confirms at every audit that overlay stores shadow engine stores."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.mirrored = 0
        self.mismatches = 0

    def on_audit(self, now):
        for mesh in self.structures:
            for pid in sorted(mesh.peers):
                if self.engine.peers[pid].state is PeerState.DEPARTED:
                    continue
                runtime = self.engine.peers[pid]
                for chunk in mesh.peers[pid].store:
                    self.mirrored += 1
                    if chunk not in runtime.store or chunk not in runtime.pinned:
                        self.mismatches += 1
        super().on_audit(now)


def test_mesh_gossip_runs_and_mirrors_pins_into_engine_stores():
    driver = MirrorCheckDriver(ScenarioConfig(seed=5))
    generated_run(driver, seed=5)
    assert sum(m.shuffle_messages for m in driver.structures) > 0
    assert driver.mirrored > 0
    assert driver.mismatches == 0


# -- the overlay's pin set is the engine's -------------------------------------


def members_of(driver):
    """Each (peer id, structure member) of a tree or mesh driver, by sector."""
    for structure in driver.structures:
        members = structure.nodes if isinstance(driver, TreeDriver) else structure.peers
        yield from sorted(members.items())


@pytest.mark.parametrize("overlay", [TreeDriver, MeshDriver])
def test_checked_mode_reports_a_copied_pin_set_and_an_evicted_pin(overlay):
    driver = overlay(ScenarioConfig(m=1, r=1, k_rep=1, k_min=1))
    engine = run_engine(driver, [join(1.0, 0, 10_000), join(2.0, 1, 10_000)],
                        horizon=600.0)
    engine._run_checks()  # healthy
    pid, member = next((pid, member) for pid, member in members_of(driver)
                       if member.store)
    peer = engine.peers[pid]
    assert peer.pinned is member.store
    peer.pinned = set(member.store)
    with pytest.raises(InvariantViolation,
                       match=f"peer {pid}'s engine pins are not its overlay store"):
        engine._run_checks()
    peer.pinned = member.store
    del peer.store[min(member.store)]
    with pytest.raises(InvariantViolation,
                       match=f"peer {pid} pins a chunk it does not store"):
        engine._run_checks()


@pytest.mark.parametrize("overlay,settings", [
    ("tree", dict(fanout=1)),
    ("mesh", dict(max_degree=2)),
], ids=["tree-fanout-1", "mesh-degree-2"])
@pytest.mark.parametrize("storage", [1, 2])
def test_pins_fit_storage_under_pressure(monkeypatch, overlay, settings, storage):
    # a structure pins only within capacity, so the engine never has to
    # refuse a pin: at every audit each member's pins are its structure's
    # store, fit its storage and are all stored
    config = ScenarioConfig(horizon_s=3600.0, arrival_rate=0.1,
                            storage_chunks=storage, **settings)
    timeline = build_timeline(StreamParams(), config.horizon_s)
    sessions = generate_sessions(config, timeline, config.horizon_s, seed=4)
    profiles = generate_profiles(sessions, config)
    driver = (TreeDriver if overlay == "tree" else MeshDriver)(config)
    seen = {"audits": 0, "pins": 0, "full": 0}
    on_audit = Engine._on_audit

    def audited(engine, fire):
        on_audit(engine, fire)
        seen["audits"] += 1
        for pid, member in members_of(driver):
            peer = engine.peers[pid]
            assert peer.pinned == member.store, (engine.now, pid)
            assert len(peer.pinned) <= peer.profile.storage_capacity, (engine.now, pid)
            assert all(chunk in peer.store for chunk in peer.pinned), (engine.now, pid)
            seen["pins"] += len(peer.pinned)
            seen["full"] += len(peer.pinned) == peer.profile.storage_capacity

    monkeypatch.setattr(Engine, "_on_audit", audited)
    Engine(config, driver, check_invariants=True).run(sessions, profiles)
    assert seen["audits"] > 0 and seen["pins"] > 0 and seen["full"] > 0, seen


def test_mesh_invariants_hold_after_generated_run():
    driver = MeshDriver(ScenarioConfig(seed=9))
    engine = generated_run(driver, seed=9)
    for mesh in driver.structures:
        assert mesh.check_invariants(engine.now) == []
    extra = driver.extra_metrics()
    assert extra["permanent_losses"] >= 0
    assert extra["domination_violations"] >= 0
    assert set(extra) >= {"coloring_gaps", "recolor_events", "route_detours",
                          "stale_view_evictions"}


# -- interval -----------------------------------------------------------------


def test_interval_rejects_a_non_positive_rebalance_period():
    # a zero period would reschedule the rebalance at the same instant forever
    with pytest.raises(ValueError,
                       match="invalid scenario: rebalance_period_s must be greater than 0"):
        IntervalDriver(ScenarioConfig(rebalance_period_s=0.0))


def test_interval_overlay_tracks_membership_and_coverage():
    driver = IntervalDriver(ScenarioConfig())
    engine = generated_run(driver, seed=7)
    alive_members = [pid for pid in driver.graph.vertices if pid != DEDICATED]
    for pid in alive_members:
        assert engine.peers[pid].state is not PeerState.DEPARTED
    extra = driver.extra_metrics()
    assert extra["members_final"] == len(alive_members)
    assert 0.0 <= extra["coverage_incident_fraction"] <= 1.0
    assert driver.coverage_samples >= 2  # periodic plus final sample
    assert sum(driver.requests_by_lag.values()) > 0
    hot, cold = driver.buffer_length_by_decile()
    assert hot >= 0.0 and cold >= 0.0


def test_interval_abrupt_leaver_disappears_without_repair():
    driver = IntervalDriver(ScenarioConfig())
    sessions = [
        join(40.0, 0, 0),
        join(41.0, 1, 0),
        join(42.0, 2, 0),
        leave(100.0, 1, abrupt=True),
    ]
    run_engine(driver, sessions, horizon=200.0)
    assert 1 not in driver.graph.vertices
    assert 0 in driver.graph.vertices
    assert 2 in driver.graph.vertices


def test_interval_check_flags_departed_member_left_in_graph():
    driver = IntervalDriver(ScenarioConfig(dedicated_server=True))
    engine = run_engine(driver, [join(40.0, 0, 0), join(41.0, 1, 0)],
                        horizon=200.0)
    assert driver.periodic_check(engine.now) == []
    engine.peers[1].state = PeerState.DEPARTED  # gone without on_leave
    assert driver.periodic_check(engine.now) == [
        "departed peer 1 still holds an interval"]


def test_interval_dedicated_server_covers_without_producer_archive():
    driver = IntervalDriver(ScenarioConfig(dedicated_server=True,
                                           producer_archive=False))
    engine = run_engine(driver, [join(3200.0, 0, 10)], horizon=3600.0)
    assert DEDICATED in driver.graph.vertices
    assert engine.counters["chunks_delivered"] > 0
    assert engine.counters["chunks_missed"] == 0
    assert engine.counters["producer_upload_bytes"] > 0


def test_interval_no_archive_no_members_means_misses():
    driver = IntervalDriver(ScenarioConfig(dedicated_server=False,
                                           producer_archive=False))
    engine = run_engine(driver, [join(3200.0, 0, 10)], horizon=3600.0)
    assert engine.counters["chunks_delivered"] == 0
    assert engine.counters["chunks_missed"] > 0


def provider_driver(head, loads, producer_archive=True):
    """An interval driver wired to a stand-in engine: find_provider reads
    only the head and the running uploads."""
    driver = IntervalDriver(ScenarioConfig(horizon_T=8,
                                           producer_archive=producer_archive))
    driver.engine = SimpleNamespace(head_chunk=head, _active_uploads=loads)
    return driver


def naive_provider(driver, peer_id, lag):
    loads = driver.engine._active_uploads
    others = [pid for pid in driver.graph.holders[lag] if pid != peer_id]
    if others:
        return (min(others, key=lambda pid: (loads.get(pid, 0), pid)), 1)
    return (PRODUCER, 1) if driver.config.producer_archive else (None, 0)


@pytest.mark.parametrize("holders,loads,requester,expected", [
    # the requester is skipped even when it is the idle holder with the lowest id
    ({1, 4, 6}, {4: 1}, 1, 6),
    ({1, 4, 6}, {6: 2}, 4, 1),
    # the dedicated server never uploads through the engine, so it is idle
    ({DEDICATED, 3, 5}, {3: 1}, 5, DEDICATED),
    # every other holder busy: the least loaded, then the lowest id
    ({2, 3, 7}, {2: 3, 3: 1, 7: 1}, 9, 3),
    ({2, 3, 7}, {2: 1, 3: 2}, 7, 2),
    # nobody but the requester, or nobody at all: the producer's archive
    ({5}, {}, 5, PRODUCER),
    (set(), {1: 1}, 1, PRODUCER),
])
def test_find_provider_picks_an_idle_holder_else_the_least_loaded(
        holders, loads, requester, expected):
    driver = provider_driver(head=20, loads=loads)
    driver.graph.holders[3] = holders
    assert driver.find_provider(requester, 17, 0.0) == (expected, 1)
    assert naive_provider(driver, requester, 3) == (expected, 1)


def test_find_provider_without_archive_or_holder_finds_none():
    driver = provider_driver(head=20, loads={}, producer_archive=False)
    driver.graph.holders[3] = {5}
    assert driver.find_provider(5, 17, 0.0) == (None, 0)
    assert driver.find_provider(5, 10, 0.0) == (None, 0)  # lag past T


def test_find_provider_matches_a_naive_load_minimum():
    rng = random.Random("provider-naive")
    seen = dict.fromkeys(["idle", "all_busy", "requester_holds", "none"], 0)
    for _ in range(3000):
        pool = [DEDICATED, *range(12)]
        # the engine keeps a sender only while it uploads, so loads are >= 1
        loads = {pid: rng.randint(1, 3) for pid in rng.sample(range(12), rng.randint(0, 12))}
        driver = provider_driver(head=30, loads=loads,
                                 producer_archive=rng.random() < 0.7)
        for lag in range(9):
            driver.graph.holders[lag] = set(rng.sample(pool, rng.randint(0, 5)))
        requester = rng.randrange(12)
        chunk = rng.randint(19, 30)  # lags 0..11, three of them past T
        lag = 30 - chunk
        got = driver.find_provider(requester, chunk, 0.0)
        if lag <= 8:
            assert got == naive_provider(driver, requester, lag)
            others = driver.graph.holders[lag] - {requester}
            seen["requester_holds"] += requester in driver.graph.holders[lag]
            seen["none"] += not others
            seen["idle"] += bool(others - loads.keys())
            seen["all_busy"] += bool(others) and others <= loads.keys()
        else:
            assert got == ((PRODUCER, 1) if driver.config.producer_archive
                           else (None, 0))
    assert min(seen.values()) >= 100, sorted(seen.items())


def naive_decile_means(driver):
    """buffer_length_by_decile by testing every lag of a decile against
    every snapshot span."""
    T = driver.constraints.T
    totals = [0] * (T + 1)
    for lag, n in driver.requests_by_lag.items():
        if 0 <= lag <= T:
            totals[lag] += n
    order = sorted(range(T + 1), key=lambda lag: (-totals[lag], lag))
    decile = max(1, (T + 1) // 10)

    def mean_len(lags):
        lengths = [r - l for snapshot in driver.buffer_snapshots
                   for l, r in snapshot if any(l <= lag <= r for lag in lags)]
        return sum(lengths) / len(lengths) if lengths else 0.0

    return mean_len(set(order[:decile])), mean_len(set(order[-decile:]))


def test_decile_buffer_means_match_a_naive_scan():
    rng = random.Random("decile-naive")
    for _ in range(300):
        T = rng.choice([1, 5, 9, 30, 61])
        driver = IntervalDriver(ScenarioConfig(horizon_T=T))
        driver.requests_by_lag = {
            rng.randint(-2, T + 3): rng.randint(1, 9)
            for _ in range(rng.randint(1, 2 * T + 2))}
        driver.buffer_snapshots = []
        for _ in range(rng.randint(0, 4)):
            snapshot = []
            for _ in range(rng.randint(0, 12)):
                l = rng.randint(0, T + 2)
                snapshot.append((l, l + rng.choice([0, 1, 3, T])))
            driver.buffer_snapshots.append(snapshot)
        assert driver.buffer_length_by_decile() == naive_decile_means(driver)


# chunk moves by purpose at 1 h, arrival 0.05, seed 1: the Baseline table of
# ROADMAP.md ("Each overlay counts traffic differently")
MOVES_AT_SEED_1 = {
    "tree": dict(request=2_614, publish=206, diffuse=556, repair=533, adopt=0),
    "mesh": dict(request=2_704, publish=206, diffuse=142, repair=0, adopt=119),
    "interval": dict(request=2_758, publish=0, diffuse=0, repair=0, adopt=0),
}


def run_keeping_engine(monkeypatch, **settings):
    """The engine of one `run_scenario` call, as it ended the run."""
    engines = []
    collect = metrics.collect_report

    def keep_engine(engine, driver):
        engines.append(engine)
        return collect(engine, driver)

    monkeypatch.setattr(metrics, "collect_report", keep_engine)
    metrics.run_scenario(ScenarioConfig(**settings))
    engine, = engines
    return engine


@pytest.mark.parametrize("overlay", sorted(MOVES_AT_SEED_1))
def test_each_overlay_moves_the_baseline_traffic(monkeypatch, overlay):
    engine = run_keeping_engine(monkeypatch, overlay=overlay, seed=1,
                                horizon_s=3600.0, arrival_rate=0.05)
    moves = engine.moves
    assert moves == MOVES_AT_SEED_1[overlay]
    copied = moves["request"] + moves["adopt"]
    assert engine.counters["transfer_bytes"] == engine.stream.chunk_size_bytes * copied
    if overlay == "tree":
        # requests from peers plus emergency copies from peers
        assert sum(peer.served for peer in engine.peers.values()) == 2_443 + 463


# two transport defects at 1 h, arrival 0.5, seed 1, as the Baseline of
# ROADMAP.md records them: (queued transfers started after their sender
# left, requests that end as sender_left). The tree's sender_left are its
# pending-handoff serves from departed peers. Mesh reads (1_391, 0), but
# its run is too slow for this suite.
TRANSPORT_DEFECTS_AT_SEED_1 = {"tree": (2_759, 19), "interval": (0, 0)}


@pytest.mark.parametrize("overlay", sorted(TRANSPORT_DEFECTS_AT_SEED_1))
def test_departed_senders_are_counted_apart(monkeypatch, overlay):
    engine = run_keeping_engine(monkeypatch, overlay=overlay, seed=1,
                                horizon_s=3600.0, arrival_rate=0.5)
    assert (engine.departed_sender_starts, engine.outcomes["sender_left"]) \
        == TRANSPORT_DEFECTS_AT_SEED_1[overlay]
    assert (sum(engine.outcomes.values()) + engine.pending_requests()
            == engine.counters["chunks_requested"])
