import math
import random

import pytest

from tssim.config import ScenarioConfig, validate_config
from tssim.stream import (
    StreamParams,
    StreamTimeline,
    air_time,
    build_timeline,
    head_chunk_at,
)
from tssim.workload import (
    SessionEvent,
    SessionEventKind,
    generate_profiles,
    generate_sessions,
    zipf_popularity,
)


def make_timeline(hours=12.0):
    params = StreamParams()
    return build_timeline(params, horizon_seconds=hours * 3600), hours * 3600


def test_zipf_single_item():
    assert zipf_popularity(1, 1.0, 1) == 1.0


def test_zipf_two_items_harmonic():
    assert zipf_popularity(1, 1.0, 2) == pytest.approx(2 / 3)
    assert zipf_popularity(2, 1.0, 2) == pytest.approx(1 / 3)


def test_zipf_monotone_and_normalized():
    rng = random.Random("zipf-props")
    for _ in range(20):
        size = rng.randrange(1, 400)
        exponent = rng.uniform(0.2, 2.5)
        probs = [zipf_popularity(r, exponent, size) for r in range(1, size + 1)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert math.isclose(sum(probs), 1.0, abs_tol=1e-12)


def test_zipf_large_catalog_normalized():
    probs_sum = sum(zipf_popularity(r, 1.0, 100_000) for r in range(1, 100_001))
    assert math.isclose(probs_sum, 1.0, abs_tol=1e-12)


def test_zipf_norm_adds_left_to_right():
    # sum() compensates from Python 3.12 on; the join draws must not move
    # with the interpreter, so the norm is the plain left-to-right sum
    for exponent, size in ((0.8, 100), (1.0, 10), (1.5, 599)):
        plain = 0.0
        for i in range(1, size + 1):
            plain += i ** -exponent
        assert zipf_popularity(1, exponent, size) == 1.0 / plain


def test_zipf_rank_out_of_range():
    with pytest.raises(ValueError):
        zipf_popularity(0, 1.0, 5)
    with pytest.raises(ValueError):
        zipf_popularity(6, 1.0, 5)


def test_no_arrivals_gives_empty_stream():
    timeline, horizon = make_timeline(2)
    behavior = ScenarioConfig(arrival_rate=0.0)
    assert generate_sessions(behavior, timeline, horizon, seed=1) == []


def test_generation_is_deterministic():
    timeline, horizon = make_timeline(6)
    behavior = ScenarioConfig()
    a = generate_sessions(behavior, timeline, horizon, seed=42)
    b = generate_sessions(behavior, timeline, horizon, seed=42)
    assert a == b
    c = generate_sessions(behavior, timeline, horizon, seed=43)
    assert a != c


def test_sessions_wellformed_and_within_head():
    timeline, horizon = make_timeline(8)
    params = timeline.params
    behavior = ScenarioConfig(arrival_rate=0.02, vcr_rate=1 / 200)
    events = generate_sessions(behavior, timeline, horizon, seed=7)
    assert events, "expected a non-trivial population"
    by_peer: dict[int, list[SessionEvent]] = {}
    for e in events:
        by_peer.setdefault(e.peer_id, []).append(e)
    for peer, seq in by_peer.items():
        assert seq[0].kind is SessionEventKind.JOIN
        assert seq[-1].kind is SessionEventKind.LEAVE
        assert all(k.kind not in (SessionEventKind.JOIN,) for k in seq[1:])
        times = [e.time for e in seq]
        assert times == sorted(times)
        assert seq[-1].time <= horizon
        head_at_join = head_chunk_at(params, seq[0].time)
        assert 0 <= seq[0].position <= head_at_join
        for e in seq:
            if e.kind in (SessionEventKind.SEEK_FORWARD, SessionEventKind.SEEK_BACKWARD):
                assert 0 <= e.target <= head_chunk_at(params, e.time)
            if e.kind is SessionEventKind.PAUSE:
                assert e.duration > 0


def test_events_sorted_globally():
    timeline, horizon = make_timeline(4)
    events = generate_sessions(ScenarioConfig(), timeline, horizon, seed=3)
    assert [(e.time, e.peer_id) for e in events] == sorted(
        (e.time, e.peer_id) for e in events
    )


def early_quit_stats(
    events: list[SessionEvent],
    timeline: StreamTimeline,
    window_seconds: float,
    horizon: float,
) -> tuple[int, int]:
    """(show joiners, early quitters) over sessions joining at a show start.

    A session counts as a show joiner when its join position is the
    first chunk of some show; it counts as an early quitter when it
    leaves within `window_seconds` of joining. Sessions still active at
    the horizon are censored and excluded from both counts.
    """
    starts = {s.first_chunk for s in timeline.shows}
    join_at: dict[int, float] = {}
    join_pos: dict[int, int] = {}
    joiners = 0
    early = 0
    for e in events:
        if e.kind is SessionEventKind.JOIN:
            join_at[e.peer_id] = e.time
            join_pos[e.peer_id] = e.position if e.position is not None else -1
        elif e.kind is SessionEventKind.LEAVE:
            if e.time >= horizon or join_pos.get(e.peer_id) not in starts:
                continue
            joiners += 1
            if e.time - join_at[e.peer_id] <= window_seconds:
                early += 1
    return joiners, early


def test_early_quit_fraction_near_target():
    timeline, horizon = make_timeline(30)
    behavior = ScenarioConfig(
        arrival_rate=0.03,
        early_quit_fraction=0.5,
        early_quit_window=600.0,
        live_join_prob=0.3,
    )
    events = generate_sessions(behavior, timeline, horizon, seed=11)
    joiners, early = early_quit_stats(events, timeline, 600.0, horizon)
    assert joiners > 800
    assert 0.42 <= early / joiners <= 0.58


def test_show_start_bursts_present():
    timeline, horizon = make_timeline(10)
    params = timeline.params
    quiet = ScenarioConfig(arrival_rate=0.005, show_start_burst=0.0)
    bursty = ScenarioConfig(arrival_rate=0.005, show_start_burst=8.0)

    def joins_near_show_starts(events):
        n = 0
        for e in events:
            if e.kind is not SessionEventKind.JOIN:
                continue
            for show in timeline.shows:
                airs_at = air_time(params, show.first_chunk)
                if airs_at <= e.time <= airs_at + 61 and e.position == show.first_chunk:
                    n += 1
                    break
        return n

    near_quiet = joins_near_show_starts(generate_sessions(quiet, timeline, horizon, seed=5))
    near_bursty = joins_near_show_starts(generate_sessions(bursty, timeline, horizon, seed=5))
    assert near_bursty > near_quiet + 10


def test_profiles_cover_population():
    timeline, horizon = make_timeline(3)
    events = generate_sessions(ScenarioConfig(), timeline, horizon, seed=9)
    profiles = generate_profiles(events, ScenarioConfig(upload_capacity=4))
    peers = {e.peer_id for e in events}
    assert set(profiles) == peers
    for pid, p in profiles.items():
        assert p.peer_id == pid
        assert p.upload_capacity == 4


def test_profile_needs_an_upload_capacity_of_one():
    # the file's rule: a peer runs at least one transfer at a time; every
    # profile takes its capacity from a config that passed that rule
    assert validate_config(ScenarioConfig(upload_capacity=0)) == [
        "upload_capacity must be at least 1, got 0"]
