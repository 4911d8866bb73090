import hashlib
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
    resumed_lag,
)
from tssim.workload import (
    VCR_KINDS,
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


def test_show_start_burst_of_1000_joins_about_1000_viewers():
    # exp(-1000) underflows to 0; a single product-of-uniforms draw then
    # stops only when the product underflows too, near 745 joins a show
    timeline, horizon = make_timeline(2)
    burst = ScenarioConfig(arrival_rate=1e-9, show_start_burst=1000.0)
    events = generate_sessions(burst, timeline, horizon, seed=1)
    joins = sum(1 for e in events if e.kind is SessionEventKind.JOIN)
    starts = [air_time(timeline.params, s.first_chunk) for s in timeline.shows]
    mean = 1000.0 * sum(1 for a in starts if a + 60 < horizon)
    assert mean == 4000.0
    assert abs(joins - mean) <= 4 * math.sqrt(mean)


# -- the tree-day audience: 24 h at arrival 0.05, every other field at its default

TREE_DAY = ScenarioConfig(horizon_s=86_400.0, arrival_rate=0.05)


def tree_day_stream(seed: int) -> tuple[StreamTimeline, list[SessionEvent]]:
    timeline = build_timeline(StreamParams(), TREE_DAY.horizon_s,
                              show_seconds=TREE_DAY.show_seconds)
    return timeline, generate_sessions(TREE_DAY, timeline, TREE_DAY.horizon_s, seed)


def generator_digest(events, profiles) -> str:
    """sha256 of every field value in field order, floats by repr."""
    h = hashlib.sha256()
    for e in events:
        h.update(f"{e.time!r}|{e.peer_id}|{e.kind.value}|{e.position}|"
                 f"{e.duration!r}|{e.target}|{e.abrupt}\n".encode())
    for pid, p in profiles.items():
        h.update(f"{pid}|{p.peer_id}|{p.upload_capacity}|{p.storage_capacity}\n".encode())
    return h.hexdigest()


# The golden rows are 30 min runs with at most 3 shows, so only these
# digests pin the join draw over a 49-show catalog.
@pytest.mark.parametrize("seed, digest", [
    (1, "aa85634dbb93846dca8be64766827cb4dad9e8e01a6d0f4fef56beffa1021798"),
    (2, "46767ea708b6ccf581298f0debdcadfaac6d1c3f85e1126dfb7fa468797b5e9a"),
])
def test_tree_day_generator_output_is_pinned(seed, digest):
    _, events = tree_day_stream(seed)
    assert generator_digest(events, generate_profiles(events, TREE_DAY)) == digest


# Fidelity of the tree-day stream at seed 1: does the generator realize the
# parameters it is given? Each tolerance is 4 standard deviations of the
# count under the configured law. The stream is fixed, so these tests never
# flake; at 4 sigma, a stream reshuffled by a later change of the generator
# still passes all of them with probability above 0.999.

def binomial_ok(hits: int, trials: int, p: float) -> bool:
    return abs(hits - trials * p) <= 4 * math.sqrt(trials * p * (1 - p))


def poisson_ok(count: int, mean: float) -> bool:
    return abs(count - mean) <= 4 * math.sqrt(mean)


@pytest.fixture(scope="module")
def tree_day():
    """The seed-1 stream, walked viewer by viewer along the motion rule.

    Only viewers who join at least early_quit_window before the horizon
    are walked, so that no early quit is cut short by the horizon. An
    early quit leaves at join + U(0, window); a show-end leave at the air
    time of a chunk; every other session at the horizon. Between events a
    viewer keeps its lag and plays one chunk per chunk time, so the show
    boundaries it crosses are read off the chunks that air meanwhile.
    """
    timeline, events = tree_day_stream(1)
    params, horizon = timeline.params, TREE_DAY.horizon_s
    boundaries = {s.first_chunk for s in timeline.shows[1:]}
    sessions: dict[int, list[SessionEvent]] = {}
    for e in events:
        sessions.setdefault(e.peer_id, []).append(e)
    walked = [s for s in sessions.values()
              if s[0].time < horizon - TREE_DAY.early_quit_window]
    result = {"timeline": timeline, "sessions": list(sessions.values()),
              "walked": len(walked), "quits": [], "crossings": 0, "show_end": 0,
              "clock": {True: 0.0, False: 0.0},  # keyed by lag > 0
              "vcr": {(kind, moving): 0 for kind in (SessionEventKind.PAUSE,
                                                     SessionEventKind.SEEK_FORWARD,
                                                     SessionEventKind.SEEK_BACKWARD)
                      for moving in (True, False)}}
    for session in walked:
        leave = session[-1]
        on_air = leave.time == air_time(params, head_chunk_at(params, leave.time))
        if leave.time < horizon and not on_air:
            result["quits"].append(session)
            continue
        join = session[0]
        lag, t = head_chunk_at(params, join.time) - join.position, join.time
        for e in session[1:]:
            result["clock"][lag > 0] += e.time - t
            chunk = head_chunk_at(params, t) + 1
            while air_time(params, chunk) < e.time:
                result["crossings"] += chunk - lag in boundaries
                chunk += 1
            if e.kind is SessionEventKind.LEAVE:
                if e.time < horizon:
                    assert head_chunk_at(params, e.time) - lag in boundaries
                    result["show_end"] += 1
                break
            result["vcr"][e.kind, lag > 0] += 1
            head = head_chunk_at(params, e.time)
            if e.kind is SessionEventKind.PAUSE:
                t = e.time + e.duration
                lag = resumed_lag(params, lag, e.duration, head_chunk_at(params, t))
            else:
                t, lag = e.time, head - e.target
    return result


def test_tree_day_arrivals_match_their_poisson_mean(tree_day):
    params, config = tree_day["timeline"].params, TREE_DAY
    first_playable = air_time(params, 0)
    bursts = sum(1 for s in tree_day["timeline"].shows
                 if first_playable <= air_time(params, s.first_chunk) < config.horizon_s)
    # the last burst ends 60 s after its show airs, well before the horizon
    mean = (config.arrival_rate * (config.horizon_s - first_playable)
            + config.show_start_burst * bursts)
    assert poisson_ok(len(tree_day["sessions"]), mean)


def test_tree_day_early_quit_share(tree_day):
    quits = tree_day["quits"]
    # an early quitter draws no VCR event and no show-end leave
    assert all(len(s) == 2 and s[1].time - s[0].time <= TREE_DAY.early_quit_window
               for s in quits)
    assert binomial_ok(len(quits), tree_day["walked"], TREE_DAY.early_quit_fraction)


def test_tree_day_live_join_share(tree_day):
    params = tree_day["timeline"].params
    show_starts = [air_time(params, s.first_chunk) for s in tree_day["timeline"].shows]
    # Outside the minute after a show starts every join is free to choose,
    # and a Zipf-drawn join sits on the head only in a show's first chunk
    # time, which that minute holds.
    joins = [s[0] for s in tree_day["sessions"]
             if not any(a <= s[0].time <= a + 60 for a in show_starts)]
    live = sum(1 for j in joins if j.position == head_chunk_at(params, j.time))
    assert binomial_ok(live, len(joins), TREE_DAY.live_join_prob)


def test_tree_day_show_end_leave_share(tree_day):
    # every show boundary a watching viewer reaches is one leave draw
    draws = tree_day["crossings"] + tree_day["show_end"]
    assert binomial_ok(tree_day["show_end"], draws, TREE_DAY.show_end_leave_prob)


def test_tree_day_vcr_rate_and_split(tree_day):
    """VCR draws come at vcr_rate per second of VCR clock: time watched by
    viewers who do not quit early, pauses left out. A draw is a pause,
    a forward seek or a backward seek at 0.5 / 0.25 / 0.25; a forward seek
    at lag 0 cannot move and is dropped without a redraw."""
    P, F, B = VCR_KINDS
    vcr, clock, rate = tree_day["vcr"], tree_day["clock"], TREE_DAY.vcr_rate
    assert vcr[F, False] == 0
    at_live = vcr[P, False] + vcr[B, False]
    assert poisson_ok(at_live, 0.75 * rate * clock[False])
    # a backward seek at chunk 0 is dropped too, but no viewer spends more
    # than a chunk time there, so the rate behind the live edge is whole
    behind = vcr[P, True] + vcr[F, True] + vcr[B, True]
    assert poisson_ok(behind, rate * clock[True])

    live_share = clock[False] / (clock[False] + clock[True])
    realized = 1 - 0.25 * live_share
    total = at_live + behind
    for kind, weight in ((P, 0.5), (F, 0.25 * (1 - live_share)), (B, 0.25)):
        assert binomial_ok(vcr[kind, False] + vcr[kind, True], total, weight / realized)
