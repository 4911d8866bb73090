import math
import random

import pytest

from tssim.stream import (
    StreamParams,
    air_time,
    build_timeline,
    chunk_duration,
    head_chunk_at,
    resumed_lag,
)


def test_default_chunk_duration_is_32_seconds():
    assert chunk_duration(StreamParams()) == 32.0


def test_unit_chunk_duration():
    assert chunk_duration(StreamParams(bitrate_bps=1, chunk_size_bytes=1)) == 8.0


def test_chunks_per_day_at_default_rate():
    per_day = 86400 / chunk_duration(StreamParams())
    assert per_day == 2700


def test_month_of_storage_close_to_round_figures():
    params = StreamParams()
    chunks = 30 * 86400 / chunk_duration(params)
    assert chunks == 81000
    assert abs(chunks - 80000) / 80000 < 0.05
    gigabytes = chunks * params.chunk_size_bytes / 1e9
    assert gigabytes == 162.0
    assert abs(gigabytes - 160) / 160 < 0.05


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        StreamParams(bitrate_bps=0)
    with pytest.raises(ValueError):
        StreamParams(chunk_size_bytes=-1)


def test_produced_at_round_trip():
    params = StreamParams(start_time=12.5)
    rng = random.Random("stream-roundtrip")
    for _ in range(200):
        cid = rng.randrange(0, 100_000)
        airs_at = air_time(params, cid)
        assert airs_at == params.start_time + (cid + 1) * chunk_duration(params)
        assert head_chunk_at(params, airs_at) == cid
        assert head_chunk_at(params, airs_at - 0.5) == cid - 1


def test_head_chunk_at_agrees_with_air_time():
    # non-integer chunk durations, where t / d rounds across a whole number
    for stream_kbps in (64, 100, 128, 250, 300, 333, 500, 768, 1000, 1500):
        for chunk_mb in (0.1, 0.3, 0.7, 1.1, 2.0, 2.7, 3.3):
            params = StreamParams(bitrate_bps=stream_kbps * 1000,
                                  chunk_size_bytes=int(chunk_mb * 1_000_000))
            for c in range(2000):
                airs_at = air_time(params, c)
                assert head_chunk_at(params, airs_at) == c
                assert head_chunk_at(params, math.nextafter(airs_at, 0.0)) == c - 1


def test_timeline_tiles_every_chunk_the_engine_produces():
    params = StreamParams(bitrate_bps=250_000, chunk_size_bytes=2_700_000)
    horizon = 21_600.0
    produced = 0
    while air_time(params, produced) <= horizon:
        produced += 1  # the engine's produce loop
    assert build_timeline(params, horizon).shows[-1].last_chunk == produced - 1


def pause_lag_increase(params, pause_seconds):
    """Lag a pause adds far from the stream start, where the cap never binds."""
    return resumed_lag(params, 0, pause_seconds, head=10**9)


def test_pause_lag_increase_rounds_up():
    params = StreamParams()  # 32 s chunks
    assert pause_lag_increase(params, 64.0) == 2
    assert pause_lag_increase(params, 0.0) == 0
    assert pause_lag_increase(params, 1.0) == 1
    assert pause_lag_increase(params, 32.0) == 1
    assert pause_lag_increase(params, 32.1) == 2
    with pytest.raises(ValueError):
        pause_lag_increase(params, -1.0)


def test_pause_lag_increase_never_below_exact_ratio():
    params = StreamParams()
    rng = random.Random("pause-ceil")
    d = chunk_duration(params)
    for _ in range(500):
        pause = rng.uniform(0, 5000)
        got = pause_lag_increase(params, pause)
        assert got >= pause / d
        assert got < pause / d + 1


def test_resumed_lag_caps_at_the_head():
    params = StreamParams()
    assert resumed_lag(params, 10, 100.0, head=50) == 14
    # the position never goes below chunk 0
    assert resumed_lag(params, 48, 100.0, head=50) == 50
    assert resumed_lag(params, 50, 1.0, head=50) == 50
    assert resumed_lag(params, 0, 1.0, head=-1) == 0


def test_head_chunk_at_counts_completed_recordings():
    params = StreamParams()
    assert head_chunk_at(params, 0.0) == -1
    assert head_chunk_at(params, 31.9) == -1
    assert head_chunk_at(params, 32.0) == 0
    # One hour of recording completes 112 chunks (ids 0..111).
    assert head_chunk_at(params, 3600.0) == 111


def test_timeline_tiles_chunks_without_gaps_or_overlaps():
    params = StreamParams()
    timeline = build_timeline(params, horizon_seconds=6 * 3600, show_seconds=1800)
    covered = []
    for show in timeline.shows:
        covered.extend(range(show.first_chunk, show.last_chunk + 1))
    final_head = head_chunk_at(params, params.start_time + 6 * 3600)
    assert covered == list(range(final_head + 1))


# one short show, exactly two full 56-chunk shows, and a short last show
@pytest.mark.parametrize("horizon", [600.0, 3584.0, 8 * 3600.0])
def test_show_of_chunk_lookup(horizon):
    timeline = build_timeline(StreamParams(), horizon_seconds=horizon)
    last = timeline.shows[-1].last_chunk
    for cid in range(last + 1):
        expected = [s for s in timeline.shows if s.first_chunk <= cid <= s.last_chunk]
        assert [timeline.show_of_chunk(cid)] == expected
    for outside in (-1, last + 1):
        with pytest.raises(ValueError):
            timeline.show_of_chunk(outside)


@pytest.mark.parametrize("horizon", [600.0, 3584.0, 8 * 3600.0])
def test_shows_started_by_lookup(horizon):
    timeline = build_timeline(StreamParams(), horizon_seconds=horizon)
    last = timeline.shows[-1].last_chunk
    for head in range(-60, last + 60):
        expected = [s for s in timeline.shows if s.first_chunk <= head]
        assert timeline.shows_started_by(head) == expected
