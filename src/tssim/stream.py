"""Source stream model: fixed-size chunks, shows, and the lag coordinate.

The source emits an append-only sequence of equal-size chunks. Shows
partition that sequence into consecutive, non-overlapping runs. Every
overlay in the package addresses positions by *lag*: the distance in
whole chunks between the newest recorded chunk (the head) and the chunk
a viewer is playing. Lag 0 is the live edge.

Viewer motion has one rule, shared by the workload that plans each
session and the engine that plays it. Chunk c airs (finishes recording)
at air_time(c) = (c + 1) * d, d being chunk_duration. A playing viewer
keeps its lag, so its position at time t is head_chunk_at(t) - lag. A
pause adds ceil(pause / d) to the lag, capped so the position never
goes below chunk 0 (resumed_lag). A seek sets lag = head - target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from tssim.config import ScenarioConfig


@dataclass(frozen=True)
class StreamParams:
    # the scenario's stream, in the units the engine converts it to
    bitrate_bps: float = ScenarioConfig.stream_kbps * 1000
    chunk_size_bytes: int = int(ScenarioConfig.chunk_mb * 1_000_000)
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ValueError(f"bitrate_bps must be positive, got {self.bitrate_bps}")
        if self.chunk_size_bytes <= 0:
            raise ValueError(
                f"chunk_size_bytes must be positive, got {self.chunk_size_bytes}"
            )


@dataclass(frozen=True)
class Show:
    id: int
    first_chunk: int
    last_chunk: int

    def __post_init__(self) -> None:
        if self.first_chunk > self.last_chunk:
            raise ValueError(f"show {self.id}: first_chunk > last_chunk")


def chunk_duration(params: StreamParams) -> float:
    """Seconds of playback per chunk."""
    return params.chunk_size_bytes * 8 / params.bitrate_bps


def resumed_lag(params: StreamParams, lag: int, pause_seconds: float,
                head: int) -> int:
    """Lag of a viewer resuming at `head` after pausing `pause_seconds` at `lag`.

    The pause is rounded up to whole chunks: a resumed viewer may sit
    slightly further behind than the raw ratio, never ahead of it. The
    lag is capped at the head, so the position never goes below chunk 0.
    """
    if pause_seconds < 0:
        raise ValueError(f"negative pause duration {pause_seconds}")
    return min(lag + math.ceil(pause_seconds / chunk_duration(params)), max(0, head))


def air_time(params: StreamParams, chunk: int) -> float:
    """Instant chunk `chunk` finishes recording and becomes fetchable."""
    return params.start_time + (chunk + 1) * chunk_duration(params)


def head_chunk_at(params: StreamParams, time: float) -> int:
    """Id of the newest fully recorded chunk at an instant; -1 before any.

    Chunk c covers stream interval [c*d, (c+1)*d) and only becomes
    fetchable once its recording completes, at air_time(c). The head is
    the largest c with air_time(c) <= time.
    """
    if time < params.start_time:
        raise ValueError(f"time {time} precedes stream start {params.start_time}")
    start, d = params.start_time, chunk_duration(params)
    head = math.floor((time - start) / d) - 1
    # the quotient can round across a whole number, so settle the head
    # against air_time(head + 1) and air_time(head), written out
    if start + (head + 2) * d <= time:
        return head + 1
    if start + (head + 1) * d > time:
        return head - 1
    return head


@dataclass
class StreamTimeline:
    """Shows tiling the chunk sequence, every show but the last as long
    as the first, as build_timeline makes them; the lookups rely on it."""

    params: StreamParams
    shows: list[Show] = field(default_factory=list)

    def show_of_chunk(self, chunk_id: int) -> Show:
        if not self.shows or chunk_id < 0 or chunk_id > self.shows[-1].last_chunk:
            raise ValueError(f"chunk {chunk_id} outside the tiled range")
        return self.shows[chunk_id // (self.shows[0].last_chunk + 1)]

    def shows_started_by(self, head: int) -> list[Show]:
        """Shows whose first chunk exists at the given head (oldest first)."""
        if not self.shows or head < 0:
            return []
        return self.shows[:head // (self.shows[0].last_chunk + 1) + 1]


def build_timeline(
    params: StreamParams,
    horizon_seconds: float,
    show_seconds: float = ScenarioConfig.show_seconds,
) -> StreamTimeline:
    """Tile every chunk recorded within the horizon into consecutive shows.

    Show boundaries are chunk-aligned; the requested show length is
    rounded to the nearest whole number of chunks (minimum 1).
    """
    if horizon_seconds <= 0:
        raise ValueError(f"horizon must be positive, got {horizon_seconds}")
    if show_seconds <= 0:
        raise ValueError(f"show length must be positive, got {show_seconds}")
    final_head = head_chunk_at(params, params.start_time + horizon_seconds)
    show_chunks = max(1, round(show_seconds / chunk_duration(params)))
    n_chunks = final_head + 1
    n_shows = max(1, math.ceil(n_chunks / show_chunks)) if n_chunks > 0 else 1
    shows = []
    for i in range(n_shows):
        first = i * show_chunks
        last = min((i + 1) * show_chunks, max(n_chunks, 1)) - 1
        shows.append(Show(id=i, first_chunk=first, last_chunk=last))
    return StreamTimeline(params=params, shows=shows)
