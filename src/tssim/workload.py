"""Synthetic viewer population: joins, leaves, pauses, and seeks.

No public measurement study of time-shifted viewing exists, so every
distribution here is a parameterized conjecture built from three
qualitative ingredients: show popularity decays like a Zipf law over
recency rank, a large share of viewers quits early into a show, and
leave probability spikes when playback crosses a show boundary. All
sampling is seeded and the generator is a pure function of its inputs.

Sessions are planned in lag space, by the motion rule in tssim.stream
that the engine plays them with: between events a viewer keeps its lag,
so it crosses a show boundary b when chunk b + lag airs, and a seek or
a pause changes the lag exactly as the engine will.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

from tssim.config import ScenarioConfig
from tssim.stream import StreamTimeline, air_time, head_chunk_at, resumed_lag


class SessionEventKind(Enum):
    JOIN = "join"
    LEAVE = "leave"
    PAUSE = "pause"
    SEEK_FORWARD = "seek_forward"
    SEEK_BACKWARD = "seek_backward"


VCR_KINDS = (
    SessionEventKind.PAUSE,
    SessionEventKind.SEEK_FORWARD,
    SessionEventKind.SEEK_BACKWARD,
)
# drawn with weights 0.5 / 0.25 / 0.25; these are their exact running sums
_VCR_CUM_WEIGHTS = (0.5, 0.75, 1.0)
# the largest Poisson mean drawn in one loop: exp(-mean) stays a normal float
_POISSON_MAX_MEAN = 700.0


class SessionEvent(NamedTuple):
    """One step of a viewer's session.

    `position` is set on JOIN (starting chunk), `duration` on PAUSE
    (seconds), `target` on seeks (destination chunk). `abrupt` marks a
    LEAVE that happens without notice, i.e. a crash or a closed laptop
    rather than a polite disconnect.
    """

    time: float
    peer_id: int
    kind: SessionEventKind
    position: int | None = None
    duration: float | None = None
    target: int | None = None
    abrupt: bool = False


class PeerProfile(NamedTuple):
    peer_id: int
    upload_capacity: int  # max concurrent transfers served
    storage_capacity: int  # max chunks stored


@lru_cache(maxsize=256)
def _zipf_norm(exponent: float, catalog_size: int) -> float:
    # left to right, so every Python gives the same join draws: sum()
    # compensates from 3.12 on, which moves the last digits
    norm = 0.0
    for i in range(1, catalog_size + 1):
        norm += i ** -exponent
    return norm


def zipf_popularity(rank: int, exponent: float, catalog_size: int) -> float:
    """Probability mass of the item at `rank` (1 = most popular)."""
    if catalog_size < 1:
        raise ValueError(f"catalog_size must be at least 1, got {catalog_size}")
    if not 1 <= rank <= catalog_size:
        raise ValueError(f"rank {rank} outside [1, {catalog_size}]")
    return rank ** -exponent / _zipf_norm(exponent, catalog_size)


@lru_cache(maxsize=256)
def _join_cum_weights(exponent: float, catalog_size: int) -> tuple[float, ...]:
    """Running sums of the recency weights of a catalog, oldest show first.

    The most recently started show gets rank 1. These are the sums that
    Random.choices builds from the plain weights, so passing them as
    cum_weights draws the same show.
    """
    return tuple(accumulate(zipf_popularity(catalog_size - i, exponent, catalog_size)
                            for i in range(catalog_size)))


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    if lam > _POISSON_MAX_MEAN:
        # exp(-lam) would underflow and end the loop near 745 whatever lam
        # is; a sum of independent Poisson draws is Poisson in the summed mean
        parts = math.ceil(lam / _POISSON_MAX_MEAN)
        return sum(_poisson(rng, lam / parts) for _ in range(parts))
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _choose_join_position(
    rng: random.Random,
    config: ScenarioConfig,
    timeline: StreamTimeline,
    head: int,
) -> int:
    if rng.random() < config.live_join_prob:
        return head
    catalog = timeline.shows_started_by(head)  # never empty: joins come at head >= 0
    show = rng.choices(catalog, cum_weights=_join_cum_weights(
        config.zipf_exponent, len(catalog)))[0]
    return min(show.first_chunk, head)


def _session_events(
    rng: random.Random,
    config: ScenarioConfig,
    timeline: StreamTimeline,
    horizon: float,
    peer_id: int,
    join_time: float,
    forced_position: int,
) -> list[SessionEvent]:
    """One viewer's session, JOIN first and LEAVE last.

    The viewer joins at `forced_position` when it is a chunk (>= 0), and
    otherwise live or at the start of a Zipf-drawn show. An early
    quitter leaves within early_quit_window and draws nothing else.
    Every other viewer draws a leave at each show boundary it reaches
    and VCR events at vcr_rate per second of playback, the clock halted
    while paused. A VCR draw is a pause, a forward seek or a backward
    seek at 0.5 / 0.25 / 0.25; a seek that cannot move, forward at lag 0
    or backward at chunk 0, is dropped without a redraw, so forward
    seeks come out rarer than a quarter of the events.
    """
    params = timeline.params
    head0 = head_chunk_at(params, join_time)
    if forced_position >= 0:
        pos = min(forced_position, head0)
    else:
        pos = _choose_join_position(rng, config, timeline, head0)
    events = [SessionEvent(time=join_time, peer_id=peer_id,
                           kind=SessionEventKind.JOIN, position=pos)]
    abrupt = rng.random() < config.abrupt_leave_prob

    if rng.random() < config.early_quit_fraction:
        leave = min(join_time + rng.uniform(0, config.early_quit_window), horizon)
        events.append(SessionEvent(time=leave, peer_id=peer_id,
                                   kind=SessionEventKind.LEAVE, abrupt=abrupt))
        return events

    last_tiled = timeline.shows[-1].last_chunk
    lag = head0 - pos
    t = join_time
    show = timeline.show_of_chunk(pos)
    while True:
        t_vcr = t + rng.expovariate(config.vcr_rate) if config.vcr_rate > 0 else math.inf
        boundary_chunk = show.last_chunk + 1
        t_boundary = (air_time(params, boundary_chunk + lag)
                      if boundary_chunk <= last_tiled else math.inf)
        t_next = min(t_vcr, t_boundary, horizon)
        if t_next >= horizon:
            events.append(SessionEvent(time=horizon, peer_id=peer_id,
                                       kind=SessionEventKind.LEAVE, abrupt=False))
            return events
        if t_boundary <= t_vcr:
            if rng.random() < config.show_end_leave_prob:
                events.append(SessionEvent(time=t_boundary, peer_id=peer_id,
                                           kind=SessionEventKind.LEAVE, abrupt=abrupt))
                return events
            show = timeline.show_of_chunk(boundary_chunk)
            t = t_boundary
            continue
        head = head_chunk_at(params, t_vcr)
        pos = head - lag
        kind = rng.choices(VCR_KINDS, cum_weights=_VCR_CUM_WEIGHTS)[0]
        t = t_vcr
        if kind is SessionEventKind.PAUSE:
            dur = min(rng.expovariate(1 / config.pause_mean_seconds), horizon - t_vcr)
            if dur > 0:
                events.append(SessionEvent(time=t_vcr, peer_id=peer_id,
                                           kind=kind, duration=dur))
                t = t_vcr + dur
                lag = resumed_lag(params, lag, dur, head_chunk_at(params, t))
        elif kind is SessionEventKind.SEEK_BACKWARD and pos > 0:
            target = rng.randrange(0, pos)
            events.append(SessionEvent(time=t_vcr, peer_id=peer_id,
                                       kind=kind, target=target))
            lag = head - target
        elif kind is SessionEventKind.SEEK_FORWARD and lag > 0:
            target = rng.randrange(pos + 1, head + 1)
            events.append(SessionEvent(time=t_vcr, peer_id=peer_id,
                                       kind=kind, target=target))
            lag = head - target
        show = timeline.show_of_chunk(head_chunk_at(params, t) - lag)


def generate_sessions(
    config: ScenarioConfig,
    timeline: StreamTimeline,
    horizon: float,
    seed: int | str,
) -> list[SessionEvent]:
    """Full event stream for a seeded population over [start, horizon].

    Arrivals are Poisson at `arrival_rate`, with an extra burst of joins
    whenever a show starts airing. Bursts too are drawn only when
    `arrival_rate` > 0, so a rate of 0 means no audience at all. Every
    session begins with JOIN and ends with LEAVE (at the horizon if
    nothing ended it earlier); the position trajectory never passes the
    head. Identical arguments give an identical event list. The audience
    fields are read from `config`; `horizon` is an absolute time and
    `seed` need not be `config.seed`.
    """
    params = timeline.params
    if horizon <= params.start_time:
        raise ValueError(f"horizon {horizon} not after stream start {params.start_time}")
    if not timeline.shows:
        raise ValueError("timeline has no shows")
    if timeline.shows[-1].last_chunk < head_chunk_at(params, horizon):
        raise ValueError("timeline does not tile the whole horizon")

    first_playable = air_time(params, 0)
    arrival_rng = random.Random(f"arrivals:{seed}")
    # (join time, forced start chunk, or -1 for a join free to choose)
    arrivals: list[tuple[float, int]] = []
    if config.arrival_rate > 0:
        t = first_playable
        while True:
            t += arrival_rng.expovariate(config.arrival_rate)
            if t >= horizon:
                break
            arrivals.append((t, -1))
        if config.show_start_burst > 0:
            for show in timeline.shows:
                airs_at = air_time(params, show.first_chunk)
                if airs_at < first_playable or airs_at >= horizon:
                    continue
                for _ in range(_poisson(arrival_rng, config.show_start_burst)):
                    when = airs_at + arrival_rng.uniform(0, 60)
                    if when < horizon:
                        arrivals.append((when, show.first_chunk))

    arrivals.sort()  # by time; at equal times a free join comes first
    events: list[SessionEvent] = []
    for peer_id, (join_time, forced) in enumerate(arrivals):
        session_rng = random.Random(f"session:{seed}:{peer_id}")
        events.extend(_session_events(session_rng, config, timeline, horizon,
                                      peer_id, join_time, forced))
    events.sort(key=attrgetter("time", "peer_id"))
    return events


def generate_profiles(
    events: list[SessionEvent], config: ScenarioConfig,
) -> dict[int, PeerProfile]:
    """One profile per peer in the event stream, sized by `config`."""
    profiles: dict[int, PeerProfile] = {}
    for e in events:
        if e.kind is SessionEventKind.JOIN:
            profiles[e.peer_id] = PeerProfile(
                peer_id=e.peer_id,
                upload_capacity=config.upload_capacity,
                storage_capacity=config.storage_chunks,
            )
    return profiles
