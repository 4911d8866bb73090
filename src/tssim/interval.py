"""Flat overlay of per-peer lag intervals with coverage and capacity laws.

Each peer x buffers a contiguous range of lags [l, r] around its playing
position c (0 <= l <= c <= r; smaller lag = fresher). The chunks in
[l, c) are queued for playback, the ones in (c, r] were already played
and are kept for others. Two global constraints shape the assignment of
bounds: every lag in [0, T] must lie inside at least k intervals, and
the number of peers whose to-play range touches x's already-played
range must not exceed x's serving capacity.

Intervals are closed on integer lags throughout: lag t is covered by x
iff l <= t <= r, and two ranges intersect iff max of the left ends is
<= min of the right ends.

IntervalGraph keeps the one production count of each constraint as an
index: `holders` gives every lag's coverage and `served_count` every
peer's serving load. The sweep, repair and the coverage samples all
read them, and `IntervalGraph.index_drift` recounts the indices from
the vertices in a checked run. The sweep and repair share one greedy
extension rule, `_extend_to_cover`. The naive recounts of both laws and
the exhaustive optimizer that checks the sweep live with the tests, in
tests/ground_truth.py.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Interval:
    peer_id: int
    l: int  # fresh bound, in lag chunks
    c: int  # playing position, in lag chunks
    r: int  # old bound, in lag chunks

    def __post_init__(self) -> None:
        if not 0 <= self.l <= self.c <= self.r:
            raise ValueError(
                f"peer {self.peer_id}: bounds must satisfy 0 <= l <= c <= r, "
                f"got ({self.l}, {self.c}, {self.r})"
            )


@dataclass
class OverlayConstraints:
    k: int
    T: int  # oldest lag to protect
    default_cap: float = math.inf
    caps: dict[int, float] = field(default_factory=dict)

    def cap_of(self, peer_id: int) -> float:
        return self.caps.get(peer_id, self.default_cap)


@dataclass
class IntervalGraph:
    """Vertices are intervals, keyed by peer id, with three indices.

    `holders[t]` is the set of peers whose interval covers lag t, for
    every lag 0..T, so lag t's coverage is `len(holders[t])`. `by_c`
    and `by_l` hold the (c, peer id) and (l, peer id) pairs of every
    vertex in sorted order, past T included: `served_count` is two
    bisects on them, and repair reads its neighbourhood from them.
    `add` and `remove` keep the indices current, touching only the lags
    a change gains or loses and only the lists whose bound it moves;
    repair and serving read them instead of rescanning every interval.
    """

    T: int
    vertices: dict[int, Interval] = field(default_factory=dict)
    holders: list[set[int]] = field(init=False, repr=False, compare=False)
    by_c: list[tuple[int, int]] = field(init=False, repr=False, compare=False)
    by_l: list[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.holders = [set() for _ in range(self.T + 1)]
        self.by_c = []
        self.by_l = []
        for iv in self.vertices.values():
            self._reindex(iv.peer_id, None, iv)

    def add(self, interval: Interval) -> None:
        old = self.vertices.get(interval.peer_id)
        self.vertices[interval.peer_id] = interval
        self._reindex(interval.peer_id, old, interval)

    def remove(self, peer_id: int) -> Interval:
        old = self.vertices.pop(peer_id)
        self._reindex(peer_id, old, None)
        return old

    def intervals(self) -> list[Interval]:
        return [self.vertices[pid] for pid in sorted(self.vertices)]

    def coverage(self) -> list[int]:
        """How many intervals cover each lag 0..T, read from the index."""
        return [len(h) for h in self.holders]

    def served_count(self, x: Interval) -> int:
        """How many stored intervals of other peers x serves.

        y is served when y.l <= x.r and y.c >= x.c. Any y with
        y.c < x.c also has y.l <= y.c < x.c <= x.r, so the count is the
        fresh bounds at or below x.r minus the positions below x.c,
        less x's own stored interval if that qualifies. x itself need
        not be stored: repair prices a candidate this way.
        """
        own = self.vertices.get(x.peer_id)
        mine = own is not None and own.l <= x.r and own.c >= x.c
        return (bisect_left(self.by_l, (x.r + 1,))
                - bisect_left(self.by_c, (x.c,)) - mine)

    def _span(self, iv: Interval | None) -> tuple[int, int]:
        """The lags of iv inside [0, T]; (0, -1) when there are none."""
        if iv is None:
            return 0, -1
        hi = min(iv.r, self.T)
        return (iv.l, hi) if iv.l <= hi else (0, -1)

    def _reindex(self, pid: int, old: Interval | None, new: Interval | None) -> None:
        old_lo, old_hi = self._span(old)
        new_lo, new_hi = self._span(new)
        holders = self.holders
        # lags of old left of new, then right of it; same for new vs old
        for t in range(old_lo, min(old_hi, new_lo - 1) + 1):
            holders[t].discard(pid)
        for t in range(max(old_lo, new_hi + 1), old_hi + 1):
            holders[t].discard(pid)
        for t in range(new_lo, min(new_hi, old_lo - 1) + 1):
            holders[t].add(pid)
        for t in range(max(new_lo, old_hi + 1), new_hi + 1):
            holders[t].add(pid)
        _move_pair(self.by_c, pid, None if old is None else old.c,
                   None if new is None else new.c)
        _move_pair(self.by_l, pid, None if old is None else old.l,
                   None if new is None else new.l)

    def index_drift(self) -> list[str]:
        """Where the indices disagree with a recount over the vertices."""
        ivs = list(self.vertices.values())
        problems = [
            f"lag {t} holders differ from a recount"
            for t, h in enumerate(self.holders)
            if h != {iv.peer_id for iv in ivs if iv.l <= t <= iv.r}
        ]
        if self.by_c != sorted((iv.c, pid) for pid, iv in self.vertices.items()):
            problems.append("position list differs from the vertices")
        if self.by_l != sorted((iv.l, pid) for pid, iv in self.vertices.items()):
            problems.append("fresh-bound list differs from the vertices")
        for x in ivs:
            naive = sum(1 for y in ivs if y.peer_id != x.peer_id
                        and y.l <= x.r and y.c >= x.c)
            if self.served_count(x) != naive:
                problems.append(f"peer {x.peer_id} served count differs from a recount")
        return problems


def _move_pair(pairs: list[tuple[int, int]], pid: int,
               before: int | None, after: int | None) -> None:
    """Move pid's (value, pid) pair in a sorted list; None is absent."""
    if before == after:
        return
    if before is not None:
        del pairs[bisect_left(pairs, (before, pid))]
    if after is not None:
        insort(pairs, (after, pid))


def _require_lags(graph: IntervalGraph, T: int) -> None:
    if graph.T < T:
        raise ValueError(f"graph indexes lags up to {graph.T}, asked for {T}")


def coverage_gaps_fast(graph: IntervalGraph, k: int, T: int) -> list[tuple[int, int]]:
    """Lags 0..T covered fewer than k times, as (lag, coverage) pairs,
    read from graph.holders."""
    _require_lags(graph, T)
    cover = graph.coverage()[:T + 1]
    return [(t, count) for t, count in enumerate(cover) if count < k]


@dataclass(frozen=True)
class Infeasible:
    blocking_lag: int


# ---------------------------------------------------------------------------
# Greedy bound assignment: one pass from the live edge toward the oldest
# protected lag.

def sweep_assign_bounds(
    positions: list[tuple[int, int]],
    constraints: OverlayConstraints,
) -> list[Interval] | Infeasible:
    """Assign every peer an interval around its position, greedily.

    Peers are taken freshest first (the caller supplies them sorted by
    (lag, peer id)). The k freshest anchor their fresh bound at lag 0 so
    coverage starts at the live edge; everyone else starts with the
    zero-length interval at its own position. The sweep then walks lags
    0..T and, wherever coverage falls short of k, applies the cheapest
    admissible single-peer extension: either a fresher peer keeps its
    old bound longer (r grows) or an older peer promises to fetch ahead
    (l shrinks). An extension is admissible when every serving count it
    touches stays within cap. Cost ties prefer growing r, since those
    chunks were already played and kept, then the lower peer id. This
    is the extension rule event repair uses, run lag by lag over a
    fresh graph with every peer a candidate.

    Returns the intervals in input order, or Infeasible at the first
    lag where no admissible extension exists. Greedy, not optimal; the
    exhaustive oracle measures the gap on small instances.
    """
    k, T = constraints.k, constraints.T
    if sorted(positions, key=lambda p: (p[1], p[0])) != list(positions):
        raise ValueError("positions must be sorted by (lag, peer id)")
    for pid, c in positions:
        if not isinstance(c, int) or c < 0:
            raise ValueError(f"peer {pid}: position must be a non-negative integer")
    if len(positions) < k:
        return Infeasible(blocking_lag=0)

    graph = IntervalGraph(T)
    for i, (pid, c) in enumerate(positions):
        graph.add(Interval(pid, 0 if i < k else c, c, c))
    # Anchoring and same-position point overlaps are forced, so a cap
    # breach here is a genuine infeasibility, not a greedy dead end.
    if any(graph.served_count(iv) > constraints.cap_of(pid)
           for pid, iv in graph.vertices.items()):
        return Infeasible(blocking_lag=0)
    members = set(graph.vertices)
    for t in range(T + 1):
        if _extend_to_cover(graph, constraints, t, t, members).incidents:
            return Infeasible(blocking_lag=t)
    return [graph.vertices[pid] for pid, _ in positions]


# ---------------------------------------------------------------------------
# Event-driven repair. Churn and VCR moves only ever extend surviving
# intervals here; a periodic full re-sweep (rebalance) is what shrinks
# them back once the population has settled.

@dataclass(frozen=True)
class OverlayEvent:
    kind: str  # "join" | "leave" | "move"
    peer_id: int
    lag: int | None = None  # join/move target


@dataclass
class RepairOutcome:
    changed: dict[int, Interval] = field(default_factory=dict)
    incidents: list[tuple[int, int]] = field(default_factory=list)


def _admissible(graph: IntervalGraph, constraints: OverlayConstraints,
                cand: Interval, side: str) -> bool:
    """Whether putting cand in place of its peer's interval keeps the caps.

    cand differs from the stored interval in one bound. Growing r adds
    to cand's own served count only. Growing l (side "l") leaves cand's
    own count as it was but charges cand to every w whose played range
    it now meets; each such w is rechecked with cand counted once, which
    adds one where the stored l did not reach w.r yet.
    """
    pid = cand.peer_id
    cap_of = constraints.cap_of
    if graph.served_count(cand) > cap_of(pid):
        return False
    if side == "l":
        old_l = graph.vertices[pid].l
        for w in graph.vertices.values():
            if (
                w.peer_id != pid
                and cand.l <= w.r
                and cand.c >= w.c
                and graph.served_count(w) + (old_l > w.r) > cap_of(w.peer_id)
            ):
                return False
    return True


def _has_short_lag(graph: IntervalGraph, constraints: OverlayConstraints,
                   window_lo: int, window_hi: int) -> bool:
    """Whether a lag of the window, clipped to 0..T as _extend_to_cover
    clips it, is covered fewer than k times."""
    k = constraints.k
    lags = graph.holders[max(0, window_lo):min(constraints.T, window_hi) + 1]
    return any(len(h) < k for h in lags)


def _extend_to_cover(
    graph: IntervalGraph,
    constraints: OverlayConstraints,
    window_lo: int,
    window_hi: int,
    members: set[int],
) -> RepairOutcome:
    outcome = RepairOutcome()
    k = constraints.k
    vertices = graph.vertices
    holders = graph.holders
    cap_of = constraints.cap_of
    window_lo = max(0, window_lo)
    window_hi = min(constraints.T, window_hi)
    # A member whose stored interval already serves past its cap can
    # take no extension in this call: growing r serves a superset of the
    # stored interval's peers and growing l the same ones, and here
    # positions never move and fresh bounds only fall, so served counts
    # only grow while caps stay fixed. Each member is priced once, at the
    # first short lag where it offers an option, and dropped if past its
    # cap. A member under its cap may pass it later, so it is priced
    # again by _admissible at every try.
    priced: set[int] = set()
    past_cap: set[int] = set()

    for t in range(window_lo, window_hi + 1):
        cover = len(holders[t])
        if cover >= k:
            continue
        # an extension changes only its own member's option, so the sorted
        # list is built once per lag and loses just the member extended;
        # every pass still retries from the cheapest, as the caps moved
        options = []
        for pid in members:
            if pid in past_cap:
                continue
            iv = vertices.get(pid)
            if iv is None or iv.l <= t <= iv.r:
                continue
            if iv.c <= t and iv.r < t:
                option = (t - iv.r, 0, pid, "r")
            elif iv.c >= t and iv.l > t:
                option = (iv.l - t, 1, pid, "l")
            else:
                continue
            if pid not in priced:
                priced.add(pid)
                if graph.served_count(iv) > cap_of(pid):
                    past_cap.add(pid)
                    continue
            options.append(option)
        options.sort()
        while cover < k:
            for i, (_cost, _pref, pid, side) in enumerate(options):
                iv = vertices[pid]
                cand = (Interval(pid, iv.l, iv.c, t) if side == "r"
                        else Interval(pid, t, iv.c, iv.r))
                if _admissible(graph, constraints, cand, side):
                    graph.add(cand)
                    outcome.changed[pid] = cand
                    del options[i]
                    break
            else:
                outcome.incidents.append((t, cover))
                break
            cover = len(holders[t])
    return outcome


def _affected_members(graph: IntervalGraph, span_lo: int, span_hi: int,
                      extras: int = 3) -> set[int]:
    """The members whose intervals meet [span_lo, span_hi], plus the
    `extras` nearest others by (distance of c from the span's centre,
    peer id).
    """
    if span_lo <= graph.T:
        # covering span_lo, or starting inside the span after it
        by_l = graph.by_l
        members = set(graph.holders[span_lo])
        members.update(pid for _, pid in by_l[bisect_left(by_l, (span_lo + 1,)):
                                              bisect_left(by_l, (span_hi + 1,))])
    else:
        members = {iv.peer_id for iv in graph.vertices.values()
                   if iv.l <= span_hi and span_lo <= iv.r}
    # Above the centre the list runs in (distance, id) order, so its
    # first `extras` outsiders are the nearest there. Below it ids run
    # backwards within a position, so take every outsider up to the
    # `extras`-th one's distance and let the sort order them.
    center = (span_lo + span_hi) // 2
    by_c = graph.by_c
    mid = bisect_left(by_c, (center,))
    above: list[tuple[int, int]] = []
    for i in range(mid, len(by_c)):
        if len(above) == extras:
            break
        c, pid = by_c[i]
        if pid not in members:
            above.append((c - center, pid))
    below: list[tuple[int, int]] = []
    for i in range(mid - 1, -1, -1):
        c, pid = by_c[i]
        if len(below) >= extras and center - c > below[-1][0]:
            break
        if pid not in members:
            below.append((center - c, pid))
    members.update(pid for _, pid in sorted(above + below)[:extras])
    return members


def repair_on_event(
    graph: IntervalGraph,
    constraints: OverlayConstraints,
    event: OverlayEvent,
) -> RepairOutcome:
    """Patch coverage around one membership or position change.

    The peers whose intervals touched the vacated range, plus a few
    gossip-discovered outsiders, greedily extend their bounds to close
    any deficit the event opened. Deficits nobody can close within
    capacity are returned as incidents rather than raised: they are the
    overlay's headline failure metric, not a programming error. When no
    lag of the range is short, nothing is extended, so the neighbourhood
    is not gathered at all.
    """
    _require_lags(graph, constraints.T)
    if event.kind == "join":
        if event.lag is None or event.lag < 0:
            raise ValueError("join needs a non-negative lag")
        graph.add(Interval(event.peer_id, event.lag, event.lag, event.lag))
        outcome = RepairOutcome()
        outcome.changed[event.peer_id] = graph.vertices[event.peer_id]
        return outcome
    if event.kind == "leave":
        departed = graph.vertices.get(event.peer_id)
        if departed is None:
            return RepairOutcome()
        graph.remove(event.peer_id)
        if not _has_short_lag(graph, constraints, departed.l, departed.r):
            return RepairOutcome()
        members = _affected_members(graph, departed.l, departed.r)
        return _extend_to_cover(graph, constraints, departed.l, departed.r, members)
    if event.kind == "move":
        if event.lag is None or event.lag < 0:
            raise ValueError("move needs a non-negative lag")
        old = graph.vertices.get(event.peer_id)
        graph.add(Interval(event.peer_id, event.lag, event.lag, event.lag))
        if old is None:
            return RepairOutcome()
        span_lo = min(old.l, event.lag)
        span_hi = max(old.r, event.lag)
        if not _has_short_lag(graph, constraints, span_lo, span_hi):
            return RepairOutcome()
        members = _affected_members(graph, span_lo, span_hi)
        members.add(event.peer_id)
        return _extend_to_cover(graph, constraints, span_lo, span_hi, members)
    raise ValueError(f"unknown overlay event kind {event.kind!r}")


def rebalance(
    graph: IntervalGraph,
    constraints: OverlayConstraints,
) -> RepairOutcome:
    """Re-run the sweep over the live population and adopt its bounds.

    Falls back to leaving intervals untouched (reporting any current
    gaps as incidents) when the sweep cannot place everyone, so a
    failed rebalance never costs coverage the overlay already had.
    """
    positions = sorted(
        ((iv.peer_id, iv.c) for iv in graph.intervals()),
        key=lambda p: (p[1], p[0]),
    )
    outcome = RepairOutcome()
    if not positions:
        outcome.incidents.extend((t, 0) for t in range(constraints.T + 1))
        return outcome
    result = sweep_assign_bounds(positions, constraints)
    if isinstance(result, Infeasible):
        outcome.incidents.extend(coverage_gaps_fast(graph, constraints.k, constraints.T))
        return outcome
    for iv in result:
        if graph.vertices[iv.peer_id] != iv:
            graph.add(iv)
            outcome.changed[iv.peer_id] = iv
    return outcome
