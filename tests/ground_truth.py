"""Ground truth for the simulator: the references the package is checked
against, which the simulation itself never calls. The tests and the
demos import it; the package never does. pytest puts `tests/` on the
path, and a demo run by hand needs it there too:

    PYTHONPATH=src:tests python3 demos/interval_sweep.py
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, islice

import tssim.interval
from tssim.drivers import TreeDriver
from tssim.engine import PRODUCER
from tssim.interval import (Infeasible, Interval, IntervalGraph, OverlayConstraints,
                            _require_lags, coverage_gaps_fast)
from tssim.stream import StreamParams, chunk_duration
from tssim.tree import EmergencyResult
from tssim.turntable import sector_of_chunk

# -- stream archive arithmetic --------------------------------------------------

def chunks_per_day(params: StreamParams) -> float:
    """Chunks recorded over 24 hours at the configured rate."""
    return 86_400 / chunk_duration(params)


def archive_chunks(params: StreamParams, days: float) -> float:
    """Chunks a full archive of `days` of stream history holds."""
    if days < 0:
        raise ValueError(f"negative archive span {days}")
    return days * chunks_per_day(params)


def archive_bytes(params: StreamParams, days: float) -> float:
    return archive_chunks(params, days) * params.chunk_size_bytes


# -- overlay structure probes ---------------------------------------------------

def is_connected(mesh) -> bool:
    """BFS over a SectorMesh's live view edges, both directions counted."""
    if not mesh.peers:
        return True
    adj: dict[int, set[int]] = {pid: set() for pid in mesh.peers}
    for pid, peer in mesh.peers.items():
        for nid in peer.neighbors:
            if nid in mesh.peers:
                adj[pid].add(nid)
                adj[nid].add(pid)
    seen = set()
    stack = [min(mesh.peers)]
    while stack:
        pid = stack.pop()
        if pid not in seen:
            seen.add(pid)
            stack.extend(adj[pid] - seen)
    return len(seen) == len(mesh.peers)


def root_of(tree) -> int | None:
    """The one node of a SectorTree directly under the producer; None
    when the tree is empty."""
    return next((pid for pid, node in tree.nodes.items() if node.parent == PRODUCER), None)


def root_claims(tree, chunk_id: int) -> bool:
    """Whether the summary of a SectorTree's root claims the chunk."""
    root = root_of(tree)
    return root is not None and tree.nodes[root].summary.claims(chunk_id)


def depth_of(tree, peer_id: int) -> int:
    """Edges between a tree node and the producer (the root is at 1),
    recounted along the parent links."""
    depth = 1
    parent = tree.nodes[peer_id].parent
    while parent != PRODUCER:
        parent = tree.nodes[parent].parent
        depth += 1
    return depth


def tree_depth(tree) -> int:
    """The deepest node's `depth_of`, 0 for an empty tree."""
    return max((depth_of(tree, pid) for pid in tree.nodes), default=0)


def holders(members: dict, chunk_id: int) -> list[int]:
    """The members whose store holds the chunk, ascending, recounted from
    the stores: pass a SectorTree's `nodes` or a SectorMesh's `peers`."""
    return sorted(pid for pid, member in members.items() if chunk_id in member.store)


class SectorLawDriver(TreeDriver):
    """Re-verifies the assignment law over all live pins at every audit.

    Sessions all end by the horizon, so the interesting state only
    exists mid-run; the audit timer is the natural sampling point.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.law_checks = 0
        self.law_violations = 0

    def on_audit(self, now):
        for pid, sector in sorted(self.turntable.sector_of_peer.items()):
            for chunk in self.engine.peers[pid].pinned:
                self.law_checks += 1
                if sector_of_chunk(chunk, self.config.m) != sector:
                    self.law_violations += 1
        super().on_audit(now)


# -- sector tree departures, in two passes ----------------------------------------

def unpin_all(tree, peer_id: int) -> set[int]:
    """Empty a SectorTree node's store through `update_summary` and return
    a copy of what it held: the first pass of `two_pass_departure`."""
    held = set(tree.nodes[peer_id].store)
    tree.update_summary(peer_id, removed=held)
    return held


def two_pass_departure(tree, peer_id: int, k_min: int) -> list[int]:
    """The reference for a departure's one `update_summary` walk: the
    chunks to re-replicate, found in two passes over the leaver's chunks.

    The first pass empties and publishes the leaver's store, and the peer
    is detached; the second asks `replica_counts` for the held chunks,
    ascending, and keeps those below k_min.
    """
    held = sorted(unpin_all(tree, peer_id))
    tree.detach(peer_id)
    return [chunk for chunk, count in zip(held, tree.replica_counts(held))
            if count < k_min]


# -- sector tree re-replication, one chunk at a time ------------------------------

def per_chunk_emergency_replicate(tree, chunk_ids, k_rep: int,
                                  producer_archive: bool) -> EmergencyResult:
    """A departure's re-replication one chunk at a time, in ascending order.

    Each chunk ranks the nodes afresh, deepest first with ties to the
    lowest peer id, and pins on those with spare storage that do not
    hold it; it stores and indexes the pins at once and walks each pin's
    summary rootward alone. These are the per-chunk rounds that
    SectorTree's by-node pass and its batched summary walk must
    reproduce, traffic included.
    """
    new_pins, fetched_from, lost, stored = {}, {}, [], {}
    for chunk_id in sorted(chunk_ids):
        held_by = holders(tree.nodes, chunk_id)
        if held_by:
            fetched_from[chunk_id] = held_by[0]
        elif producer_archive:
            fetched_from[chunk_id] = PRODUCER
        else:
            lost.append(chunk_id)
            continue
        need = k_rep - len(held_by)
        order = sorted(tree.nodes, key=lambda pid: (-depth_of(tree, pid), pid))
        pins = [pid for pid in order if pid not in held_by
                and len(tree.nodes[pid].store) < tree.nodes[pid].storage_capacity]
        pins = pins[:need] if need > 0 else []
        if not pins:
            continue
        new_pins[chunk_id] = pins
        for pid in pins:
            tree.nodes[pid].store.add(chunk_id)
            tree._holders.setdefault(chunk_id, set()).add(pid)
            stored.setdefault(pid, []).append(chunk_id)
        for pid in pins:
            tree._walk(pid, tree.nodes[pid].summary.keys_of(chunk_id))
    return EmergencyResult(new_pins, fetched_from, lost, stored)


# -- interval constraint checkers -----------------------------------------------
# The naive forms are the reference semantics, literal recounts; the fast
# forms read IntervalGraph's indices, the counts a run uses, and must agree.


def objective(intervals) -> int:
    """Total buffer length, the quantity the bound assignment minimizes."""
    if isinstance(intervals, IntervalGraph):
        intervals = intervals.intervals()
    return sum(iv.r - iv.l for iv in intervals)


def check_k_coverage(graph, constraints: OverlayConstraints) -> list[tuple[int, int]]:
    """Gaps as (lag, multiplicity) pairs; empty list means pass."""
    ivs = graph.intervals() if isinstance(graph, IntervalGraph) else list(graph)
    counts = [sum(1 for iv in ivs if iv.l <= t <= iv.r) for t in range(constraints.T + 1)]
    return [(t, count) for t, count in enumerate(counts) if count < constraints.k]


def check_capacity(graph, constraints: OverlayConstraints) -> list[tuple[int, int]]:
    """Overloaded peers as (peer_id, served_count) pairs; empty means pass.

    Peer y is served by x when y's to-play range [l_y, c_y] meets x's
    already-played range [c_x, r_x]. A peer never serves itself.
    """
    ivs = graph.intervals() if isinstance(graph, IntervalGraph) else list(graph)
    overloaded = []
    for x in ivs:
        count = sum(1 for y in ivs
                    if y.peer_id != x.peer_id and max(y.l, x.c) <= min(y.c, x.r))
        if count > constraints.cap_of(x.peer_id):
            overloaded.append((x.peer_id, count))
    return overloaded


def as_graph(intervals, T: int) -> IntervalGraph:
    """intervals as a graph that indexes at least lags 0..T.

    A list gets a new graph, so it may hold only one interval per peer:
    the graph is keyed by peer id.
    """
    if isinstance(intervals, IntervalGraph):
        _require_lags(intervals, T)
        return intervals
    intervals = list(intervals)
    vertices = {iv.peer_id: iv for iv in intervals}
    if len(vertices) != len(intervals):
        raise ValueError("a peer holds more than one interval")
    return IntervalGraph(T, vertices)


def capacity_overloads_fast(intervals, constraints: OverlayConstraints) -> list[tuple[int, int]]:
    """check_capacity, read from IntervalGraph.served_count, by peer id."""
    graph = as_graph(intervals, constraints.T)
    return [(x.peer_id, count) for x in graph.intervals()
            if (count := graph.served_count(x)) > constraints.cap_of(x.peer_id)]


# -- exhaustive optimizer -------------------------------------------------------
# Ground truth for the greedy sweep, which only seeds its bound; refuses
# anything big enough to be slow.

ORACLE_MAX_PEERS = 8
ORACLE_MAX_T = 20


def brute_force_oracle(
    positions: list[tuple[int, int]],
    constraints: OverlayConstraints,
) -> int | Infeasible:
    """Minimal total buffer length over all integer bound assignments.

    Searches every assignment with l in [0, c] and r in [c, T] (values
    outside that box are dominated: they add length and serving charge
    without covering anything new in [0, T]). Branch and bound keeps it
    fast at this scale. The greedy sweep's assignment, when both
    checkers accept it, seeds the upper bound; the search still visits
    every assignment cheaper than the seed, so the result is exact
    whatever the sweep returns.
    """
    n = len(positions)
    k, T = constraints.k, constraints.T
    if n > ORACLE_MAX_PEERS:
        raise ValueError(f"oracle handles at most {ORACLE_MAX_PEERS} peers, got {n}")
    if T > ORACLE_MAX_T:
        raise ValueError(f"oracle handles T up to {ORACLE_MAX_T}, got {T}")
    for pid, c in positions:
        if not isinstance(c, int) or not 0 <= c <= T:
            raise ValueError(f"peer {pid}: position {c} outside integer range [0, {T}]")
    if n < k:
        return Infeasible(blocking_lag=0)

    order = sorted(positions, key=lambda p: (p[1], p[0]))
    cands = [
        sorted((r - l, l, r) for l in range(c + 1) for r in range(c, T + 1))
        for _, c in order
    ]

    caps = [constraints.cap_of(pid) for pid, _ in order]
    # Peers with the same position and cap are interchangeable, so each
    # such run takes its pairs in sorted order: one of every permutation.
    twin = [i > 0 and order[i - 1][1] == c and caps[i - 1] == caps[i]
            for i, (_, c) in enumerate(order)]
    cover = [0] * (T + 1)
    chosen: list[Interval] = []
    charges = [0] * n
    best_obj = math.inf
    best_found = False
    # looked up through the module, so a test can stand another seed in
    seed = tssim.interval.sweep_assign_bounds(order, constraints)
    if (not isinstance(seed, Infeasible)
            and not coverage_gaps_fast(as_graph(seed, T), k, T)
            and not check_capacity(seed, constraints)):
        best_obj = objective(seed)
        best_found = True

    # nearest[i][t][m]: the m smallest distances from lag t to the
    # positions of peers i.. summed; covering t m more times costs that
    nearest = [
        [list(accumulate(sorted(abs(c - t) for _, c in order[i:]), initial=0))
         for t in range(T + 1)]
        for i in range(n + 1)
    ]

    def deficit_bound(i: int) -> tuple[float, int, int]:
        """(lower bound on remaining cost, mandatory-cover lo, hi).

        The mandatory range is the span of lags whose deficit equals
        the number of unassigned peers: every one of them must cover
        the whole range or the branch is dead. (-1, -1) when empty.
        """
        remaining = n - i
        total = 0
        full_lo = full_hi = -1
        anchor = 0
        near = nearest[i]
        for t in range(T + 1):
            need = k - cover[t]
            if need > remaining:
                return math.inf, -1, -1  # not enough peers left for lag t
            if need <= 0:
                continue
            total += need
            if need == remaining:
                if full_lo < 0:
                    full_lo = t
                full_hi = t
            # covering this lag costs each involved peer its distance to t;
            # the `need` cheapest peers give a valid bound for lag t alone
            lag_cost = near[t][need]
            if lag_cost > anchor:
                anchor = lag_cost
        # Each remaining peer covers at most (length + 1) lags, so total
        # deficit forces at least total - remaining extra length.
        lb = max(0, total - remaining, anchor)
        if full_lo >= 0:
            span = sum(
                max(full_hi, c) - min(full_lo, c) for _, c in order[i:]
            )
            lb = max(lb, span)
        return lb, full_lo, full_hi

    def dfs(i: int, obj: int) -> None:
        nonlocal best_obj, best_found
        lb, full_lo, full_hi = deficit_bound(i)
        if math.isinf(lb) or obj + lb >= best_obj:
            return
        if i == n:
            best_obj = obj
            best_found = True
            return
        pid, c = order[i]
        cap_i = caps[i]
        start = 0
        if twin[i]:
            w = chosen[-1]
            start = bisect_left(cands[i], (w.r - w.l, w.l, w.r))
        for cost, l, r in islice(cands[i], start, None):
            if obj + cost >= best_obj:
                break  # pairs sorted by cost; nothing cheaper follows
            if full_lo >= 0 and (l > full_lo or r < full_hi):
                continue  # this peer is needed across the mandatory range
            new_charge_i = 0
            ok = True
            for j, w in enumerate(chosen):
                # w was placed earlier, so w.c <= c (ties included via >=).
                if l <= w.r and c >= w.c:
                    if charges[j] + 1 > caps[j]:
                        ok = False
                        break
                if w.l <= r and w.c >= c:
                    new_charge_i += 1
            if not ok or new_charge_i > cap_i:
                continue
            iv = Interval(peer_id=pid, l=l, c=c, r=r)
            bumped = []
            for j, w in enumerate(chosen):
                if l <= w.r and c >= w.c:
                    charges[j] += 1
                    bumped.append(j)
            chosen.append(iv)
            charges[i] = new_charge_i
            for t in range(l, min(r, T) + 1):
                cover[t] += 1
            dfs(i + 1, obj + cost)
            for t in range(l, min(r, T) + 1):
                cover[t] -= 1
            chosen.pop()
            charges[i] = 0
            for j in bumped:
                charges[j] -= 1

    dfs(0, 0)
    if not best_found:
        return Infeasible(blocking_lag=0)
    return int(best_obj)
