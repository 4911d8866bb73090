import heapq
import math
import random
from dataclasses import replace

import pytest

import tssim.interval
from ground_truth import (
    as_graph,
    brute_force_oracle,
    capacity_overloads_fast,
    check_capacity,
    check_k_coverage,
    objective,
)
from tssim.config import ScenarioConfig, validate_config
from tssim.drivers import IntervalDriver
from tssim.engine import DEDICATED, PRODUCER, Engine, PeerState
from tssim.interval import (
    Infeasible,
    Interval,
    IntervalGraph,
    OverlayConstraints,
    OverlayEvent,
    RepairOutcome,
    _admissible,
    _affected_members,
    coverage_gaps_fast,
    rebalance,
    repair_on_event,
    sweep_assign_bounds,
)
from tssim.stream import StreamParams, build_timeline
from tssim.workload import generate_profiles, generate_sessions


def graph_of(triples, T):
    g = IntervalGraph(T=T)
    for pid, (l, c, r) in enumerate(triples):
        g.add(Interval(pid, l, c, r))
    return g


def test_interval_bounds_validated():
    with pytest.raises(ValueError):
        Interval(0, 5, 3, 8)
    with pytest.raises(ValueError):
        Interval(0, -1, 0, 2)
    with pytest.raises(ValueError):
        Interval(0, 0, 4, 3)


def test_objective_values():
    assert objective([Interval(0, 0, 4, 10)]) == 10
    assert objective([Interval(0, 3, 3, 3), Interval(1, 7, 7, 7)]) == 0
    assert objective([Interval(0, 0, 2, 5), Interval(1, 3, 5, 9)]) == 11


def test_coverage_single_interval_full_span():
    g = graph_of([(0, 3, 8)], T=8)
    assert check_k_coverage(g, OverlayConstraints(k=1, T=8)) == []


def test_coverage_single_interval_k2_deficit_everywhere():
    g = graph_of([(0, 2, 4)], T=4)
    gaps = check_k_coverage(g, OverlayConstraints(k=2, T=4))
    assert gaps == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]


def test_coverage_three_intervals_k2_passes():
    g = graph_of([(0, 3, 6), (4, 7, 10), (0, 5, 10)], T=10)
    assert check_k_coverage(g, OverlayConstraints(k=2, T=10)) == []


def test_capacity_single_peer_vacuous():
    g = graph_of([(0, 2, 9)], T=9)
    assert check_capacity(g, OverlayConstraints(k=1, T=9, default_cap=0)) == []


def test_capacity_two_downstream_overloads():
    g = graph_of([(0, 2, 6), (3, 8, 9), (4, 7, 9)], T=9)
    cons = OverlayConstraints(k=1, T=9, default_cap=5, caps={0: 1})
    assert check_capacity(g, cons) == [(0, 2)]


def test_capacity_chain_of_four_passes():
    g = graph_of([(0, 2, 4), (3, 5, 7), (6, 8, 10), (9, 11, 13)], T=13)
    cons = OverlayConstraints(k=1, T=13, default_cap=1)
    assert check_capacity(g, cons) == []


def test_fast_checkers_match_naive_on_random_sets():
    rng = random.Random("fastcheck")
    for _ in range(400):
        T = rng.randrange(0, 20)
        n = rng.randrange(0, 7)
        ivs = []
        for pid in range(n):
            c = rng.randrange(0, T + 1)
            ivs.append(Interval(pid, rng.randrange(0, c + 1), c, rng.randrange(c, T + 3)))
        k = rng.randrange(1, 4)
        cons = OverlayConstraints(k=k, T=T, default_cap=rng.choice([0, 1, 2, math.inf]))
        assert check_k_coverage(ivs, cons) == coverage_gaps_fast(as_graph(ivs, T), k, T)
        assert check_capacity(ivs, cons) == capacity_overloads_fast(ivs, cons)


def test_fast_checkers_read_a_deeper_graph_up_to_the_lag_asked_for():
    g = graph_of([(0, 2, 4), (3, 5, 9)], T=12)
    cons = OverlayConstraints(k=1, T=6, default_cap=0)
    ivs = g.intervals()
    assert coverage_gaps_fast(g, 1, 6) == check_k_coverage(ivs, cons) == []
    assert capacity_overloads_fast(g, cons) == check_capacity(ivs, cons) == [(0, 1)]


def test_fast_checkers_reject_two_intervals_of_one_peer():
    ivs = [Interval(0, 0, 1, 2), Interval(1, 2, 3, 4), Interval(0, 3, 4, 5)]
    with pytest.raises(ValueError, match="more than one interval"):
        as_graph(ivs, 5)
    with pytest.raises(ValueError, match="more than one interval"):
        capacity_overloads_fast(ivs, OverlayConstraints(k=1, T=5))


def test_fast_checkers_reject_a_graph_shallower_than_asked():
    g = graph_of([(0, 1, 3)], T=3)
    with pytest.raises(ValueError, match="indexes lags up to 3"):
        coverage_gaps_fast(g, 1, 4)
    with pytest.raises(ValueError, match="indexes lags up to 3"):
        capacity_overloads_fast(g, OverlayConstraints(k=1, T=4))


def test_oracle_forced_single_peer():
    assert brute_force_oracle([(0, 3)], OverlayConstraints(k=1, T=3)) == 3


def test_oracle_three_peer_instance():
    cons = OverlayConstraints(k=1, T=5, default_cap=1)
    assert brute_force_oracle([(0, 1), (1, 2), (2, 4)], cons) == 3


def test_oracle_clustered_instance_regression():
    cons = OverlayConstraints(k=2, T=15, default_cap=math.inf)
    positions = list(enumerate([1, 9, 12, 12, 12, 13]))
    assert brute_force_oracle(positions, cons) == 27


def _oracle_instances(count):
    rng = random.Random("oracle-seed")
    for _ in range(count):
        T = rng.randrange(0, 16)
        pos = sorted(
            ((pid, rng.randrange(0, T + 1)) for pid in range(rng.randrange(1, 7))),
            key=lambda p: (p[1], p[0]),
        )
        cap = rng.choice([1, 2, 3, math.inf])
        yield pos, OverlayConstraints(k=rng.randrange(1, 4), T=T, default_cap=cap)


def _padded(result):
    if isinstance(result, Infeasible):
        return result
    return [replace(iv, r=iv.r + 2) for iv in result]


# stand-ins for the sweep; this module's own name still binds the real one
SEEDS = {
    "infeasible": lambda pos, cons: Infeasible(0),
    "padded": lambda pos, cons: _padded(sweep_assign_bounds(pos, cons)),
    "gapped": lambda pos, cons: [Interval(p, c, c, c) for p, c in pos],
}


@pytest.mark.parametrize("seed", sorted(SEEDS))
def test_oracle_does_not_depend_on_its_seed(monkeypatch, seed):
    instances = list(_oracle_instances(50))
    expected = [brute_force_oracle(pos, cons) for pos, cons in instances]
    monkeypatch.setattr(tssim.interval, "sweep_assign_bounds", SEEDS[seed])
    clustered = OverlayConstraints(k=2, T=15, default_cap=math.inf)
    assert brute_force_oracle(list(enumerate([1, 9, 12, 12, 12, 13])), clustered) == 27
    assert [brute_force_oracle(pos, cons) for pos, cons in instances] == expected


def test_oracle_detects_infeasibility():
    cons = OverlayConstraints(k=1, T=5, default_cap=0)
    assert isinstance(brute_force_oracle([(0, 5), (1, 5)], cons), Infeasible)
    assert isinstance(
        brute_force_oracle([(0, 1), (1, 2)], OverlayConstraints(k=3, T=4)),
        Infeasible,
    )


def test_oracle_refuses_big_instances():
    cons = OverlayConstraints(k=1, T=5)
    with pytest.raises(ValueError):
        brute_force_oracle([(i, 1) for i in range(9)], cons)
    with pytest.raises(ValueError):
        brute_force_oracle([(0, 1)], OverlayConstraints(k=1, T=21))
    with pytest.raises(ValueError):
        brute_force_oracle([(0, 9)], OverlayConstraints(k=1, T=5))


def test_sweep_single_peer_covers_whole_horizon():
    result = sweep_assign_bounds([(0, 6)], OverlayConstraints(k=1, T=6))
    assert result == [Interval(0, 0, 6, 6)]
    assert objective(result) == 6


def test_sweep_fewer_peers_than_k():
    result = sweep_assign_bounds(
        [(0, 1), (1, 2)], OverlayConstraints(k=3, T=4)
    )
    assert result == Infeasible(blocking_lag=0)


def test_sweep_matches_oracle_on_pinned_instance():
    cons = OverlayConstraints(k=1, T=5, default_cap=1)
    result = sweep_assign_bounds([(0, 1), (1, 2), (2, 4)], cons)
    assert not isinstance(result, Infeasible)
    assert check_k_coverage(result, cons) == []
    assert check_capacity(result, cons) == []
    assert objective(result) == 3  # equals the exhaustive optimum here


def test_sweep_requires_sorted_positions():
    with pytest.raises(ValueError):
        sweep_assign_bounds([(0, 5), (1, 2)], OverlayConstraints(k=1, T=5))


def test_sweep_output_always_passes_checkers():
    rng = random.Random("sweep-sound")
    feasible = 0
    for _ in range(300):
        T = rng.randrange(1, 16)
        n = rng.randrange(1, 7)
        k = rng.randrange(1, 4)
        pos = sorted(
            ((pid, rng.randrange(0, T + 1)) for pid in range(n)),
            key=lambda p: (p[1], p[0]),
        )
        cons = OverlayConstraints(k=k, T=T, default_cap=rng.choice([1, 2, 3, math.inf]))
        result = sweep_assign_bounds(pos, cons)
        if isinstance(result, Infeasible):
            continue
        feasible += 1
        assert check_k_coverage(result, cons) == [], (pos, cons)
        assert check_capacity(result, cons) == [], (pos, cons)
    assert feasible > 100


def test_sweep_never_beats_oracle():
    rng = random.Random("sweep-gap")
    compared = 0
    for _ in range(60):
        T = rng.randrange(1, 11)
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 3)
        pos = sorted(
            ((pid, rng.randrange(0, T + 1)) for pid in range(n)),
            key=lambda p: (p[1], p[0]),
        )
        cons = OverlayConstraints(k=k, T=T, default_cap=rng.choice([1, 2, math.inf]))
        swept = sweep_assign_bounds(pos, cons)
        opt = brute_force_oracle(pos, cons)
        if isinstance(swept, Infeasible) or isinstance(opt, Infeasible):
            continue
        compared += 1
        assert objective(swept) >= opt
    assert compared > 20


def rescan_sweep(positions, constraints):
    """The greedy sweep by literal rescans, on plain bound dictionaries.

    The rule sweep_assign_bounds must reproduce: every served count and
    coverage recomputed over all peers, each candidate written in and
    rolled back. Expects positions sorted by (lag, peer id).
    """
    k, T = constraints.k, constraints.T
    if len(positions) < k:
        return Infeasible(blocking_lag=0)

    lag = {pid: c for pid, c in positions}
    left = {pid: c for pid, c in positions}
    right = {pid: c for pid, c in positions}
    for pid, _ in positions[:k]:
        left[pid] = 0

    def served_count(x, new_left, new_right):
        return sum(
            1
            for y in lag
            if y != x and new_left[y] <= new_right[x] and lag[y] >= lag[x]
        )

    for pid in lag:
        if served_count(pid, left, right) > constraints.cap_of(pid):
            return Infeasible(blocking_lag=0)

    def coverage(t):
        return sum(1 for pid in lag if left[pid] <= t <= right[pid])

    for t in range(T + 1):
        while coverage(t) < k:
            options = []
            for pid, c in positions:
                if left[pid] <= t <= right[pid]:
                    continue
                if c <= t and right[pid] < t:
                    options.append((t - right[pid], 0, pid, "r"))
                elif c >= t and left[pid] > t:
                    options.append((left[pid] - t, 1, pid, "l"))
            options.sort()
            applied = False
            for _cost, _pref, pid, side in options:
                if side == "r":
                    old = right[pid]
                    right[pid] = t
                    if served_count(pid, left, right) <= constraints.cap_of(pid):
                        applied = True
                        break
                    right[pid] = old
                else:
                    old = left[pid]
                    left[pid] = t
                    ok = True
                    for w in lag:
                        if w != pid and left[pid] <= right[w] and lag[pid] >= lag[w]:
                            if served_count(w, left, right) > constraints.cap_of(w):
                                ok = False
                                break
                    if ok:
                        applied = True
                        break
                    left[pid] = old
            if not applied:
                return Infeasible(blocking_lag=t)
    return [Interval(pid, left[pid], c, right[pid]) for pid, c in positions]


def test_sweep_matches_rescan():
    rng = random.Random("sweep-rescan")
    feasible = blocked_later = 0
    instances = 2000
    for _ in range(instances):
        T = rng.randrange(0, 16)
        n = rng.randrange(1, 9)
        k = rng.randrange(1, 4)
        pos = sorted(
            # positions past T are legal: the sweep must not index them
            ((pid, rng.randrange(0, T + 4)) for pid in range(n)),
            key=lambda p: (p[1], p[0]),
        )
        cap_choices = [0, 1, 2, 3, 4, 5, math.inf]
        cons = OverlayConstraints(
            k=k, T=T, default_cap=rng.choice(cap_choices),
            caps={pid: rng.choice(cap_choices)
                  for pid in range(n) if rng.random() < 0.4})
        expected = rescan_sweep(pos, cons)
        assert sweep_assign_bounds(pos, cons) == expected, (pos, cons)
        if not isinstance(expected, Infeasible):
            feasible += 1
        elif expected.blocking_lag > 0:
            blocked_later += 1
    assert feasible * 3 >= instances
    assert blocked_later >= 5  # a block past lag 0 is rare; compare some


def test_repair_redundant_leave_changes_nothing():
    cons = OverlayConstraints(k=1, T=10, default_cap=math.inf)
    g = graph_of([(0, 2, 10), (0, 5, 10), (0, 8, 10)], T=10)
    outcome = repair_on_event(g, cons, OverlayEvent("leave", peer_id=1))
    assert outcome.changed == {}
    assert outcome.incidents == []
    assert check_k_coverage(g, cons) == []


def test_repair_extends_neighbor_after_critical_leave():
    cons = OverlayConstraints(k=1, T=10, default_cap=math.inf)
    g = graph_of([(0, 2, 4), (5, 6, 7), (8, 9, 10)], T=10)
    outcome = repair_on_event(g, cons, OverlayEvent("leave", peer_id=1))
    assert check_k_coverage(g, cons) == []
    assert outcome.incidents == []
    assert outcome.changed, "someone had to grow to re-cover lags 5..7"


def test_repair_records_incident_when_stuck():
    cons = OverlayConstraints(k=1, T=10, default_cap=0, caps={})
    g = graph_of([(0, 2, 4), (5, 6, 7), (8, 9, 10)], T=10)
    # cap 0 everywhere: no extension is admissible once it would put a
    # to-play range onto someone's already-played range; lag 5..7
    # deficits may go unfixed but must then be reported.
    outcome = repair_on_event(g, cons, OverlayEvent("leave", peer_id=1))
    gaps = check_k_coverage(g, cons)
    if gaps:
        assert outcome.incidents
    else:
        assert outcome.incidents == []


def test_repair_join_and_move():
    cons = OverlayConstraints(k=1, T=10, default_cap=math.inf)
    g = graph_of([(0, 4, 10)], T=10)
    repair_on_event(g, cons, OverlayEvent("join", peer_id=7, lag=3))
    assert g.vertices[7] == Interval(7, 3, 3, 3)
    outcome = repair_on_event(g, cons, OverlayEvent("move", peer_id=0, lag=9))
    assert g.vertices[0].c == 9
    assert check_k_coverage(g, cons) == [] or outcome.incidents


def test_rebalance_shrinks_overgrown_intervals():
    cons = OverlayConstraints(k=1, T=10, default_cap=math.inf)
    g = graph_of([(0, 2, 10), (0, 6, 10), (0, 9, 10)], T=10)
    before = objective(g)
    outcome = rebalance(g, cons)
    assert objective(g) < before
    assert check_k_coverage(g, cons) == []
    assert check_capacity(g, cons) == []
    assert outcome.changed


def test_churn_trace_end_state_passes_checkers():
    rng = random.Random("churn-trace")
    cons = OverlayConstraints(k=2, T=30, default_cap=4)
    g = IntervalGraph(T=30)
    alive: list[int] = []
    next_pid = 0
    incidents = 0
    for pid in range(12):
        repair_on_event(g, cons, OverlayEvent("join", peer_id=pid, lag=rng.randrange(0, 31)))
        alive.append(pid)
        next_pid = pid + 1
    rebalance(g, cons)
    for step in range(200):
        roll = rng.random()
        if roll < 0.3 or len(alive) < 8:
            repair_on_event(g, cons, OverlayEvent("join", peer_id=next_pid,
                                                  lag=rng.randrange(0, 31)))
            alive.append(next_pid)
            next_pid += 1
        elif roll < 0.65:
            pid = alive.pop(rng.randrange(len(alive)))
            out = repair_on_event(g, cons, OverlayEvent("leave", peer_id=pid))
            incidents += len(out.incidents)
        else:
            pid = alive[rng.randrange(len(alive))]
            out = repair_on_event(g, cons, OverlayEvent("move", peer_id=pid,
                                                        lag=rng.randrange(0, 31)))
            incidents += len(out.incidents)
        if step % 25 == 24:
            rebalance(g, cons)
    rebalance(g, cons)
    assert len(alive) >= 8
    assert check_k_coverage(g, cons) == []
    assert check_capacity(g, cons) == []


def test_constraints_validation():
    # k and T come from the config, whose rules refuse them below 1
    assert validate_config(ScenarioConfig(k=0, horizon_T=0)) == [
        "k must be at least 1, got 0", "horizon_T must be at least 1, got 0"]


# -- per-lag indices ------------------------------------------------------------

def assert_indices_match_recount(g):
    ivs = list(g.vertices.values())
    assert g.coverage() == [sum(1 for iv in ivs if iv.l <= t <= iv.r)
                            for t in range(g.T + 1)]
    for t in range(g.T + 1):
        assert g.holders[t] == {iv.peer_id for iv in ivs if iv.l <= t <= iv.r}
    for x in ivs:
        assert g.served_count(x) == sum(
            1 for y in ivs
            if y.peer_id != x.peer_id and y.l <= x.r and y.c >= x.c)
    assert g.index_drift() == []


@pytest.mark.parametrize("seed", range(4))
def test_indices_match_recount_through_churn(seed):
    rng = random.Random(f"index-drift:{seed}")
    T = 40
    cons = OverlayConstraints(k=2, T=T, default_cap=rng.choice([1, 3, math.inf]))
    g = IntervalGraph(T=T)
    alive: list[int] = []
    next_pid = 0
    for _ in range(300):
        roll = rng.random()
        if roll < 0.3 or len(alive) < 3:
            repair_on_event(g, cons, OverlayEvent("join", peer_id=next_pid,
                                                  lag=rng.randrange(0, T + 1)))
            alive.append(next_pid)
            next_pid += 1
        elif roll < 0.5:
            pid = alive.pop(rng.randrange(len(alive)))
            repair_on_event(g, cons, OverlayEvent("leave", peer_id=pid))
        elif roll < 0.6:
            g.remove(alive.pop(rng.randrange(len(alive))))  # abrupt leave
        elif roll < 0.85:
            pid = alive[rng.randrange(len(alive))]
            repair_on_event(g, cons, OverlayEvent("move", peer_id=pid,
                                                  lag=rng.randrange(0, T + 1)))
        elif roll < 0.95:
            # bounds past T are legal and must not confuse the indices
            iv = g.vertices[alive[rng.randrange(len(alive))]]
            g.add(replace(iv, r=iv.r + rng.randrange(0, 12)))
        else:
            rebalance(g, cons)
        assert_indices_match_recount(g)


def test_indices_built_from_initial_vertices():
    ivs = {0: Interval(0, 0, 3, 5), 1: Interval(1, 2, 2, 9), 2: Interval(2, 7, 8, 12)}
    assert_indices_match_recount(IntervalGraph(T=9, vertices=ivs))


@pytest.mark.parametrize("attr,message", [
    ("by_c", "position list differs from the vertices"),
    ("by_l", "fresh-bound list differs from the vertices"),
])
def test_index_drift_flags_hand_edited_lists(attr, message):
    g = graph_of([(0, 2, 4), (1, 3, 6), (5, 5, 5)], T=8)
    pairs = getattr(g, attr)
    # same value under another id: every served count is still right
    pairs[0] = (pairs[0][0], 7)
    assert g.index_drift() == [message]


def rescan_affected_members(graph, span_lo, span_hi, extras=3):
    """The repair neighbourhood by a scan of every vertex."""
    ivs = graph.vertices.values()
    members = {iv.peer_id for iv in ivs if iv.l <= span_hi and span_lo <= iv.r}
    center = (span_lo + span_hi) // 2
    nearest = heapq.nsmallest(extras, (
        (abs(iv.c - center), iv.peer_id) for iv in ivs if iv.peer_id not in members
    ))
    members.update(pid for _, pid in nearest)
    return members


def test_affected_members_matches_rescan():
    rng = random.Random("affected-rescan")
    seen = dict.fromkeys(["empty", "past_T", "span_past_T", "few_outsiders",
                          "tie_in_c", "tie_across_centre"], 0)
    for _ in range(2500):
        T = rng.randrange(0, 16)
        top = T + 3
        span_lo = rng.randint(0, top)
        span_hi = rng.randint(span_lo, min(top, span_lo + rng.choice([0, 2, top])))
        center = (span_lo + span_hi) // 2
        # few distinct positions, so many peers share one, often at the
        # same distance on both sides of the centre
        spots = rng.sample(range(top + 1), rng.randint(1, min(4, top + 1)))
        d = rng.randint(1, top)
        if rng.random() < 0.5 and 0 <= center - d and center + d <= top:
            spots += [center - d, center + d]
        reach = rng.choice([1, top])

        def interval(pid):
            c = rng.choice(spots)
            return Interval(pid, rng.randint(max(0, c - reach), c), c,
                            rng.randint(c, min(top, c + reach)))

        g = IntervalGraph(T=T)
        for pid in rng.sample(range(60), rng.choice([0, 1, 2, 3, rng.randrange(4, 25)])):
            g.add(interval(pid))
        for pid in list(g.vertices):  # churn the indices a little
            if rng.random() < 0.2:
                g.remove(pid)
            elif rng.random() < 0.2:
                g.add(interval(pid))
        got = tssim.interval._affected_members(g, span_lo, span_hi)
        assert got == rescan_affected_members(g, span_lo, span_hi)

        ivs = list(g.vertices.values())
        outside = [iv for iv in ivs if not (iv.l <= span_hi and span_lo <= iv.r)]
        dists = [(abs(iv.c - center), iv.c) for iv in outside]
        seen["empty"] += not ivs
        seen["past_T"] += any(iv.r > T for iv in ivs) and any(iv.c > T for iv in ivs)
        seen["span_past_T"] += span_lo > T and bool(ivs)
        seen["few_outsiders"] += 0 < len(outside) < 3
        seen["tie_in_c"] += len(dists) > len(set(dists))
        seen["tie_across_centre"] += any(
            (d, center - d) in dists and (d, center + d) in dists for d, _ in dists if d)
    assert all(count >= 20 for count in seen.values()), sorted(seen.items())


def rescan_repair(vertices, cons, event):
    """Leave/move repair by literal rescans, on a plain dict of intervals.

    The rule repair_on_event must reproduce: every coverage and capacity
    count recomputed over all intervals, each candidate written in and
    rolled back. Returns (changed, incidents).
    """
    def served(x, ivs):
        return sum(1 for y in ivs
                   if y.peer_id != x.peer_id and y.l <= x.r and y.c >= x.c)

    def extend(lo, hi, members):
        changed, incidents = {}, []
        for t in range(max(0, lo), min(cons.T, hi) + 1):
            while True:
                cover = sum(1 for iv in vertices.values() if iv.l <= t <= iv.r)
                if cover >= cons.k:
                    break
                options = []
                for pid in sorted(members):
                    iv = vertices.get(pid)
                    if iv is None or iv.l <= t <= iv.r:
                        continue
                    if iv.c <= t and iv.r < t:
                        options.append((t - iv.r, 0, pid, "r"))
                    elif iv.c >= t and iv.l > t:
                        options.append((iv.l - t, 1, pid, "l"))
                for _cost, _pref, pid, side in sorted(options):
                    iv = vertices[pid]
                    cand = replace(iv, r=t) if side == "r" else replace(iv, l=t)
                    vertices[pid] = cand
                    ivs = list(vertices.values())
                    ok = served(cand, ivs) <= cons.cap_of(pid)
                    if ok and side == "l":
                        ok = not any(
                            w.peer_id != pid and cand.l <= w.r and cand.c >= w.c
                            and served(w, ivs) > cons.cap_of(w.peer_id)
                            for w in ivs)
                    if ok:
                        changed[pid] = cand
                        break
                    vertices[pid] = iv
                else:
                    incidents.append((t, cover))
                    break
        return changed, incidents

    def affected(lo, hi):
        members = {pid for pid, iv in vertices.items()
                   if max(iv.l, lo) <= min(iv.r, hi)}
        center = (lo + hi) // 2
        outside = sorted((abs(iv.c - center), pid)
                         for pid, iv in vertices.items() if pid not in members)
        return members | {pid for _, pid in outside[:3]}

    if event.kind == "leave":
        gone = vertices.pop(event.peer_id)
        return extend(gone.l, gone.r, affected(gone.l, gone.r))
    old = vertices[event.peer_id]
    vertices[event.peer_id] = Interval(event.peer_id, event.lag, event.lag, event.lag)
    lo, hi = min(old.l, event.lag), max(old.r, event.lag)
    return extend(lo, hi, affected(lo, hi) | {event.peer_id})


@pytest.mark.parametrize("seed", range(6))
def test_indexed_repair_matches_rescan(seed):
    rng = random.Random(f"repair-rescan:{seed}")
    T = 30
    cons = OverlayConstraints(k=rng.choice([1, 2, 3]), T=T)
    g = IntervalGraph(T=T)
    alive: list[int] = []
    next_pid = 0
    for step in range(250):
        roll = rng.random()
        if roll < 0.35 or len(alive) < 4:
            cons.caps[next_pid] = rng.choice([0, 1, 2, 3, math.inf])
            repair_on_event(g, cons, OverlayEvent("join", peer_id=next_pid,
                                                  lag=rng.randrange(0, T + 1)))
            alive.append(next_pid)
            next_pid += 1
            continue
        if roll < 0.65:
            event = OverlayEvent("leave", peer_id=alive.pop(rng.randrange(len(alive))))
        else:
            event = OverlayEvent("move", peer_id=alive[rng.randrange(len(alive))],
                                 lag=rng.randrange(0, T + 1))
        expected_vertices = dict(g.vertices)
        expected = rescan_repair(expected_vertices, cons, event)
        outcome = repair_on_event(g, cons, event)
        assert (outcome.changed, outcome.incidents) == expected
        assert g.vertices == expected_vertices
        if step % 40 == 39:
            rebalance(g, cons)


class FullScanComparingDriver(IntervalDriver):
    """Checks each provider choice against a scan of every interval."""

    def __init__(self, config):
        super().__init__(config)
        self.compared = 0

    def find_provider(self, peer_id, chunk_id, now):
        got = super().find_provider(peer_id, chunk_id, now)
        lag = self.engine.head_chunk - chunk_id
        if 0 <= lag <= self.constraints.T:
            live = [
                iv.peer_id for iv in self.graph.intervals()
                if iv.peer_id != peer_id and iv.l <= lag <= iv.r
                and (iv.peer_id == DEDICATED
                     or self.engine.peers[iv.peer_id].state is not PeerState.DEPARTED)
            ]
            loads = self.engine._active_uploads
            expected = (
                (min(live, key=lambda pid: (loads.get(pid, 0), pid)), 1)
                if live else (PRODUCER, 1)
            )
            assert got == expected
            self.compared += 1
        return got


@pytest.mark.parametrize("dedicated", [False, True])
def test_find_provider_matches_full_scan(dedicated):
    horizon = 1800.0
    stream = StreamParams()
    config = ScenarioConfig(horizon_T=120, rebalance_period_s=300.0,
                            dedicated_server=dedicated)
    sessions = generate_sessions(config, build_timeline(stream, horizon),
                                 horizon, seed=11)
    driver = FullScanComparingDriver(config)
    engine = Engine(ScenarioConfig(horizon_s=horizon), driver,
                    check_invariants=True)  # audits check the indices
    engine.run(sessions, generate_profiles(sessions, config))
    assert driver.compared > 100


# -- repair does only the work whose result can matter ------------------------

def reference_extend_to_cover(graph, constraints, window_lo, window_hi, members):
    """_extend_to_cover before it dropped past-cap members: every option
    goes through _admissible at every try."""
    outcome = RepairOutcome()
    k = constraints.k
    vertices = graph.vertices
    holders = graph.holders
    window_lo = max(0, window_lo)
    window_hi = min(constraints.T, window_hi)
    for t in range(window_lo, window_hi + 1):
        cover = len(holders[t])
        if cover >= k:
            continue
        options = []
        for pid in members:
            iv = vertices.get(pid)
            if iv is None or iv.l <= t <= iv.r:
                continue
            if iv.c <= t and iv.r < t:
                options.append((t - iv.r, 0, pid, "r"))
            elif iv.c >= t and iv.l > t:
                options.append((iv.l - t, 1, pid, "l"))
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


def reference_repair_on_event(graph, constraints, event):
    """Leave and move repair before the short-lag check: the
    neighbourhood is gathered and swept after every event."""
    if event.kind == "leave":
        departed = graph.vertices.get(event.peer_id)
        if departed is None:
            return RepairOutcome()
        graph.remove(event.peer_id)
        members = _affected_members(graph, departed.l, departed.r)
        return reference_extend_to_cover(graph, constraints, departed.l,
                                         departed.r, members)
    old = graph.vertices.get(event.peer_id)
    graph.add(Interval(event.peer_id, event.lag, event.lag, event.lag))
    if old is None:
        return RepairOutcome()
    span_lo = min(old.l, event.lag)
    span_hi = max(old.r, event.lag)
    members = _affected_members(graph, span_lo, span_hi)
    members.add(event.peer_id)
    return reference_extend_to_cover(graph, constraints, span_lo, span_hi, members)


def assert_same_graph(got, expected):
    assert got.vertices == expected.vertices
    assert got.holders == expected.holders
    assert got.by_c == expected.by_c
    assert got.by_l == expected.by_l


@pytest.mark.parametrize("seed", range(8))
def test_repair_matches_reference_event_by_event(monkeypatch, seed):
    rng = random.Random(f"repair-reference:{seed}")
    T = rng.choice([12, 30])
    # a graph indexing lags past T holds short lags no repair may look at
    depth = T + rng.choice([0, 0, 6])
    # the dedicated server covers every lag once, so k = 1 would be moot
    cons = OverlayConstraints(k=rng.choice([2, 3] if seed % 2 else [1, 2, 3]), T=T)
    g, ref = IntervalGraph(T=depth), IntervalGraph(T=depth)
    if seed % 2:
        cons.caps[DEDICATED] = math.inf
        for graph in (g, ref):
            graph.add(Interval(DEDICATED, 0, 0, T))

    gathered = []
    gather = tssim.interval._affected_members

    def spy(graph, span_lo, span_hi, extras=3):
        gathered.append((span_lo, span_hi))
        return gather(graph, span_lo, span_hi, extras)

    monkeypatch.setattr(tssim.interval, "_affected_members", spy)
    alive: list[int] = []
    next_pid = 0
    seen = dict.fromkeys(["skipped", "repaired", "changed", "incident"], 0)
    for step in range(400):
        roll = rng.random()
        if roll < 0.3 or len(alive) < 4:
            cons.caps[next_pid] = rng.choice([0, 1, 2, 3])
            event = OverlayEvent("join", peer_id=next_pid,
                                 lag=rng.randrange(0, depth + 4))
            alive.append(next_pid)
            next_pid += 1
            assert repair_on_event(g, cons, event) == repair_on_event(ref, cons, event)
            assert_same_graph(g, ref)
            continue
        if roll < 0.35:
            # bounds past T, as an earlier repair or a hand edit leaves them
            pid = alive[rng.randrange(len(alive))]
            wider = replace(g.vertices[pid], r=g.vertices[pid].r + rng.randrange(1, 12))
            g.add(wider)
            ref.add(wider)
            continue
        # the repair reads its window after the event and before any fix
        after = IntervalGraph(T=depth, vertices=dict(g.vertices))
        if roll < 0.65:
            event = OverlayEvent("leave", peer_id=alive.pop(rng.randrange(len(alive))))
            old = after.remove(event.peer_id)
            window = (old.l, old.r)
        else:
            event = OverlayEvent("move", peer_id=alive[rng.randrange(len(alive))],
                                 lag=rng.randrange(0, depth + 4))
            old = after.vertices[event.peer_id]
            after.add(Interval(event.peer_id, event.lag, event.lag, event.lag))
            window = (min(old.l, event.lag), max(old.r, event.lag))
        cover = after.coverage()
        short = any(cover[t] < cons.k
                    for t in range(window[0], min(window[1], T) + 1))
        expected = reference_repair_on_event(ref, cons, event)
        gathered.clear()
        outcome = repair_on_event(g, cons, event)
        assert (outcome.changed, outcome.incidents) == (
            expected.changed, expected.incidents)
        assert_same_graph(g, ref)
        assert bool(gathered) == short
        seen["skipped" if not short else "repaired"] += 1
        seen["changed"] += bool(expected.changed)
        seen["incident"] += bool(expected.incidents)
        if step % 50 == 49:
            assert rebalance(g, cons) == rebalance(ref, cons)
            assert_same_graph(g, ref)
    assert seen["skipped"] >= 10 and seen["changed"] >= 10 and seen["incident"] >= 1, (
        sorted(seen.items()))


def test_short_free_move_and_leave_never_gather_a_neighbourhood(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("_affected_members called without a short lag")

    monkeypatch.setattr(tssim.interval, "_affected_members", refuse)
    # lags 0..6 are covered twice; the graph also indexes lags 7..10,
    # which nobody covers and which lie past T, so no repair may see them
    cons = OverlayConstraints(k=2, T=6)
    g = IntervalGraph(T=10)
    for pid, (l, c, r) in enumerate([(0, 0, 6), (0, 3, 6), (2, 4, 10)]):
        g.add(Interval(pid, l, c, r))
    outcome = repair_on_event(g, cons, OverlayEvent("move", peer_id=2, lag=9))
    assert (outcome.changed, outcome.incidents) == ({}, [])
    assert g.vertices[2] == Interval(2, 9, 9, 9)
    outcome = repair_on_event(g, cons, OverlayEvent("leave", peer_id=2))
    assert (outcome.changed, outcome.incidents) == ({}, [])
    assert 2 not in g.vertices
    with pytest.raises(AssertionError, match="without a short lag"):
        repair_on_event(g, cons, OverlayEvent("move", peer_id=1, lag=5))
