import math
import random

import pytest

from tssim.interval import (
    Infeasible,
    Interval,
    IntervalGraph,
    OverlayConstraints,
    OverlayEvent,
    brute_force_oracle,
    capacity_overloads_fast,
    check_capacity,
    check_k_coverage,
    coverage_gaps_fast,
    objective,
    rebalance,
    repair_on_event,
    sweep_assign_bounds,
)


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
        assert check_k_coverage(ivs, cons) == coverage_gaps_fast(ivs, k, T)
        assert check_capacity(ivs, cons) == capacity_overloads_fast(ivs, cons)


def test_oracle_forced_single_peer():
    assert brute_force_oracle([(0, 3)], OverlayConstraints(k=1, T=3)) == 3


def test_oracle_three_peer_instance():
    cons = OverlayConstraints(k=1, T=5, default_cap=1)
    assert brute_force_oracle([(0, 1), (1, 2), (2, 4)], cons) == 3


def test_oracle_clustered_instance_regression():
    cons = OverlayConstraints(k=2, T=15, default_cap=math.inf)
    positions = list(enumerate([1, 9, 12, 12, 12, 13]))
    assert brute_force_oracle(positions, cons) == 27


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
    with pytest.raises(ValueError):
        OverlayConstraints(k=0, T=5)
    with pytest.raises(ValueError):
        OverlayConstraints(k=1, T=-1)
    with pytest.raises(ValueError):
        OverlayConstraints(k=1, T=5, default_cap=-2)
