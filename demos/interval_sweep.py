"""
The lag-interval assignment on a desk-scale instance: run the greedy
sweep, draw the result as ASCII spans, compare its total buffer length
with the exhaustive optimum, then repair around a departure.
"""
from ground_truth import brute_force_oracle, check_capacity, check_k_coverage, objective
from tssim.interval import (
    Infeasible,
    IntervalGraph,
    OverlayConstraints,
    OverlayEvent,
    repair_on_event,
    sweep_assign_bounds,
)


def draw(intervals, T):
    for iv in sorted(intervals, key=lambda i: i.peer_id):
        row = []
        for lag in range(T + 1):
            if lag == iv.c:
                row.append("C")
            elif iv.l <= lag <= iv.r:
                row.append("=")
            else:
                row.append(".")
        print(f"  peer {iv.peer_id}: {''.join(row)}  [{iv.l},{iv.r}]")


def main():
    T = 15
    constraints = OverlayConstraints(k=2, T=T, default_cap=3)
    positions = sorted([(0, 1), (1, 3), (2, 3), (3, 8), (4, 12), (5, 14)],
                       key=lambda p: (p[1], p[0]))
    print(f"six viewers at lags {[c for _, c in positions]}, "
          f"k={constraints.k}, cap={constraints.default_cap}")

    swept = sweep_assign_bounds(positions, constraints)
    if isinstance(swept, Infeasible):
        print(f"sweep gave up at lag {swept.blocking_lag}")
        return
    print(f"sweep done, total buffer length {objective(swept)}:")
    draw(swept, T)
    print(f"coverage gaps : {check_k_coverage(swept, constraints)}")
    print(f"overloads     : {check_capacity(swept, constraints)}")

    optimum = brute_force_oracle(positions, constraints)
    print(f"exhaustive optimum: {optimum} "
          f"(sweep is {objective(swept) - optimum} over)")

    print()
    graph = IntervalGraph(T=T)
    for iv in swept:
        graph.add(iv)
    print("peer 3 leaves politely; local repair patches the hole:")
    outcome = repair_on_event(graph, constraints,
                              OverlayEvent(kind="leave", peer_id=3))
    print(f"  intervals changed: {sorted(outcome.changed)}")
    print(f"  incidents: {outcome.incidents or 'none'}")
    draw(graph.intervals(), T)
    print(f"coverage gaps after repair: "
          f"{check_k_coverage(graph, constraints)}")


if __name__ == "__main__":
    main()
