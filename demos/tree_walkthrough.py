"""
A sector tree from empty to emergency: attach a dozen peers, diffuse
some chunks, route a few requests, then kill every holder of one chunk
and watch the replication round put it back.
"""
from ground_truth import holders, root_of, tree_depth
from tssim.tree import SectorTree


def main():
    tree = SectorTree(fanout=3, summary_mode="bloom")
    for pid in range(12):
        tree.attach(pid, storage_capacity=50)
    print(f"members: {len(tree.nodes)}, depth {tree_depth(tree)}, "
          f"root {root_of(tree)}")

    for chunk in range(6):
        pinned = tree.diffuse_chunk(chunk, k_rep=3)
        print(f"chunk {chunk} pinned on {pinned}")

    print()
    for chunk in (2, 5, 99):
        outcome = tree.route_request(entry=11, chunk_id=chunk)
        if outcome.served_by is None:
            print(f"chunk {chunk:2d}: nobody holds it ({outcome.hops} hops spent)")
        else:
            print(f"chunk {chunk:2d}: served by peer {outcome.served_by} "
                  f"after {outcome.hops} hops")

    print()
    victims = holders(tree.nodes, 2)
    print(f"killing all holders of chunk 2: {victims}")
    for pid in victims:
        tree.update_summary(pid, removed=sorted(tree.nodes[pid].store))
        tree.detach(pid)
    print(f"replicas of chunk 2 now: {tree.replica_count(2)}")
    outcome = tree.emergency_replicate([2], k_rep=3, producer_archive=True)
    source = outcome.fetched_from[2]
    print(f"emergency round: fetched from "
          f"{'the archive' if source == -1 else source}, "
          f"new pins {outcome.new_pins[2]}, "
          f"replicas back to {tree.replica_count(2)}")
    print(f"summary bytes shipped so far: {tree.summary_traffic_bytes}")
    problems = tree.check_invariants()
    print(f"invariant check: {'clean' if not problems else problems}")


if __name__ == "__main__":
    main()
