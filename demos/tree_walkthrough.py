"""
A sector tree from empty to emergency: attach a dozen peers, diffuse
some chunks, route a few requests, then kill every holder of one chunk
and watch the replication round put it back.
"""
import random

from tssim.tree import SectorTree


def main():
    rng = random.Random("walkthrough:0")
    tree = SectorTree(fanout=3, summary_mode="bloom")
    tree.attach(0, upload_capacity=3, storage_capacity=50, as_root=True)
    for pid in range(1, 12):
        tree.attach(pid, upload_capacity=rng.randrange(1, 4),
                    storage_capacity=50)
    print(f"members: {len(tree.nodes)}, depth {tree.depth()}, "
          f"root(s) {tree.roots()}")

    for chunk in range(6):
        result = tree.diffuse_chunk(chunk, k_rep=3)
        print(f"chunk {chunk} pinned on {result.pinned} "
              f"(deficit {result.deficit})")

    print()
    for chunk in (2, 5, 99):
        outcome = tree.route_request(entry=11, chunk_id=chunk)
        if outcome.served_by is None:
            print(f"chunk {chunk:2d}: nobody holds it ({outcome.hops} hops spent)")
        else:
            print(f"chunk {chunk:2d}: served by peer {outcome.served_by} "
                  f"after {outcome.hops} hops")

    print()
    victims = tree.holders(2)
    print(f"killing all holders of chunk 2: {victims}")
    for pid in victims:
        tree.unpin_all(pid)
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
