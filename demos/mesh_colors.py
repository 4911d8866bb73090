"""
Gossip a 60-peer mesh to convergence and look at the coloring: how the
peers split across colors, how many still miss a color in their view,
and where a colored chunk ends up.
"""
import random
from collections import Counter

from ground_truth import is_connected
from tssim.mesh import ColorScheme, SectorMesh


def main():
    scheme = ColorScheme(colors=3, sector_count=12)
    mesh = SectorMesh(scheme, random.Random("mesh-demo:0"), k_rep=3)
    for pid in range(60):
        mesh.add_peer(pid, now=0.0)

    t = 0.0
    for round_no in range(150):
        t += mesh.gossip_period
        for pid in sorted(mesh.peers):
            mesh.gossip_round(pid, t)
        if round_no in (0, 9, 49, 149):
            violations, scanned = mesh.domination_report()
            print(f"after round {round_no + 1:3d}: "
                  f"{violations}/{scanned} peers missing a color")

    counts = Counter(p.color for p in mesh.peers.values())
    print(f"color histogram: {dict(sorted(counts.items()))}")
    print(f"connected: {is_connected(mesh)}, "
          f"recolor events: {mesh.recolor_events}")

    print()
    chunk = 24  # sector 0 slot, second rotation
    print(f"chunk {chunk} wants color {scheme.chunk_color(chunk)}")
    gaps = mesh.coloring_gaps
    pinned = mesh.colored_diffuse(rep_id=0, chunk_id=chunk)
    print(f"pinned on {pinned} "
          f"(colors {[mesh.peers[h].color for h in pinned]}, "
          f"gap={mesh.coloring_gaps > gaps})")
    route = mesh.route_request(entry=59, chunk_id=chunk)
    if route.served_by is None:
        print(f"routing from peer 59 failed after {route.hops} hops")
    else:
        print(f"routing from peer 59 found it at {route.served_by} "
              f"in {route.hops} hops")
    problems = mesh.check_invariants(t)
    print(f"invariant check: {'clean' if not problems else problems}")


if __name__ == "__main__":
    main()
