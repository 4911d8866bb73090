import random

import pytest

from tssim.mesh import ColorScheme, NeighborEntry, SectorMesh


def build_mesh(n, colors=3, seed="mesh-test:0", m=4, **kw):
    mesh = SectorMesh(ColorScheme(colors, m), random.Random(seed), **kw)
    for pid in range(n):
        mesh.add_peer(pid, now=0.0)
    return mesh


def run_rounds(mesh, rounds, start=0.0):
    t = start
    for _ in range(rounds):
        t += mesh.gossip_period
        for pid in sorted(mesh.peers):
            mesh.gossip_round(pid, t)
    return t


# -- colors --------------------------------------------------------------------

def test_chunk_color_rotates_within_sector():
    scheme = ColorScheme(colors=3, sector_count=4)
    assert [scheme.chunk_color(c) for c in (0, 4, 8, 12)] == [0, 1, 2, 0]
    assert [scheme.chunk_color(c) for c in (1, 5, 9, 13)] == [0, 1, 2, 0]


def test_chunk_colors_partition_evenly():
    scheme = ColorScheme(colors=3, sector_count=5)
    for sector in range(5):
        slots = [sector + i * 5 for i in range(12)]
        counts = [0, 0, 0]
        for c in slots:
            counts[scheme.chunk_color(c)] += 1
        assert max(counts) - min(counts) <= 1


def test_color_scheme_validation():
    with pytest.raises(ValueError):
        ColorScheme(colors=0, sector_count=4)
    with pytest.raises(ValueError):
        ColorScheme(colors=3, sector_count=0)
    with pytest.raises(ValueError):
        ColorScheme(colors=3, sector_count=4).chunk_color(-1)


def test_single_color_is_trivially_dominating():
    mesh = build_mesh(8, colors=1)
    assert all(p.color == 0 for p in mesh.peers.values())
    run_rounds(mesh, 3)
    violations, scanned = mesh.domination_report()
    assert violations == 0
    assert scanned == 8


def test_join_adopts_least_represented_color():
    mesh = build_mesh(1, colors=2)
    assert mesh.peers[0].color == 0
    mesh.add_peer(1, now=0.0)  # its whole view is the color-0 peer
    assert mesh.peers[1].color == 1


def test_assign_color_breaks_ties_low():
    mesh = build_mesh(1, colors=3)
    peer = mesh.peers[0]
    peer.neighbors = {
        10: NeighborEntry(color=0, last_seen=0.0),
        11: NeighborEntry(color=1, last_seen=0.0),
    }
    assert mesh.assign_color(0) == 2
    peer.neighbors[12] = NeighborEntry(color=2, last_seen=0.0)
    assert mesh.assign_color(0) == 0  # full tie goes to the lowest color


# -- gossip ---------------------------------------------------------------------

def test_disjoint_views_grow_on_shuffle():
    mesh = build_mesh(6, colors=2, max_degree=4)
    a, b = mesh.peers[0], mesh.peers[1]
    a.neighbors = {1: NeighborEntry(b.color, 0.0)}
    b.neighbors = {3: NeighborEntry(mesh.peers[3].color, 0.0),
                   4: NeighborEntry(mesh.peers[4].color, 0.0)}
    report = mesh.gossip_round(0, now=10.0)
    assert report.partner == 1
    assert len(a.neighbors) > 1
    assert 0 in b.neighbors
    assert len(a.neighbors) <= 4 and len(b.neighbors) <= 4


def test_isolated_peer_bootstraps_via_representant():
    mesh = build_mesh(4)
    mesh.peers[3].neighbors.clear()
    report = mesh.gossip_round(3, now=10.0)
    assert report.bootstrapped
    assert report.partner == 0  # longest-lived member
    assert 0 in mesh.peers[3].neighbors
    assert mesh.bootstrap_messages == 1


def test_sole_peer_gossip_is_a_noop():
    mesh = build_mesh(1)
    report = mesh.gossip_round(0, now=10.0)
    assert report.partner is None
    assert not report.bootstrapped


def test_gossip_keeps_mesh_connected():
    mesh = build_mesh(50, colors=3, seed="connectivity:1")
    t = 0.0
    for block in range(10):
        t = run_rounds(mesh, 10, start=t)
        assert mesh.is_connected(), f"disconnected after {(block + 1) * 10} rounds"
    assert mesh.check_invariants(t) == []


def test_view_bound_holds_under_gossip():
    mesh = build_mesh(30, max_degree=5, seed="bound:2")
    run_rounds(mesh, 20)
    assert all(len(p.neighbors) <= 5 for p in mesh.peers.values())


def test_departed_entries_age_out():
    mesh = build_mesh(6, seed="stale:3")
    run_rounds(mesh, 2)
    mesh.remove_peer(5, now=2 * mesh.gossip_period)
    holders_before = [p for p in mesh.peers.values() if 5 in p.neighbors]
    assert holders_before  # somebody knew the departed peer
    t = run_rounds(mesh, 4, start=2 * mesh.gossip_period)
    assert all(5 not in p.neighbors for p in mesh.peers.values())
    assert mesh.stale_evictions >= len(holders_before)
    assert mesh.check_invariants(t) == []


def test_entry_of_a_peer_that_left_after_the_holders_tick_is_not_flagged():
    mesh = build_mesh(6, seed="stale:3")
    t = run_rounds(mesh, 10)  # every peer has just gossiped
    holder = next(p for p in mesh.peers.values() if 5 in p.neighbors)
    holder.neighbors[5].last_seen = 0.0  # known only from an old sample
    mesh.remove_peer(5, now=t + 0.5)
    # the holder can purge the entry only at its next tick, t + period
    assert mesh.check_invariants(t + mesh.gossip_period - 0.1) == []
    assert any("holds departed 5" in msg
               for msg in mesh.check_invariants(t + 0.5 + mesh.gossip_period + 0.1))


def test_entry_held_past_three_periods_after_departure_is_flagged():
    mesh = build_mesh(6, seed="stale:3")
    t = run_rounds(mesh, 2)
    holders = [p for p in mesh.peers.values() if 5 in p.neighbors]
    assert holders
    for holder in holders:
        holder.neighbors[5].last_seen = t  # heard from right before it left
    mesh.remove_peer(5, now=t)
    period = mesh.gossip_period
    assert mesh.check_invariants(t + 3 * period - 0.1) == []
    assert any("holds departed 5" in msg
               for msg in mesh.check_invariants(t + 3 * period + 0.1))


def _evict_one_at_a_time(neighbors, max_degree):
    """Reference eviction: repeat "oldest entry whose color has a spare"."""
    while len(neighbors) > max_degree:
        tally = {}
        for e in neighbors.values():
            tally[e.color] = tally.get(e.color, 0) + 1
        spare = [kv for kv in neighbors.items() if tally[kv[1].color] > 1]
        pool = spare or list(neighbors.items())
        del neighbors[min(pool, key=lambda kv: (kv[1].last_seen, kv[0]))[0]]


def test_merge_view_evicts_like_one_at_a_time_rule():
    rng = random.Random("evict")
    for trial in range(200):
        mesh = build_mesh(20, colors=3, seed=f"evict:{trial}",
                         max_degree=rng.randint(1, 6))
        peer = mesh.peers[0]
        peer.neighbors = {
            pid: NeighborEntry(rng.randrange(3), float(rng.randrange(5)))
            for pid in rng.sample(range(1, 20), rng.randint(0, 8))
        }
        sample = [(pid, rng.randrange(3), float(rng.randrange(5)))
                  for pid in rng.sample(range(1, 20), rng.randint(0, 6))]
        expected = {pid: NeighborEntry(e.color, e.last_seen)
                    for pid, e in peer.neighbors.items()}
        for pid, color, seen in sample:
            if pid not in expected or seen >= expected[pid].last_seen:
                expected[pid] = NeighborEntry(color, seen)
        _evict_one_at_a_time(expected, mesh.max_degree)
        mesh._merge_view(peer, sample)
        assert peer.neighbors == expected


def test_domination_violations_converge_below_threshold():
    mesh = build_mesh(60, colors=3, seed="domination:4")
    run_rounds(mesh, 150)
    violations, scanned = mesh.domination_report()
    assert scanned == 60
    assert violations / scanned <= 0.05


# -- colored diffusion -------------------------------------------------------------

def test_diffuse_floods_when_everyone_matches():
    mesh = build_mesh(8, colors=1, k_rep=3, seed="flood:5")
    run_rounds(mesh, 2)
    result = mesh.colored_diffuse(0, chunk_id=0)
    assert not result.gap
    assert len(result.pinned) == 3
    assert mesh.replica_count(0) == 3


def test_diffuse_restricts_to_chunk_color():
    mesh = build_mesh(24, colors=3, k_rep=3, seed="restrict:6", m=4)
    run_rounds(mesh, 10)
    rep = mesh.representant()
    for chunk in range(0, 48, 4):  # all sector-0 slots, colors rotating
        mesh.colored_diffuse(rep, chunk)
    col_of = mesh.scheme.chunk_color
    for pid, peer in mesh.peers.items():
        for chunk in peer.store:
            if (chunk, pid) in mesh.gap_pins:
                continue
            assert col_of(chunk) == peer.color
    assert mesh.check_invariants(10 * 11.0) == []


def test_diffuse_gap_pins_on_representant():
    mesh = SectorMesh(ColorScheme(2, 1), random.Random("gap:7"))
    mesh.add_peer(0, now=0.0)
    mesh.add_peer(1, now=0.0)
    for p in mesh.peers.values():
        p.color = 0
        for nid in p.neighbors:
            p.neighbors[nid].color = 0
    chunk = 1  # color 1, which nobody wears
    result = mesh.colored_diffuse(0, chunk)
    assert result.gap
    assert result.pinned == [0]
    assert mesh.coloring_gaps == 1
    assert (chunk, 0) in mesh.gap_pins
    assert mesh.check_invariants(0.0) == []


def test_gossip_repairs_replica_deficit():
    mesh = build_mesh(8, colors=1, k_rep=3, seed="repair:8")
    run_rounds(mesh, 2)
    mesh.peers[2].store.add(4)  # one replica short of k_rep by two
    rounds_budget = 3 + 8  # pin target plus a generous diameter
    for i in range(rounds_budget):
        run_rounds(mesh, 1, start=(2 + i) * mesh.gossip_period)
        if mesh.replica_count(4) >= 3:
            break
    assert mesh.replica_count(4) == 3
    run_rounds(mesh, 3, start=(2 + rounds_budget) * mesh.gossip_period)
    assert mesh.replica_count(4) == 3  # adoption stops at k_rep


# -- routing -------------------------------------------------------------------------

def test_route_local_hit():
    mesh = build_mesh(4, colors=1)
    mesh.peers[2].store.add(9)
    out = mesh.route_request(2, 9, ttl=4)
    assert out.served_by == 2
    assert out.hops == 0


def test_route_adjacent_same_color_hit():
    mesh = SectorMesh(ColorScheme(2, 1), random.Random("adj:9"))
    mesh.add_peer(0, now=0.0)
    mesh.add_peer(1, now=0.0)
    holder = mesh.peers[1]
    holder.color = 0
    holder.store.add(2)  # chunk 2 has color 0 (2 div 1 mod 2)
    mesh.peers[0].color = 0
    mesh.peers[0].neighbors = {1: NeighborEntry(color=0, last_seen=0.0)}
    out = mesh.route_request(0, 2, ttl=4)
    assert out.served_by == 1
    assert out.hops == 1


def test_route_ttl_zero_is_immediate_miss():
    mesh = build_mesh(4, colors=1)
    out = mesh.route_request(0, 7, ttl=0)
    assert out.served_by is None
    assert out.missing
    assert out.hops == 0


def test_route_detours_when_color_lane_blocked():
    mesh = SectorMesh(ColorScheme(2, 1), random.Random("detour:10"))
    for pid in range(3):
        mesh.add_peer(pid, now=0.0)
    start, mid, holder = (mesh.peers[i] for i in range(3))
    chunk = 2  # color 0
    start.color, mid.color, holder.color = 0, 1, 0
    holder.store.add(chunk)
    start.neighbors = {1: NeighborEntry(color=1, last_seen=0.0)}
    mid.neighbors = {2: NeighborEntry(color=0, last_seen=0.0)}
    out = mesh.route_request(0, chunk, ttl=5)
    assert out.served_by == 2
    assert out.hops == 2
    assert mesh.route_detours == 1


def test_route_prefers_neighbors_that_offered_the_chunk():
    mesh = SectorMesh(ColorScheme(1, 1), random.Random("offers:11"))
    for pid in range(4):
        mesh.add_peer(pid, now=0.0)
    searcher = mesh.peers[0]
    searcher.neighbors = {
        1: NeighborEntry(color=0, last_seen=0.0),
        3: NeighborEntry(color=0, last_seen=0.0),
    }
    mesh.peers[3].store.add(5)
    searcher.known_offers[3] = {5}
    out = mesh.route_request(0, 5, ttl=3)
    assert out.served_by == 3
    assert out.hops == 1  # straight to the peer that offered it


def test_route_ttl_exhausts_on_long_chains():
    mesh = SectorMesh(ColorScheme(1, 1), random.Random("chain:12"))
    for pid in range(5):
        mesh.add_peer(pid, now=0.0)
        mesh.peers[pid].neighbors = {}
    for pid in range(4):
        mesh.peers[pid].neighbors = {pid + 1: NeighborEntry(0, 0.0)}
    mesh.peers[4].store.add(3)
    short = mesh.route_request(0, 3, ttl=2)
    assert short.served_by is None
    assert short.hops == 2
    full = mesh.route_request(0, 3, ttl=4)
    assert full.served_by == 4
    assert full.hops == 4


# -- validation -----------------------------------------------------------------------

def test_mesh_validation():
    scheme = ColorScheme(3, 4)
    rng = random.Random(0)
    with pytest.raises(ValueError):
        SectorMesh(scheme, rng, gossip_period=0)
    with pytest.raises(ValueError):
        SectorMesh(scheme, rng, max_degree=0)
    with pytest.raises(ValueError):
        SectorMesh(scheme, rng, k_rep=0)
    mesh = build_mesh(2)
    with pytest.raises(ValueError):
        mesh.add_peer(0, now=1.0)
