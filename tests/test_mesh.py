import random
from typing import NamedTuple

import pytest

from ground_truth import holders, is_connected
from tssim.mesh import (
    ColorScheme,
    GossipReport,
    MeshPeer,
    SectorMesh,
)
from tssim.turntable import RouteOutcome


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
        10: (0.0, 10, 0),
        11: (0.0, 11, 1),
    }
    assert mesh.assign_color(0) == 2
    peer.neighbors[12] = (0.0, 12, 2)
    assert mesh.assign_color(0) == 0  # full tie goes to the lowest color


# -- gossip ---------------------------------------------------------------------

def test_disjoint_views_grow_on_shuffle():
    mesh = build_mesh(6, colors=2, max_degree=4)
    a, b = mesh.peers[0], mesh.peers[1]
    a.neighbors = {1: (0.0, 1, b.color)}
    b.neighbors = {3: (0.0, 3, mesh.peers[3].color),
                   4: (0.0, 4, mesh.peers[4].color)}
    report = mesh.gossip_round(0, now=10.0)
    assert report.partner == 1
    assert len(a.neighbors) > 1
    assert 0 in b.neighbors
    assert len(a.neighbors) <= 4 and len(b.neighbors) <= 4


def test_isolated_peer_bootstraps_via_representant():
    mesh = build_mesh(4)
    mesh.peers[3].neighbors.clear()
    report = mesh.gossip_round(3, now=10.0)
    assert report.partner == 0  # longest-lived member
    assert 0 in mesh.peers[3].neighbors


def test_sole_peer_gossip_is_a_noop():
    mesh = build_mesh(1)
    report = mesh.gossip_round(0, now=10.0)
    assert report.partner is None


def test_gossip_keeps_mesh_connected():
    mesh = build_mesh(50, colors=3, seed="connectivity:1")
    t = 0.0
    for block in range(10):
        t = run_rounds(mesh, 10, start=t)
        assert is_connected(mesh), f"disconnected after {(block + 1) * 10} rounds"
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
    # known only from an old sample
    holder.neighbors[5] = (0.0, 5, holder.neighbors[5][2])
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
        # heard from right before it left
        holder.neighbors[5] = (t, 5, holder.neighbors[5][2])
    mesh.remove_peer(5, now=t)
    period = mesh.gossip_period
    assert mesh.check_invariants(t + 3 * period - 0.1) == []
    assert any("holds departed 5" in msg
               for msg in mesh.check_invariants(t + 3 * period + 0.1))


def _evict_one_at_a_time(neighbors, max_degree):
    """Reference eviction: repeat "oldest entry whose color has a spare"."""
    while len(neighbors) > max_degree:
        tally = {}
        for _, _, color in neighbors.values():
            tally[color] = tally.get(color, 0) + 1
        spare = [kv for kv in neighbors.items() if tally[kv[1][2]] > 1]
        pool = spare or list(neighbors.items())
        del neighbors[min(pool, key=lambda kv: (kv[1][0], kv[0]))[0]]


def test_merge_view_evicts_like_one_at_a_time_rule():
    rng = random.Random("evict")
    for trial in range(200):
        mesh = build_mesh(20, colors=3, seed=f"evict:{trial}",
                         max_degree=rng.randint(1, 6))
        peer = mesh.peers[0]
        peer.neighbors = {
            pid: (float(rng.randrange(5)), pid, rng.randrange(3))
            for pid in rng.sample(range(1, 20), rng.randint(0, 8))
        }
        sample = [(float(rng.randrange(5)), pid, rng.randrange(3))
                  for pid in rng.sample(range(1, 20), rng.randint(0, 6))]
        expected = dict(peer.neighbors)
        for entry in sample:
            seen, pid, _ = entry
            if pid not in expected or seen >= expected[pid][0]:
                expected[pid] = entry
        _evict_one_at_a_time(expected, mesh.max_degree)
        mesh._merge_view(peer, sample)
        assert peer.neighbors == expected


@pytest.mark.parametrize("seed", range(4))
def test_sample_view_draws_like_random_sample(seed):
    # every (view size, sample size) a view of max_degree + 2 ids can ask for
    for max_degree in range(1, 65):
        mesh = SectorMesh(ColorScheme(1, 1), random.Random(seed),
                          max_degree=max_degree)
        for n in range(0, max_degree + 3):
            ids = sorted(random.Random(f"ids:{seed}:{n}").sample(range(10**6), n))
            peer = MeshPeer(peer_id=-1, color=0, neighbors={
                pid: (float(pid), pid, 0) for pid in ids})
            me = (1.0, -1, 0)
            theirs = random.Random()
            theirs.setstate(mesh.rng.getstate())
            sample = mesh._sample_view(peer, list(ids), me)
            drawn = theirs.sample(ids, min(n, max(1, max_degree // 2)))
            assert sample == [peer.neighbors[pid] for pid in drawn] + [me]
            assert mesh.rng.getrandbits(64) == theirs.getrandbits(64)


def test_offers_a_receiver_keeps_are_a_snapshot():
    mesh = build_mesh(3, colors=2, m=1, k_rep=1)
    sender = mesh.peers[0]  # color 0 holds the even chunks

    def scan(peer):
        return {c for c in peer.store if c // 1 % 2 == peer.color}

    for chunk in (2, 3, 4):
        mesh.pin(0, chunk)  # 3 is off-color, as a gap pin is
    assert mesh.gossip_round(1, now=10.0).partner == 0  # 0 is all 1 sees
    receiver = mesh.peers[1]
    assert receiver.known_offers[0] == {2, 4}
    mesh.pin(0, 6)
    assert mesh._own_color_offers(sender) == scan(sender) == {2, 4, 6}
    sender.neighbors = {2: (10.0, 2, mesh.peers[2].color)}
    for _ in range(2):  # two rounds without color 1 in view recolor it
        mesh._check_recolor(sender)
    assert sender.color == 1 and mesh.recolor_events == 1
    assert mesh._own_color_offers(sender) == scan(sender) == {3}
    sender.color = 0  # a color written from outside the gossip path
    assert mesh._own_color_offers(sender) == scan(sender) == {2, 4, 6}
    assert receiver.known_offers[0] == {2, 4}


def test_view_entries_are_plain_tuples_keyed_by_peer():
    # a named record in a view slows every sort and read of it (about 12 %
    # of a mesh-rush run), so each path that writes an entry is walked here
    mesh = build_mesh(30, seed="plain:13")
    t = run_rounds(mesh, 100)
    mesh.remove_peer(29, now=t)
    assert any(29 in p.neighbors for p in mesh.peers.values())
    t = run_rounds(mesh, 100, start=t)
    assert mesh.stale_evictions and all(29 not in p.neighbors for p in mesh.peers.values())
    mesh.peers[3].neighbors.clear()
    assert mesh.gossip_round(3, t).partner == 0  # a bootstrap via the representant
    mesh.add_peer(30, now=t)
    for peer in mesh.peers.values():
        assert peer.neighbors
        for pid, entry in peer.neighbors.items():
            assert type(entry) is tuple and entry[1] == pid


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
    assert len(mesh.colored_diffuse(0, chunk_id=0)) == 3
    assert mesh.coloring_gaps == 0
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
        for nid, (seen, _, _) in p.neighbors.items():
            p.neighbors[nid] = (seen, nid, 0)
    chunk = 1  # color 1, which nobody wears
    assert mesh.colored_diffuse(0, chunk) == [0]
    assert mesh.coloring_gaps == 1
    assert (chunk, 0) in mesh.gap_pins
    assert mesh.check_invariants(0.0) == []


def test_gossip_repairs_replica_deficit():
    mesh = build_mesh(8, colors=1, k_rep=3, seed="repair:8")
    run_rounds(mesh, 2)
    mesh.pin(2, 4)  # one replica short of k_rep by two
    rounds_budget = 3 + 8  # pin target plus a generous diameter
    for i in range(rounds_budget):
        run_rounds(mesh, 1, start=(2 + i) * mesh.gossip_period)
        if mesh.replica_count(4) >= 3:
            break
    assert mesh.replica_count(4) == 3
    run_rounds(mesh, 3, start=(2 + rounds_budget) * mesh.gossip_period)
    assert mesh.replica_count(4) == 3  # adoption stops at k_rep
    assert len(holders(mesh.peers, 4)) == 3  # the count agrees with the stores


def test_holder_counts_follow_pins_and_departures():
    mesh = build_mesh(4, colors=1)
    mesh.pin(1, 7)
    mesh.pin(2, 7)
    mesh.pin(2, 7)  # pinning a held chunk changes nothing
    assert mesh.replica_count(7) == 2
    mesh.remove_peer(2, now=1.0)
    assert mesh.replica_count(7) == 1
    assert holders(mesh.peers, 7) == [1]
    assert mesh.holders == {7: {1}}
    assert mesh.check_invariants(1.0) == []


# -- routing -------------------------------------------------------------------------

def test_route_local_hit():
    mesh = build_mesh(4, colors=1, request_ttl=4)
    mesh.pin(2, 9)
    out = mesh.route_request(2, 9)
    assert out.served_by == 2
    assert out.hops == 0


def test_route_adjacent_same_color_hit():
    mesh = SectorMesh(ColorScheme(2, 1), random.Random("adj:9"), request_ttl=4)
    mesh.add_peer(0, now=0.0)
    mesh.add_peer(1, now=0.0)
    holder = mesh.peers[1]
    holder.color = 0
    mesh.pin(1, 2)  # chunk 2 has color 0 (2 div 1 mod 2)
    mesh.peers[0].color = 0
    mesh.peers[0].neighbors = {1: (0.0, 1, 0)}
    out = mesh.route_request(0, 2)
    assert out.served_by == 1
    assert out.hops == 1


def test_route_ttl_zero_is_immediate_miss():
    mesh = build_mesh(4, colors=1, request_ttl=0)
    out = mesh.route_request(0, 7)
    assert out.served_by is None
    assert out.hops == 0


def test_route_detours_when_color_lane_blocked():
    mesh = SectorMesh(ColorScheme(2, 1), random.Random("detour:10"), request_ttl=5)
    for pid in range(3):
        mesh.add_peer(pid, now=0.0)
    start, mid, holder = (mesh.peers[i] for i in range(3))
    chunk = 2  # color 0
    start.color, mid.color, holder.color = 0, 1, 0
    mesh.pin(2, chunk)
    start.neighbors = {1: (0.0, 1, 1)}
    mid.neighbors = {2: (0.0, 2, 0)}
    out = mesh.route_request(0, chunk)
    assert out.served_by == 2
    assert out.hops == 2
    assert mesh.route_detours == 1


def test_route_prefers_neighbors_that_offered_the_chunk():
    mesh = SectorMesh(ColorScheme(1, 1), random.Random("offers:11"), request_ttl=3)
    for pid in range(4):
        mesh.add_peer(pid, now=0.0)
    searcher = mesh.peers[0]
    searcher.neighbors = {
        1: (0.0, 1, 0),
        3: (0.0, 3, 0),
    }
    mesh.pin(3, 5)
    searcher.known_offers[3] = {5}
    out = mesh.route_request(0, 5)
    assert out.served_by == 3
    assert out.hops == 1  # straight to the peer that offered it


def test_route_ttl_exhausts_on_long_chains():
    mesh = SectorMesh(ColorScheme(1, 1), random.Random("chain:12"))
    for pid in range(5):
        mesh.add_peer(pid, now=0.0)
        mesh.peers[pid].neighbors = {}
    for pid in range(4):
        mesh.peers[pid].neighbors = {pid + 1: (0.0, pid + 1, 0)}
    mesh.pin(4, 3)
    mesh.request_ttl = 2
    short = mesh.route_request(0, 3)
    assert short.served_by is None
    assert short.hops == 2
    mesh.request_ttl = 4
    full = mesh.route_request(0, 3)
    assert full.served_by == 4
    assert full.hops == 4


# -- validation -----------------------------------------------------------------------

def test_mesh_validation():
    mesh = build_mesh(2)
    with pytest.raises(ValueError):
        mesh.add_peer(0, now=1.0)


# -- reference gossip path ------------------------------------------------------------

class NeighborEntry(NamedTuple):
    """The view entry as a named record, as the reference keeps it."""

    last_seen: float
    peer_id: int
    color: int


class ReferenceMesh(SectorMesh):
    """The gossip path as it was before its views and counts were indexed.

    Every view is read as a sorted item list, its entries are named
    records read by field, replica counts are recounted over every store
    on each call, and a pin is a bare store edit. Kept as the reference
    the indexed path must match call for call, down to the draws it takes
    from the mesh's random generator.
    """

    def add_peer(self, peer_id, now, storage_capacity):
        if peer_id in self.peers:
            raise ValueError(f"peer {peer_id} already in mesh")
        peer = MeshPeer(peer_id=peer_id, color=0, storage_capacity=storage_capacity)
        others = sorted(self.peers)
        if others:
            rep = self.representant()
            seeds = {rep}
            spare = [pid for pid in others if pid != rep]
            extra = min(len(spare), self.max_degree - 1)
            if extra:
                seeds.update(self.rng.sample(spare, extra))
            for pid in sorted(seeds):
                peer.neighbors[pid] = NeighborEntry(now, pid, self.peers[pid].color)
        self.peers[peer_id] = peer
        peer.color = self.assign_color(peer_id)
        return peer

    def assign_color(self, peer_id):
        peer = self.peers[peer_id]
        counts = [0] * self.scheme.colors
        for entry in peer.neighbors.values():
            counts[entry.color % self.scheme.colors] += 1
        return min(range(self.scheme.colors), key=lambda c: (counts[c], c))

    def _check_recolor(self, peer):
        present = {e.color for e in peer.neighbors.values()}
        if peer.neighbors and len(present) < self.scheme.colors:
            peer.missing_color_streak += 1
        else:
            peer.missing_color_streak = 0
        if peer.missing_color_streak >= 2:
            fresh = self.assign_color(peer.peer_id)
            peer.missing_color_streak = 0
            if fresh != peer.color:
                peer.color = fresh
                self.recolor_events += 1
                for chunk in peer.store:
                    if self.scheme.chunk_color(chunk) != fresh:
                        self.legacy_pins.add((chunk, peer.peer_id))

    def pin(self, peer_id, chunk_id):
        self.peers[peer_id].store.add(chunk_id)

    def remove_peer(self, peer_id, now):
        del self.peers[peer_id]
        self.departed_at[peer_id] = now

    def _sample_view(self, peer, now, entries):
        size = min(len(entries), max(1, self.max_degree // 2))
        picked = self.rng.sample(entries, size) if entries else []
        sample = [(pid, e.color, e.last_seen) for pid, e in picked]
        sample.append((peer.peer_id, peer.color, now))
        return sample

    def _merge_view(self, peer, sample):
        for pid, color, seen in sample:
            if pid == peer.peer_id:
                continue
            if pid not in self.peers:
                continue
            entry = peer.neighbors.get(pid)
            if entry is None:
                peer.neighbors[pid] = NeighborEntry(seen, pid, color)
            elif seen >= entry.last_seen:
                peer.neighbors[pid] = entry._replace(color=color, last_seen=seen)
        excess = len(peer.neighbors) - self.max_degree
        if excess <= 0:
            return
        tally = {}
        for e in peer.neighbors.values():
            tally[e.color] = tally.get(e.color, 0) + 1
        oldest_first = sorted([(e.last_seen, pid, e.color)
                               for pid, e in peer.neighbors.items()])
        for _, pid, color in oldest_first:
            if tally[color] > 1:
                tally[color] -= 1
                del peer.neighbors[pid]
                excess -= 1
                if not excess:
                    return
        for pid in [pid for _, pid, _ in oldest_first if pid in peer.neighbors][:excess]:
            del peer.neighbors[pid]

    def _purge_departed(self, peer, now):
        horizon = now - 2 * self.gossip_period
        entries = []
        for pid, e in sorted(peer.neighbors.items()):
            if pid not in self.peers and e.last_seen < horizon:
                del peer.neighbors[pid]
                peer.known_offers.pop(pid, None)
                self.stale_evictions += 1
            else:
                entries.append((pid, e))
        return entries

    def _own_color_offers(self, peer):
        return {c for c in peer.store if self.scheme.chunk_color(c) == peer.color}

    def _receive_offers(self, peer, sender, offers):
        peer.known_offers[sender.peer_id] = set(offers)
        adopted = []
        for chunk in sorted(offers):
            if self.scheme.chunk_color(chunk) != peer.color:
                continue
            if chunk in peer.store or len(peer.store) >= peer.storage_capacity:
                continue
            if self.replica_count(chunk) >= self.k_rep:
                continue
            peer.store.add(chunk)
            adopted.append(chunk)
        return adopted

    def gossip_round(self, peer_id, now):
        peer = self.peers[peer_id]
        entries = self._purge_departed(peer, now)
        self._check_recolor(peer)

        alive = [pid for pid, _ in entries if pid in self.peers]
        if not alive:
            rep = self.representant(excluding=peer_id)
            if rep is not None:
                peer.neighbors[rep] = NeighborEntry(now, rep, self.peers[rep].color)
                return GossipReport(rep, ())
            return GossipReport(None, ())

        partner_id = self.rng.choice(alive)
        partner = self.peers[partner_id]
        sent = self._sample_view(peer, now, entries)
        back = self._sample_view(partner, now, sorted(partner.neighbors.items()))
        self._merge_view(partner, sent)
        self._merge_view(peer, back)
        peer.neighbors[partner_id] = NeighborEntry(now, partner_id, partner.color)
        partner.neighbors[peer_id] = NeighborEntry(now, peer_id, peer.color)

        pairs = [(partner_id, c) for c in
                 self._receive_offers(partner, peer, self._own_color_offers(peer))]
        pairs += [(peer_id, c) for c in
                  self._receive_offers(peer, partner, self._own_color_offers(partner))]
        return GossipReport(partner_id, tuple(pairs))

    def replica_count(self, chunk_id):
        return sum(1 for p in self.peers.values() if chunk_id in p.store)

    def colored_diffuse(self, rep_id, chunk_id):
        col = self.scheme.chunk_color(chunk_id)
        rep = self.peers[rep_id]
        pinned = []

        def try_pin(p):
            if chunk_id not in p.store and len(p.store) < p.storage_capacity:
                p.store.add(chunk_id)
                pinned.append(p.peer_id)

        queue = []
        seen = set()
        if rep.color == col:
            queue.append(rep_id)
            seen.add(rep_id)
        else:
            starts = [
                pid for pid in sorted(rep.neighbors)
                if pid in self.peers and self.peers[pid].color == col
            ]
            if not starts:
                try_pin(rep)
                self.coloring_gaps += 1
                if pinned:
                    self.gap_pins.add((chunk_id, rep_id))
                return pinned
            queue.extend(starts)
            seen.update(starts)

        while queue and len(pinned) < self.k_rep:
            pid = queue.pop(0)
            node = self.peers[pid]
            try_pin(node)
            if len(pinned) >= self.k_rep:
                break
            for nxt in sorted(node.neighbors):
                if nxt in seen or nxt not in self.peers:
                    continue
                if self.peers[nxt].color != col:
                    continue
                seen.add(nxt)
                queue.append(nxt)
        return pinned

    def route_request(self, entry, chunk_id):
        col = self.scheme.chunk_color(chunk_id)
        cursor = self.peers[entry]
        ttl = self.request_ttl
        hops = 0
        visited = {entry}
        while True:
            if chunk_id in cursor.store:
                return RouteOutcome(served_by=cursor.peer_id, hops=hops)
            if ttl <= 0:
                return RouteOutcome(served_by=None, hops=hops)
            lane = [
                pid for pid, e in sorted(cursor.neighbors.items())
                if pid not in visited and pid in self.peers and e.color == col
            ]
            if lane:
                offered = [p for p in lane
                           if chunk_id in cursor.known_offers.get(p, ())]
                nxt = offered[0] if offered else lane[0]
            else:
                detour = [pid for pid in sorted(cursor.neighbors)
                          if pid not in visited and pid in self.peers]
                if not detour:
                    return RouteOutcome(served_by=None, hops=hops)
                nxt = self.rng.choice(detour)
                self.route_detours += 1
            visited.add(nxt)
            cursor = self.peers[nxt]
            ttl -= 1
            hops += 1


def _mesh_state(mesh, chunks):
    """Everything the gossip path reads or writes, in comparable form."""
    return {
        "join_order": list(mesh.peers),
        "views": {pid: [(n, e[2], e[0]) for n, e in p.neighbors.items()]
                  for pid, p in mesh.peers.items()},
        "colors": {pid: (p.color, p.missing_color_streak)
                   for pid, p in mesh.peers.items()},
        "stores": {pid: set(p.store) for pid, p in mesh.peers.items()},
        "known_offers": {pid: p.known_offers for pid, p in mesh.peers.items()},
        "counters": (mesh.stale_evictions, mesh.coloring_gaps, mesh.recolor_events,
                     mesh.route_detours),
        "pins": (mesh.gap_pins, mesh.legacy_pins),
        "departed_at": mesh.departed_at,
        "replicas": {c: mesh.replica_count(c) for c in chunks},
        "rng": mesh.rng.getstate(),
    }


@pytest.mark.parametrize("trial", range(24))
def test_gossip_path_matches_reference(trial):
    rng = random.Random(f"mesh-reference:{trial}")
    colors, m = rng.randint(1, 4), rng.randint(1, 3)
    kw = dict(gossip_period=rng.choice([1.0, 5.0, 10.0]),
              max_degree=rng.randint(1, 6), k_rep=rng.randint(1, 4))
    seed = f"mesh-reference-rng:{trial}"
    mesh = SectorMesh(ColorScheme(colors, m), random.Random(seed), **kw)
    ref = ReferenceMesh(ColorScheme(colors, m), random.Random(seed), **kw)
    both = (mesh, ref)
    period = mesh.gossip_period
    chunks = range(4 * colors * m)
    now, next_pid = 0.0, 0
    for step in range(160):
        alive = list(ref.peers)
        action = rng.random()
        if action < 0.14 or len(alive) < 2:
            capacity = rng.choice([1, 3, 10**9])
            for t in both:
                t.add_peer(next_pid, now, storage_capacity=capacity)
            next_pid += 1
        elif action < 0.22:
            pid = rng.choice(alive)
            for t in both:
                t.remove_peer(pid, now)
        elif action < 0.52:
            for pid in rng.sample(alive, rng.randint(1, len(alive))):
                assert mesh.gossip_round(pid, now) == ref.gossip_round(pid, now)
        elif action < 0.62:
            rep, chunk = rng.choice(alive), rng.choice(chunks)
            assert mesh.colored_diffuse(rep, chunk) == ref.colored_diffuse(rep, chunk)
        elif action < 0.69:
            # a store edit from outside the gossip path, any color
            pid, chunk = rng.choice(alive), rng.choice(chunks)
            for t in both:
                t.pin(pid, chunk)
        elif action < 0.79:
            entry, chunk, ttl = rng.choice(alive), rng.choice(chunks), rng.randint(0, 6)
            mesh.request_ttl = ref.request_ttl = ttl
            assert mesh.route_request(entry, chunk) == ref.route_request(entry, chunk)
        elif action < 0.86:
            pid, color = rng.choice(alive), rng.randrange(colors)
            for t in both:
                t.peers[pid].color = color
        else:
            # a stale entry: an old sighting of a live peer, or of a departed one
            pid = rng.choice(alive)
            view = sorted(ref.peers[pid].neighbors)
            gone = sorted(ref.departed_at)
            seen = now - rng.uniform(0, 4 * period)
            if gone and (rng.random() < 0.5 or not view):
                nid, color = rng.choice(gone), rng.randrange(colors)
                mesh.peers[pid].neighbors[nid] = (seen, nid, color)
                ref.peers[pid].neighbors[nid] = NeighborEntry(seen, nid, color)
            elif view:
                nid = rng.choice(view)
                mesh.peers[pid].neighbors[nid] = (seen, nid, mesh.peers[pid].neighbors[nid][2])
                neighbors = ref.peers[pid].neighbors
                neighbors[nid] = neighbors[nid]._replace(last_seen=seen)
        now += rng.uniform(0, period)
        assert _mesh_state(mesh, chunks) == _mesh_state(ref, chunks), f"step {step}"
        assert mesh.holders.drift((pid, p.store) for pid, p in mesh.peers.items()) == []
