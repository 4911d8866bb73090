"""Per-sector gossip mesh with colored diffusion and routing.

Instead of a tree, each sector's members keep bounded partial views of
one another, refreshed by periodic view shuffles. Peers and chunks both
carry a color; a chunk is stored only on peers of its color, and a
request for it is forwarded along peers of that color. When every color
class dominates the mesh (each peer sees every color in its view), any
peer is one hop from somebody responsible for any chunk. Building such
a partition exactly is hard, so peers just adopt the color their
neighborhood lacks most and the shortfall is measured rather than
prevented.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from tssim.config import ScenarioConfig
from tssim.turntable import Holders, RouteOutcome


@dataclass(frozen=True)
class ColorScheme:
    """Maps chunk ids to colors, rotating within each sector's slots."""

    colors: int
    sector_count: int

    def chunk_color(self, chunk_id: int) -> int:
        if chunk_id < 0:
            raise ValueError(f"chunk id must be non-negative, got {chunk_id}")
        return (chunk_id // self.sector_count) % self.colors


NeighborEntry = tuple[float, int, int]
"""One sighting of a peer: `(last_seen, peer_id, color)`.

Immutable, so views and samples share it. As a tuple it orders by
(last_seen, peer_id), the eviction order; a peer appears once per view,
so color is never compared. It is a plain tuple, not a named record:
sorting a view then keeps the list sort's exact-tuple and float compares,
and building and indexing an entry stay in C. Readers unpack it or index
it as [0] last_seen, [1] peer_id, [2] color.
"""


@dataclass
class MeshPeer:
    peer_id: int
    color: int
    neighbors: dict[int, NeighborEntry] = field(default_factory=dict)
    store: set[int] = field(default_factory=set)
    known_offers: dict[int, frozenset[int]] = field(default_factory=dict)
    storage_capacity: int = ScenarioConfig.storage_chunks
    missing_color_streak: int = 0
    # the stored chunks of color `offers_color`, as last offered to the
    # partners; a pin resets it to None
    offers: frozenset[int] | None = None
    offers_color: int = 0


@dataclass(slots=True)
class GossipReport:
    partner: int | None  # None when the view was empty
    adopted: tuple[tuple[int, int], ...]  # (adopter, chunk) pairs


class SectorMesh:
    """One sector's gossip overlay. All mutation goes through the engine.

    Every chunk stored on a member goes through `pin`, which writes it to
    `holders`, the run's one index of who pins each chunk; the driver
    owns it and passes it in, and a mesh built alone makes its own.
    """

    def __init__(
        self,
        scheme: ColorScheme,
        rng: random.Random,
        gossip_period: float = ScenarioConfig.gossip_period,
        max_degree: int = ScenarioConfig.max_degree,
        k_rep: int = ScenarioConfig.k_rep,
        request_ttl: int = ScenarioConfig.request_ttl,
        holders: Holders | None = None,
    ):
        self.scheme = scheme
        self.rng = rng
        self.gossip_period = gossip_period
        self.max_degree = max_degree
        self.k_rep = k_rep
        self.request_ttl = request_ttl
        self.peers: dict[int, MeshPeer] = {}  # in join order
        self.holders = Holders() if holders is None else holders
        self.departed_at: dict[int, float] = {}
        self.stale_evictions = 0
        self.coloring_gaps = 0
        self.gap_pins: set[tuple[int, int]] = set()  # (chunk_id, peer_id)
        self.legacy_pins: set[tuple[int, int]] = set()  # pinned before a re-color
        self.recolor_events = 0
        self.route_detours = 0

    # -- membership ----------------------------------------------------------

    def representant(self, excluding: int | None = None) -> int | None:
        """Longest-lived member, the fallback contact for lost peers."""
        return next((pid for pid in self.peers if pid != excluding), None)

    def add_peer(self, peer_id: int, now: float,
                 storage_capacity: int = ScenarioConfig.storage_chunks) -> MeshPeer:
        if peer_id in self.peers:
            raise ValueError(f"peer {peer_id} already in mesh")
        peer = MeshPeer(peer_id=peer_id, color=0,
                        storage_capacity=storage_capacity)
        others = sorted(self.peers)
        if others:
            rep = self.representant()
            seeds = {rep}
            spare = [pid for pid in others if pid != rep]
            extra = min(len(spare), self.max_degree - 1)
            if extra:
                seeds.update(self.rng.sample(spare, extra))
            for pid in sorted(seeds):
                peer.neighbors[pid] = (now, pid, self.peers[pid].color)
        self.peers[peer_id] = peer
        peer.color = self.assign_color(peer_id)
        return peer

    def remove_peer(self, peer_id: int, now: float) -> None:
        self.holders.drop(peer_id, self.peers.pop(peer_id).store)
        # entries pointing here elsewhere decay through the staleness bound
        self.departed_at[peer_id] = now

    # -- coloring --------------------------------------------------------------

    def assign_color(self, peer_id: int) -> int:
        """Least-represented color in the peer's view, ties to the lowest."""
        peer = self.peers[peer_id]
        counts = [0] * self.scheme.colors
        for _, _, color in peer.neighbors.values():
            counts[color % self.scheme.colors] += 1
        return min(range(self.scheme.colors), key=lambda c: (counts[c], c))

    def domination_report(self) -> tuple[int, int]:
        """(peers missing some color among live neighbors, peers scanned)."""
        violations = 0
        for peer in self.peers.values():
            present = {
                self.peers[pid].color
                for pid in peer.neighbors
                if pid in self.peers
            }
            if len(present) < self.scheme.colors:
                violations += 1
        return violations, len(self.peers)

    # -- gossip ------------------------------------------------------------------

    def _sample_view(self, peer: MeshPeer, view: list[int],
                     me: NeighborEntry) -> list[NeighborEntry]:
        """Up to half the view's entries plus `me`, the peer's own entry.

        `view` is the peer's ids sorted; the draw reorders it. The ids
        drawn, and the draws taken, are those of `rng.sample(view, k)`:
        this is the pool branch of CPython's `Random.sample`, with
        `_randbelow(m)` written out as `getrandbits(m.bit_length())`
        redrawn until below m. `sample` takes that branch while len(view)
        is at most its set size: 21 for k <= 5, 21 + 4**ceil(log4(3k)) >=
        21 + 3k above. Here k = max(1, max_degree // 2), or the whole view
        when it is smaller, and a view holds at most max_degree + 2 ids: a
        merge trims it to max_degree, then a round writes the partner's
        entry or a bootstrap the representant's. So len(view) <= 2k + 3,
        which is at most 13 while k <= 5 and below 21 + 3k beyond: every
        sample takes that branch.
        """
        neighbors = peer.neighbors
        getrandbits = self.rng.getrandbits
        n = len(view)
        sample = []
        for m in range(n, n - min(n, max(1, self.max_degree // 2)), -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            sample.append(neighbors[view[j]])
            view[j] = view[m - 1]
        sample.append(me)
        return sample

    def _merge_view(self, peer: MeshPeer, sample: list[NeighborEntry]) -> None:
        neighbors = peer.neighbors
        peers = self.peers
        own = peer.peer_id
        for entry in sample:
            pid = entry[1]
            if pid == own or pid not in peers:
                continue  # probing a forwarded entry fails if it departed
            old = neighbors.get(pid)
            if old is None or entry[0] >= old[0]:
                neighbors[pid] = entry
        excess = len(neighbors) - self.max_degree
        if excess <= 0:
            return
        # evict the oldest entries, but keep the last entry of any color:
        # views that retain one peer per color keep the partition goal
        # (each color dominating) within reach of pure local repair
        tally = [0] * self.scheme.colors
        for e in neighbors.values():
            tally[e[2]] += 1
        oldest_first = sorted(neighbors.values())
        for _, pid, color in oldest_first:
            if tally[color] > 1:
                tally[color] -= 1
                del neighbors[pid]
                excess -= 1
                if not excess:
                    return
        # only last-of-their-color entries remain: the oldest of them go
        for pid in [pid for _, pid, _ in oldest_first if pid in neighbors][:excess]:
            del neighbors[pid]

    def _purge_departed(self, peer: MeshPeer, now: float) -> tuple[list[int], list[int]]:
        """Drop departed entries past the staleness bound.

        Returns the ids left in the view and those of live members, both
        sorted.
        """
        peers = self.peers
        neighbors = peer.neighbors
        view = sorted(neighbors)
        if neighbors.keys() <= peers.keys():
            return view, view  # nobody in the view has departed
        horizon = now - 2 * self.gossip_period
        kept, alive = [], []
        for pid in view:
            if pid in peers:
                alive.append(pid)
            elif neighbors[pid][0] < horizon:
                del neighbors[pid]
                peer.known_offers.pop(pid, None)
                self.stale_evictions += 1
                continue
            kept.append(pid)
        return kept, alive

    def _own_color_offers(self, peer: MeshPeer) -> frozenset[int]:
        """The peer's stored chunks of its own color, rebuilt only after a
        pin or a change of color. Every receiver keeps this one set."""
        own = peer.color
        if peer.offers is None or peer.offers_color != own:
            # ColorScheme.chunk_color inlined: it runs on every stored chunk
            m, colors = self.scheme.sector_count, self.scheme.colors
            peer.offers = frozenset(c for c in peer.store if c // m % colors == own)
            peer.offers_color = own
        return peer.offers

    def _receive_offers(self, peer: MeshPeer, sender: MeshPeer, offers: frozenset[int],
                        adopted: list[tuple[int, int]]) -> None:
        """Pin offered chunks still short of k_rep, listing (peer, chunk) in
        `adopted`. `offers` is kept as the sender's offer set."""
        peer.known_offers[sender.peer_id] = offers
        if sender.color != peer.color:
            return  # every offer wears the sender's color
        store = peer.store
        room = peer.storage_capacity - len(store)
        for chunk in sorted(offers - store):
            if room <= 0:
                break
            if self.holders.count(chunk) < self.k_rep:
                self.pin(peer.peer_id, chunk)
                adopted.append((peer.peer_id, chunk))
                room -= 1

    def gossip_round(self, peer_id: int, now: float) -> GossipReport:
        """One view shuffle: swap samples with a partner, then swap offers."""
        peers = self.peers
        peer = peers[peer_id]
        view, alive = self._purge_departed(peer, now)
        self._check_recolor(peer)

        if not alive:
            rep = self.representant(excluding=peer_id)
            if rep is not None:
                peer.neighbors[rep] = (now, rep, peers[rep].color)
                return GossipReport(rep, ())
            return GossipReport(None, ())

        partner_id = self.rng.choice(alive)
        partner = peers[partner_id]
        me = (now, peer_id, peer.color)
        you = (now, partner_id, partner.color)
        sent = self._sample_view(peer, view, me)
        back = self._sample_view(partner, sorted(partner.neighbors), you)
        self._merge_view(partner, sent)
        self._merge_view(peer, back)
        peer.neighbors[partner_id] = you
        partner.neighbors[peer_id] = me

        adopted: list[tuple[int, int]] = []
        self._receive_offers(partner, peer, self._own_color_offers(peer), adopted)
        self._receive_offers(peer, partner, self._own_color_offers(partner), adopted)
        return GossipReport(partner_id, tuple(adopted))

    def _check_recolor(self, peer: MeshPeer) -> None:
        present = {e[2] for e in peer.neighbors.values()}
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

    # -- chunk placement -----------------------------------------------------------

    def pin(self, peer_id: int, chunk_id: int) -> None:
        """Store the chunk on a member; pinning a held chunk changes nothing."""
        peer = self.peers[peer_id]
        store = peer.store
        if chunk_id not in store:
            store.add(chunk_id)
            peer.offers = None
            self.holders.add(chunk_id, peer_id)

    def replica_count(self, chunk_id: int) -> int:
        """`holders.count`. It stays only because perfbench/spans.py
        patches it by name, and goes when the benchmark next changes."""
        return self.holders.count(chunk_id)

    def colored_diffuse(self, rep_id: int, chunk_id: int) -> list[int]:
        """Flood the chunk through its color class, stopping at k_rep pins,
        and return the pinned peers. A representant with no peer of the
        chunk's color in view pins it alone and counts a coloring gap."""
        col = self.scheme.chunk_color(chunk_id)
        rep = self.peers[rep_id]
        pinned: list[int] = []

        def try_pin(p: MeshPeer) -> None:
            if chunk_id not in p.store and len(p.store) < p.storage_capacity:
                self.pin(p.peer_id, chunk_id)
                pinned.append(p.peer_id)

        queue: list[int] = []
        seen: set[int] = set()
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

    # -- routing ---------------------------------------------------------------------

    def route_request(self, entry: int, chunk_id: int) -> RouteOutcome:
        """Color-directed greedy walk from `entry` with one random detour per
        blocked hop; it misses once `request_ttl` hops are spent."""
        col = self.scheme.chunk_color(chunk_id)
        peers = self.peers
        cursor = peers[entry]
        ttl = self.request_ttl
        hops = 0
        visited = {entry}
        while True:
            if chunk_id in cursor.store:
                return RouteOutcome(served_by=cursor.peer_id, hops=hops)
            if ttl <= 0:
                return RouteOutcome(served_by=None, hops=hops)
            neighbors = cursor.neighbors
            lane = [pid for pid, entry in neighbors.items()
                    if entry[2] == col and pid not in visited and pid in peers]
            if lane:
                offers = cursor.known_offers
                nxt = min([p for p in lane if chunk_id in offers.get(p, ())] or lane)
            else:
                # sorted so the random pick depends on the seed alone
                detour = sorted(pid for pid in neighbors
                                if pid not in visited and pid in peers)
                if not detour:
                    return RouteOutcome(served_by=None, hops=hops)
                nxt = self.rng.choice(detour)
                self.route_detours += 1
            visited.add(nxt)
            cursor = peers[nxt]
            ttl -= 1
            hops += 1

    # -- health --------------------------------------------------------------------------

    def check_invariants(self, now: float) -> list[str]:
        problems = []
        period = self.gossip_period
        for pid, peer in sorted(self.peers.items()):
            if len(peer.neighbors) > self.max_degree:
                problems.append(f"peer {pid} view exceeds max_degree")
            if not 0 <= peer.color < self.scheme.colors:
                problems.append(f"peer {pid} has color {peer.color} out of range")
            for nid, (last_seen, _, _) in sorted(peer.neighbors.items()):
                if nid in self.peers:
                    continue
                # purgeable once departed and older than the staleness
                # bound; the holder's next gossip tick, at most one
                # period later, is where the purge happens
                purgeable = max(self.departed_at[nid], last_seen + 2 * period)
                if now - purgeable > period:
                    problems.append(f"peer {pid} holds departed {nid} beyond staleness bound")
        for pid, peer in sorted(self.peers.items()):
            for chunk in sorted(peer.store):
                if (chunk, pid) in self.gap_pins or (chunk, pid) in self.legacy_pins:
                    continue
                if self.scheme.chunk_color(chunk) != peer.color:
                    problems.append(f"peer {pid} stores off-color chunk {chunk}")
        return problems
