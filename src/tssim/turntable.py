"""Rotating sector structure shared by the tree and mesh overlay variants.

Chunks are dealt round-robin onto m sectors (chunk id mod m), so a
viewer consuming consecutive chunks walks the sectors in a circle, one
hop per chunk. Each sector elects a few long-lived members as
representants: the producer pushes every fresh chunk to the
representants of its sector, and requests from outside enter the sector
through them. How a chunk spreads or is found inside a sector is the
variant's business (a diffusion tree or a gossip mesh); this module
owns membership, representant election, publication fan-out, where a
request enters its sector, the shortcut links peers keep into the next
sector, and the one index of who pins each chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from tssim.config import ScenarioConfig

MAX_HANDOFF_LINKS = 2


def sector_of_chunk(chunk_id: int, m: int) -> int:
    if chunk_id < 0:
        raise ValueError(f"negative chunk id {chunk_id}")
    return chunk_id % m


class Holders(dict):
    """Chunk id -> the set of peers that pin it, one index for every sector
    of a run: a sector's chunks are all congruent mod m, and a peer stays
    in one sector for life, so sectors never share a key."""

    def add(self, chunk_id: int, peer_id: int) -> None:
        self.setdefault(chunk_id, set()).add(peer_id)

    def drop(self, peer_id: int, chunk_ids, k_min: int = 0) -> list[int]:
        """Unlist the peer from each chunk; returns the chunks that fewer
        than `k_min` peers pin now, in the order given."""
        short = []
        for chunk_id in chunk_ids:
            pids = self[chunk_id]
            pids.remove(peer_id)
            if len(pids) < k_min:
                short.append(chunk_id)
            if not pids:
                del self[chunk_id]
        return short

    def count(self, chunk_id: int) -> int:
        return len(self.get(chunk_id, ()))

    def drift(self, pairs) -> list[str]:
        """A problem for each chunk whose set is not a recount of the
        (peer, store) pairs."""
        recount = Holders()
        for pid, store in pairs:
            for chunk_id in store:
                recount.add(chunk_id, pid)
        return [f"chunk {chunk_id} holders differ from a recount"
                for chunk_id in sorted(recount.keys() | self.keys())
                if recount.get(chunk_id) != self.get(chunk_id)]


class RouteOutcome(NamedTuple):
    served_by: int | None  # None means MissingChunk
    hops: int


@dataclass
class Sector:
    index: int
    members: dict[int, None] = field(default_factory=dict)  # in join order

    def representants(self, r: int) -> list[int]:
        """The r longest-lived members: the first r in join order."""
        return list(islice(self.members, r))


class Turntable:
    """Membership, publication, and request entry over m sectors.

    `route_hookup` only says where a request enters its sector; the
    variant driver routes on from that entry inside its own tree or mesh.
    """

    def __init__(self, m: int, r: int = ScenarioConfig.r):
        self.m = m
        self.r = r
        self.sectors = [Sector(index=i) for i in range(m)]
        self.sector_of_peer: dict[int, int] = {}
        self.handoff_links: dict[int, list[int]] = {}
        self.producer_retained: dict[int, list[int]] = {}  # sector -> chunk ids
        self.stale_handoffs = 0

    # -- membership --------------------------------------------------------

    def join(self, peer_id: int) -> int:
        """Add a peer to the emptiest sector; returns the sector index."""
        if peer_id in self.sector_of_peer:
            raise ValueError(f"peer {peer_id} already joined")
        target = min(self.sectors, key=lambda s: (len(s.members), s.index))
        target.members[peer_id] = None
        self.sector_of_peer[peer_id] = target.index
        return target.index

    def leave(self, peer_id: int) -> int:
        sector_idx = self.sector_of_peer.pop(peer_id)
        del self.sectors[sector_idx].members[peer_id]
        # links other peers hold toward this one are not scrubbed here;
        # they go stale and are discovered (and counted) at handoff time
        self.handoff_links.pop(peer_id, None)
        return sector_idx

    def representants_of(self, sector_idx: int) -> list[int]:
        return self.sectors[sector_idx].representants(self.r)

    # -- publication -------------------------------------------------------

    def publish_chunk(self, chunk_id: int) -> list[tuple[int, int]]:
        """Producer sends of (representant, chunk id); empty if retained.

        An empty target sector keeps the chunk at the producer; it is
        listed for republication once the sector has members again.
        """
        s = sector_of_chunk(chunk_id, self.m)
        reps = self.representants_of(s)
        if not reps:
            self.producer_retained.setdefault(s, []).append(chunk_id)
            return []
        return [(rep, chunk_id) for rep in reps]

    def retain_for_sector(self, sector_idx: int, chunk_id: int) -> None:
        """Put a chunk back on the producer's republish list."""
        self.producer_retained.setdefault(sector_idx, []).append(chunk_id)

    def clear_retained(self, sector_idx: int) -> list[int]:
        return self.producer_retained.pop(sector_idx, [])

    # -- request routing ---------------------------------------------------

    def route_hookup(self, requester: int,
                     chunk_id: int) -> tuple[int, int, int] | None:
        """Where a chunk request enters its sector: (sector, entry, hops).

        A requester already inside the target sector starts at its own
        node for free; anyone else pays one hop to reach the first
        representant. None means the sector has no members to enter.
        """
        s = sector_of_chunk(chunk_id, self.m)
        if self.sector_of_peer.get(requester) == s:
            return (s, requester, 0)
        # the first representant is the sector's longest-lived member
        entry = next(iter(self.sectors[s].members), None)
        if entry is None:
            return None
        return (s, entry, 1)

    # -- inter-sector shortcut links ---------------------------------------

    def offer_handoff(self, server: int, next_chunk: int, stores) -> int | None:
        """Shortcut for the requester's next chunk, if the server has one.

        `stores(peer_id, chunk_id)` says whether a peer currently holds
        a chunk. Links that point at departed peers or peers that
        dropped the chunk are purged and counted as stale.
        """
        next_sector = sector_of_chunk(next_chunk, self.m)
        links = self.handoff_links.get(server, ())
        sector_of = self.sector_of_peer
        # links are tried in order, so each stale one is the list's head
        while links:
            candidate = links[0]
            if (sector_of.get(candidate) == next_sector
                    and stores(candidate, next_chunk)):
                return candidate
            del links[0]
            self.stale_handoffs += 1
        return None

    def refresh_handoff_link(self, peer: int, target: int) -> None:
        """Remember `target` (in peer's next sector) for future handoffs."""
        own = self.sector_of_peer.get(peer)
        if own is None or self.sector_of_peer.get(target) != (own + 1) % self.m:
            return
        links = self.handoff_links.setdefault(peer, [])
        if target in links:
            return
        links.insert(0, target)
        del links[MAX_HANDOFF_LINKS:]
