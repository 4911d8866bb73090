"""Per-sector diffusion tree: summaries, routing, repair, re-replication.

Every sector's members form one tree whose virtual root is the
producer; the representants sit directly under it. Each node keeps a
summary of which chunks exist somewhere in its subtree, so a request
can be steered down toward a replica or up toward the root with a
single lookup per hop. Summaries come in two flavors: an exact chunk
set (never wrong in either direction) and a Bloom filter (never misses
a stored chunk, may claim one that is not there, cannot forget). The
exact mode is the default.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from tssim.engine import PRODUCER
from tssim.turntable import RouteOutcome

DEFAULT_FANOUT = 3
DEFAULT_BLOOM_BITS = 1024
DEFAULT_BLOOM_HASHES = 3


class ExactSummary:
    """Chunk-id set with subtree-union semantics."""

    __slots__ = ("chunks", "generation")

    def __init__(self):
        self.chunks: set[int] = set()
        self.generation = 0

    def claims(self, chunk_id: int) -> bool:
        return chunk_id in self.chunks

    @staticmethod
    def build(own_store: set[int], child_summaries: list["ExactSummary"]) -> "ExactSummary":
        s = ExactSummary()
        s.chunks = set(own_store)
        for child in child_summaries:
            s.chunks |= child.chunks
        return s

    def same_content(self, other: "ExactSummary") -> bool:
        return self.chunks == other.chunks

    def size_bytes(self) -> int:
        return 8 * len(self.chunks)


def _bloom_positions(chunk_id: int, bits: int, hashes: int) -> list[int]:
    out = []
    for salt in range(hashes):
        digest = hashlib.blake2b(f"{salt}:{chunk_id}".encode(), digest_size=8).digest()
        out.append(int.from_bytes(digest, "big") % bits)
    return out


class BloomSummary:
    """Fixed-size filter; unions cheaply, never forgets, may overclaim."""

    __slots__ = ("bits", "hashes", "array", "generation")

    def __init__(self, bits: int = DEFAULT_BLOOM_BITS, hashes: int = DEFAULT_BLOOM_HASHES):
        if bits < 8 or hashes < 1:
            raise ValueError(f"implausible filter shape ({bits} bits, {hashes} hashes)")
        self.bits = bits
        self.hashes = hashes
        self.array = 0  # int used as a bit array
        self.generation = 0

    def _mask(self, chunk_id: int) -> int:
        mask = 0
        for pos in _bloom_positions(chunk_id, self.bits, self.hashes):
            mask |= 1 << pos
        return mask

    def claims(self, chunk_id: int) -> bool:
        mask = self._mask(chunk_id)
        return self.array & mask == mask

    def build(self, own_store: set[int], child_summaries: list["BloomSummary"]) -> "BloomSummary":
        s = BloomSummary(self.bits, self.hashes)
        for chunk_id in own_store:
            s.array |= s._mask(chunk_id)
        for child in child_summaries:
            if child.bits != s.bits or child.hashes != s.hashes:
                raise ValueError("cannot union filters of different shapes")
            s.array |= child.array
        return s

    def same_content(self, other: "BloomSummary") -> bool:
        return self.array == other.array

    def size_bytes(self) -> int:
        return self.bits // 8


@dataclass
class TreeNode:
    peer_id: int
    parent: int  # peer id or PRODUCER
    children: list[int] = field(default_factory=list)
    store: set[int] = field(default_factory=set)
    upload_capacity: int = DEFAULT_FANOUT
    storage_capacity: int = 10**9


@dataclass(frozen=True)
class DiffusionResult:
    pinned: list[int]  # peers that stored the chunk
    deficit: int  # k_rep minus what was achievable


@dataclass(frozen=True)
class EmergencyResult:
    new_pins: list[int]
    permanent_loss: bool
    fetched_from: int | None  # peer id, PRODUCER (archive), or None on loss


class SectorTree:
    """One sector's diffusion tree plus its availability summaries."""

    def __init__(
        self,
        fanout: int = DEFAULT_FANOUT,
        summary_mode: str = "exact",
        bloom_bits: int = DEFAULT_BLOOM_BITS,
        bloom_hashes: int = DEFAULT_BLOOM_HASHES,
    ):
        if fanout < 1:
            raise ValueError(f"fanout must be at least 1, got {fanout}")
        if summary_mode not in ("exact", "bloom"):
            raise ValueError(f"summary_mode must be 'exact' or 'bloom', got {summary_mode!r}")
        self.fanout = fanout
        self.summary_mode = summary_mode
        self.bloom_bits = bloom_bits
        self.bloom_hashes = bloom_hashes
        self.nodes: dict[int, TreeNode] = {}
        self.summaries: dict[int, ExactSummary | BloomSummary] = {}
        self.summary_traffic_bytes = 0

    # -- structure ----------------------------------------------------------

    def _fresh_summary(self):
        if self.summary_mode == "exact":
            return ExactSummary()
        return BloomSummary(self.bloom_bits, self.bloom_hashes)

    def roots(self) -> list[int]:
        return sorted(pid for pid, n in self.nodes.items() if n.parent == PRODUCER)

    def depth_of(self, peer_id: int) -> int:
        """Edges between the peer and the producer root (representant = 1)."""
        depth = 1
        node = self.nodes[peer_id]
        while node.parent != PRODUCER:
            node = self.nodes[node.parent]
            depth += 1
        return depth

    def depth(self) -> int:
        return max((self.depth_of(pid) for pid in self.nodes), default=0)

    def _attach_candidates(self) -> list[int]:
        return [pid for pid, n in self.nodes.items() if len(n.children) < self.fanout]

    def attach(self, peer_id: int, upload_capacity: int = DEFAULT_FANOUT,
               storage_capacity: int = 10**9, as_root: bool = False) -> None:
        """Insert a peer, preferring shallow, high-capacity parents."""
        if peer_id in self.nodes:
            raise ValueError(f"peer {peer_id} already in tree")
        if as_root or not self.nodes:
            parent = PRODUCER
        else:
            candidates = self._attach_candidates()
            if not candidates:
                parent = PRODUCER  # tree saturated: new representant-level node
            else:
                parent = min(
                    candidates,
                    key=lambda pid: (
                        self.depth_of(pid),
                        -self.nodes[pid].upload_capacity,
                        pid,
                    ),
                )
        self.nodes[peer_id] = TreeNode(
            peer_id=peer_id,
            parent=parent,
            upload_capacity=upload_capacity,
            storage_capacity=storage_capacity,
        )
        if parent != PRODUCER:
            self.nodes[parent].children.append(peer_id)
        self.summaries[peer_id] = self._fresh_summary()
        self.update_summary(peer_id)

    def detach(self, peer_id: int) -> list[int]:
        """Remove a peer; orphaned children re-attach with their subtrees.

        Each orphan goes under the shallowest node with spare fanout
        (ties to the lowest peer id), or becomes a representant-level
        node when nothing has room.
        """
        node = self.nodes.pop(peer_id)
        self.summaries.pop(peer_id)
        if node.parent != PRODUCER and node.parent in self.nodes:
            self.nodes[node.parent].children.remove(peer_id)
            self.update_summary(node.parent)
        orphans = sorted(node.children)
        for orphan in orphans:
            # park at root level first so ancestor walks never cross the
            # departed node
            self.nodes[orphan].parent = PRODUCER
        for orphan in orphans:
            candidates = [
                pid for pid in self._attach_candidates()
                if not self._in_subtree(pid, orphan)
            ]
            if candidates:
                parent = min(candidates, key=lambda pid: (self.depth_of(pid), pid))
                self.nodes[parent].children.append(orphan)
                self.nodes[orphan].parent = parent
                self.update_summary(parent)
        return orphans

    def _in_subtree(self, pid: int, root: int) -> bool:
        while pid != PRODUCER:
            if pid == root:
                return True
            pid = self.nodes[pid].parent
        return False

    def check_invariants(self) -> list[str]:
        """Structural violations, empty when healthy."""
        problems = []
        for pid, node in self.nodes.items():
            if len(node.children) > self.fanout:
                problems.append(f"peer {pid} exceeds fanout")
            for child in node.children:
                if self.nodes.get(child) is None or self.nodes[child].parent != pid:
                    problems.append(f"broken parent link {pid}->{child}")
        for pid in self.nodes:
            trail = set()
            cursor = pid
            while cursor != PRODUCER:
                if cursor in trail:
                    problems.append(f"cycle through {cursor}")
                    break
                trail.add(cursor)
                cursor = self.nodes[cursor].parent
        reachable = set()
        stack = self.roots()
        while stack:
            pid = stack.pop()
            reachable.add(pid)
            stack.extend(self.nodes[pid].children)
        if reachable != set(self.nodes):
            problems.append("nodes unreachable from the roots")
        for pid in self.nodes:
            expected = self._recompute_summary(pid)
            if not self.summaries[pid].same_content(expected):
                problems.append(f"stale summary at {pid}")
        return problems

    # -- summaries ----------------------------------------------------------

    def _recompute_summary(self, peer_id: int):
        node = self.nodes[peer_id]
        children = [self.summaries[c] for c in node.children]
        if self.summary_mode == "exact":
            return ExactSummary.build(node.store, children)
        return self.summaries[peer_id].build(node.store, children)

    def update_summary(self, peer_id: int) -> None:
        """Rebuild at this node and push changes rootward until stable."""
        cursor = peer_id
        while cursor != PRODUCER:
            fresh = self._recompute_summary(cursor)
            current = self.summaries[cursor]
            if current.same_content(fresh) and current.generation > 0:
                return
            fresh.generation = current.generation + 1
            self.summaries[cursor] = fresh
            parent = self.nodes[cursor].parent
            if parent != PRODUCER:
                self.summary_traffic_bytes += fresh.size_bytes()
            cursor = parent

    def root_claims(self, chunk_id: int) -> bool:
        return any(self.summaries[r].claims(chunk_id) for r in self.roots())

    def replica_count(self, chunk_id: int) -> int:
        return sum(1 for n in self.nodes.values() if chunk_id in n.store)

    def holders(self, chunk_id: int) -> list[int]:
        return sorted(pid for pid, n in self.nodes.items() if chunk_id in n.store)

    # -- diffusion and pinning ----------------------------------------------

    def diffuse_chunk(self, chunk_id: int, k_rep: int) -> DiffusionResult:
        """Pin a fresh chunk on k_rep nodes, deepest candidates first."""
        candidates = [
            pid for pid, n in self.nodes.items()
            if len(n.store) < n.storage_capacity
        ]
        candidates.sort(key=lambda pid: (-self.depth_of(pid), pid))
        pinned = []
        for pid in candidates[:k_rep]:
            self.nodes[pid].store.add(chunk_id)
            pinned.append(pid)
        for pid in pinned:
            self.update_summary(pid)
        return DiffusionResult(pinned=pinned, deficit=max(0, k_rep - len(pinned)))

    def unpin_all(self, peer_id: int) -> set[int]:
        """Called on departure before detach; returns what the peer held."""
        node = self.nodes[peer_id]
        held = set(node.store)
        node.store.clear()
        return held

    # -- routing -------------------------------------------------------------

    def route_request(self, entry: int, chunk_id: int) -> RouteOutcome:
        """Walk the tree from `entry` following summary claims.

        Each edge traversal costs one hop, including backtracking out
        of a subtree a Bloom filter wrongly vouched for. With exact
        summaries the walk never detours: up to the root, then straight
        down, which is what bounds hops by twice the tree depth.
        """
        if entry not in self.nodes:
            return RouteOutcome(served_by=None, hops=0)
        hops = 0
        cursor = entry
        exhausted: set[int] = set()  # subtrees proven (or found) empty

        while True:
            node = self.nodes[cursor]
            if chunk_id in node.store:
                return RouteOutcome(served_by=cursor, hops=hops)
            down = next(
                (
                    c for c in node.children
                    if c not in exhausted and self.summaries[c].claims(chunk_id)
                ),
                None,
            )
            if down is not None:
                cursor = down
                hops += 1
                continue
            exhausted.add(cursor)
            if node.parent == PRODUCER:
                # consult the other representants through the root
                sibling = next(
                    (
                        r for r in self.roots()
                        if r not in exhausted and self.summaries[r].claims(chunk_id)
                    ),
                    None,
                )
                if sibling is None:
                    return RouteOutcome(served_by=None, hops=hops)
                cursor = sibling
                hops += 1
                continue
            cursor = node.parent
            hops += 1

    # -- emergency replication ------------------------------------------------

    def emergency_replicate(
        self,
        chunk_id: int,
        k_rep: int,
        producer_archive: bool = False,
    ) -> EmergencyResult:
        """Top replicas back up to k_rep (or to what the sector can hold).

        A representant fetches the chunk from any remaining holder, or
        from the producer's archive when that is enabled; with neither,
        the chunk is gone for good and said so.
        """
        holders = self.holders(chunk_id)
        if holders:
            source = holders[0]
        elif producer_archive:
            source = PRODUCER
        else:
            return EmergencyResult(new_pins=[], permanent_loss=True, fetched_from=None)
        need = k_rep - len(holders)
        if need <= 0 and holders:
            return EmergencyResult(new_pins=[], permanent_loss=False, fetched_from=source)
        candidates = [
            pid for pid, n in self.nodes.items()
            if chunk_id not in n.store and len(n.store) < n.storage_capacity
        ]
        candidates.sort(key=lambda pid: (-self.depth_of(pid), pid))
        target_count = need if holders else k_rep
        new_pins = []
        for pid in candidates[:target_count]:
            self.nodes[pid].store.add(chunk_id)
            new_pins.append(pid)
        for pid in new_pins:
            self.update_summary(pid)
        if not holders and not new_pins:
            # archive never loses the chunk, but the sector holds nothing
            return EmergencyResult(new_pins=[], permanent_loss=not producer_archive,
                                   fetched_from=source)
        return EmergencyResult(new_pins=new_pins, permanent_loss=False,
                               fetched_from=source)
