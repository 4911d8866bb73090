"""Per-sector diffusion tree: summaries, routing, repair, re-replication.

Every sector's members form one tree with a single root, the one node
directly under the producer. Each node keeps a summary of which chunks
exist somewhere in its subtree, so a request can be steered down toward
a replica or up toward the root with a single lookup per hop. Summaries
come in two flavors: an exact chunk set (never wrong in either
direction) and a Bloom filter (never misses a stored chunk, may claim
one that is not there). The exact mode is the default. Both are kept
incrementally: each node counts the references to every key of its
subtree, so a change walks toward the root only as far as some claim
flips, and a Bloom filter drops the bits of a chunk that leaves the
subtree unless another chunk still sets them.

Every member is one node record, which also carries its depth and its
subtree's summary. A join and each orphan of a departure take their
parent by one rule: the shallowest node with spare fanout, ties to the
lowest peer id.

A departure drops the leaver's whole store in one `update_summary`
walk, which also returns the chunks left below k_min. With exact
summaries their emergency re-replication pins all of them first and
then walks the gains rootward once, deepest nodes first; a Bloom
filter hears every pin by its own walk. The batched pass
charges the traffic the per-chunk walks would have: a changed node
other than the root ships its summary once per chunk whose
claim flips there, in chunk order, so a summary of L keys that gains n
keys ships 8·(n·L + n(n+1)/2) bytes, its sizes after each flip.
Batching per node gives the same flips as the per-chunk order, because
once a chunk's walk ends every ancestor already claims it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

from tssim.config import ScenarioConfig
from tssim.engine import PRODUCER
from tssim.turntable import Holders, RouteOutcome


class _CountedSummary:
    """Reference counts behind a subtree summary.

    A key counts once for each of the node's own chunks that maps to it
    and once for each child whose summary claims it; the summary claims
    exactly the keys with a positive count. A change therefore flips a
    claim only where a count reaches or leaves zero, and the parent
    hears only those flips instead of a rebuilt union: the counting
    filters of Fan, Cao, Almeida and Broder (Summary Cache, 2000).
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: dict[int, int] = {}

    def add(self, keys) -> list[int]:
        """Count one more reference to each key; returns the keys newly claimed."""
        counts = self.counts
        flipped = []
        for key in keys:
            n = counts.get(key, 0)
            counts[key] = n + 1
            if not n:
                flipped.append(key)
        if flipped:
            self._flip(flipped)
        return flipped

    def remove(self, keys) -> list[int]:
        """Drop one counted reference to each key; returns the keys no longer claimed."""
        counts = self.counts
        flipped = []
        for key in keys:
            n = counts[key] - 1
            if n:
                counts[key] = n
            else:
                del counts[key]
                flipped.append(key)
        if flipped:
            self._flip(flipped)
        return flipped

    def _flip(self, keys: list[int]) -> None:
        """Follow claims that changed; the counts alone are the exact summary."""

    def claimed_keys(self) -> list[int]:
        return list(self.counts)

    def _union(self, own_store, child_summaries) -> "_CountedSummary":
        for chunk_id in own_store:
            self.add(self.keys_of(chunk_id))
        for child in child_summaries:
            self.add(child.claimed_keys())
        return self


class ExactSummary(_CountedSummary):
    """Chunk-id set with subtree-union semantics; a key is a chunk id."""

    __slots__ = ()

    def claims(self, chunk_id: int) -> bool:
        return chunk_id in self.counts

    @staticmethod
    def keys_of(chunk_id: int) -> tuple[int]:
        return (chunk_id,)

    @staticmethod
    def build(own_store: set[int], child_summaries: list["ExactSummary"]) -> "ExactSummary":
        return ExactSummary()._union(own_store, child_summaries)

    def same_content(self, other: "ExactSummary") -> bool:
        return self.counts.keys() == other.counts.keys()

    def size_bytes(self) -> int:
        return 8 * len(self.counts)


def _bloom_positions(chunk_id: int, bits: int, hashes: int) -> list[int]:
    out = []
    for salt in range(hashes):
        digest = hashlib.blake2b(f"{salt}:{chunk_id}".encode(), digest_size=8).digest()
        out.append(int.from_bytes(digest, "big") % bits)
    return out


class BloomSummary(_CountedSummary):
    """Fixed-size filter; may overclaim, never misses a stored chunk.

    A key is a bit position, and the array is the OR of the masks of the
    subtree's chunks. Counting each bit's references lets the filter
    clear the bits of a chunk that leaves the subtree unless another
    remaining chunk sets them too, so it forgets what nothing vouches for.
    """

    __slots__ = ("bits", "hashes", "array")

    def __init__(self, bits: int = ScenarioConfig.bloom_bits,
                 hashes: int = ScenarioConfig.bloom_hashes):
        super().__init__()
        self.bits = bits
        self.hashes = hashes
        self.array = 0  # int used as a bit array

    def _mask(self, chunk_id: int) -> int:
        mask = 0
        for pos in _bloom_positions(chunk_id, self.bits, self.hashes):
            mask |= 1 << pos
        return mask

    def claims(self, chunk_id: int) -> bool:
        mask = self._mask(chunk_id)
        return self.array & mask == mask

    def keys_of(self, chunk_id: int) -> set[int]:
        return set(_bloom_positions(chunk_id, self.bits, self.hashes))

    def _flip(self, keys: list[int]) -> None:
        for pos in keys:
            self.array ^= 1 << pos

    def build(self, own_store: set[int], child_summaries: list["BloomSummary"]) -> "BloomSummary":
        for child in child_summaries:
            if child.bits != self.bits or child.hashes != self.hashes:
                raise ValueError("cannot union filters of different shapes")
        return BloomSummary(self.bits, self.hashes)._union(own_store, child_summaries)

    def same_content(self, other: "BloomSummary") -> bool:
        return self.array == other.array

    def size_bytes(self) -> int:
        return self.bits // 8


@dataclass(slots=True)
class TreeNode:
    """One member of a sector tree; the tree keeps `depth` and `summary` current."""
    parent: int  # peer id, or PRODUCER at the root
    depth: int  # edges up to the producer: the root is at 1
    summary: ExactSummary | BloomSummary  # claims every chunk stored in the subtree
    children: list[int] = field(default_factory=list)
    store: set[int] = field(default_factory=set)
    storage_capacity: int = ScenarioConfig.storage_chunks


class EmergencyResult(NamedTuple):
    """One departure's re-replication; every chunk asked for is in
    exactly one of `fetched_from` and `lost`. `stored` is `new_pins` by
    node, the layout in which the copies are stored."""

    new_pins: dict[int, list[int]]  # chunk -> peers that now store it; gainers only
    fetched_from: dict[int, int]  # chunk -> its source: a holder, or PRODUCER (archive)
    lost: list[int]  # chunks with no holder and no archive: gone for good
    stored: dict[int, list[int]]  # peer -> the chunks pinned on it, ascending


class SectorTree:
    """One sector's diffusion tree: a `TreeNode` per member, by peer id.

    Every pin and unpin is written to `holders`, the run's one index of
    who pins each chunk, which the driver owns and passes in; a tree
    built alone makes its own. A node's `store` is also the engine's
    record of the peer's pins, and only the tree's own operations edit
    it; `update_summary` takes a caller's edit. Emergency pins walk in
    one batched pass only with exact summaries; in Bloom mode each pin
    walks alone.
    """

    def __init__(
        self,
        fanout: int = ScenarioConfig.fanout,
        summary_mode: str = ScenarioConfig.summary_mode,
        bloom_bits: int = ScenarioConfig.bloom_bits,
        bloom_hashes: int = ScenarioConfig.bloom_hashes,
        holders: Holders | None = None,
    ):
        self.fanout = fanout
        self.summary_mode = summary_mode
        self.bloom_bits = bloom_bits
        self.bloom_hashes = bloom_hashes
        self.nodes: dict[int, TreeNode] = {}
        self.summary_traffic_bytes = 0
        self.holders = Holders() if holders is None else holders
        self._by_depth: list[int] | None = None  # deepest first; reset on attach/detach

    # -- structure ----------------------------------------------------------

    def _fresh_summary(self):
        if self.summary_mode == "exact":
            return ExactSummary()
        return BloomSummary(self.bloom_bits, self.bloom_hashes)

    def _parent_for(self, outside=()) -> int:
        """The shallowest node with spare fanout that is not in `outside`,
        ties to the lowest peer id. Any node outside has spare fanout at
        least at a leaf, so PRODUCER comes only when no node is outside."""
        fanout = self.fanout
        return min(((node.depth, pid) for pid, node in self.nodes.items()
                    if len(node.children) < fanout and pid not in outside),
                   default=(0, PRODUCER))[1]

    def _subtree(self, root: int) -> list[int]:
        """`root` and its descendants, each after its parent."""
        subtree = [root]
        for pid in subtree:
            subtree.extend(self.nodes[pid].children)
        return subtree

    def _redepth(self, root: int) -> None:
        """Re-derive the depths of `root`'s subtree from its parent."""
        nodes = self.nodes
        for pid in self._subtree(root):
            node = nodes[pid]
            node.depth = 1 if node.parent == PRODUCER else nodes[node.parent].depth + 1

    def attach(self, peer_id: int,
               storage_capacity: int = ScenarioConfig.storage_chunks) -> None:
        """Insert a peer under `_parent_for`'s pick; the first peer of an
        empty tree becomes its root."""
        if peer_id in self.nodes:
            raise ValueError(f"peer {peer_id} already in tree")
        self._by_depth = None
        parent = self._parent_for()
        summary = self._fresh_summary()
        depth = 1
        if parent != PRODUCER:
            above = self.nodes[parent]
            above.children.append(peer_id)
            depth = above.depth + 1
            # the new node ships its empty summary once: 0 bytes when exact,
            # the whole filter in Bloom mode; its parent's claims do not change
            self.summary_traffic_bytes += summary.size_bytes()
        self.nodes[peer_id] = TreeNode(parent, depth, summary,
                                       storage_capacity=storage_capacity)

    def detach(self, peer_id: int) -> list[int]:
        """Remove a peer; orphaned children re-attach with their subtrees.

        Each orphan goes under `_parent_for`'s pick outside its own
        subtree, the rule a join follows; when the root leaves, the last
        orphan has nothing outside and stays under the producer as root.
        """
        nodes = self.nodes
        node = nodes.pop(peer_id)
        self._by_depth = None
        self.holders.drop(peer_id, node.store)
        if node.parent != PRODUCER:
            nodes[node.parent].children.remove(peer_id)
            self._walk(node.parent, lost=node.summary.claimed_keys())
        orphans = sorted(node.children)
        for orphan in orphans:
            # park under the producer first so ancestor walks never cross
            # the departed node
            nodes[orphan].parent = PRODUCER
            self._redepth(orphan)
        for orphan in orphans:
            parent = self._parent_for(set(self._subtree(orphan)))
            if parent != PRODUCER:
                nodes[parent].children.append(orphan)
                nodes[orphan].parent = parent
                self._redepth(orphan)
                self._walk(parent, gained=nodes[orphan].summary.claimed_keys())
        return orphans

    def check_invariants(self) -> list[str]:
        """Structural violations and summary drift, empty when healthy."""
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
            else:
                if self.nodes[pid].depth != len(trail):
                    problems.append(f"cached depth of {pid} differs from a recount")
        stack = [pid for pid, node in self.nodes.items() if node.parent == PRODUCER]
        if len(stack) > 1:
            problems.append("more than one node sits under the producer")
        reachable = set()
        while stack:
            pid = stack.pop()
            reachable.add(pid)
            stack.extend(self.nodes[pid].children)
        if reachable != set(self.nodes):
            problems.append("nodes unreachable from the root")
        for pid, node in self.nodes.items():
            expected = self._recompute_summary(pid)
            if not node.summary.same_content(expected):
                problems.append(f"stale summary at {pid}")
            elif node.summary.counts != expected.counts:
                problems.append(f"summary reference counts at {pid} differ from a recount")
        return problems

    # -- summaries ----------------------------------------------------------

    def _recompute_summary(self, peer_id: int):
        """Rebuild by union from the stores: the oracle the counts are audited against."""
        node = self.nodes[peer_id]
        children = [self.nodes[c].summary for c in node.children]
        return node.summary.build(node.store, children)

    def _walk(self, peer_id: int, gained=(), lost=()) -> None:
        """Count keys gained and lost at a node and push its flips rootward.

        Stops at the first node whose claims do not change. Every
        changed node but the root ships its new summary,
        so claims and traffic match a rebuild by union along the same
        path.
        """
        nodes = self.nodes
        cursor = peer_id
        while cursor != PRODUCER:
            node = nodes[cursor]
            summary = node.summary
            if gained:
                gained = summary.add(gained)
            if lost:
                lost = summary.remove(lost)
            if not gained and not lost:
                return
            cursor = node.parent
            if cursor != PRODUCER:
                self.summary_traffic_bytes += summary.size_bytes()

    def update_summary(self, peer_id: int, added=(), removed=(),
                       k_min: int = 0) -> list[int]:
        """Store `added` and drop `removed` (disjoint, each chunk once) at the
        node, then push the change rootward in one walk; held adds and
        absent removals are no-ops. Returns the dropped chunks that fewer
        than `k_min` nodes hold afterwards, in the order of `removed`.

        The walk that takes the node out of each dropped chunk's holders
        also counts who still holds it, so a departure that drops its
        whole store, ascending, learns which chunks to re-replicate
        without a set copy or a second lookup.
        """
        node = self.nodes[peer_id]
        store = node.store
        added = set(added) - store
        removed = [chunk_id for chunk_id in removed if chunk_id in store]
        store.difference_update(removed)
        store |= added
        holders = self.holders
        for chunk_id in added:
            holders.add(chunk_id, peer_id)
        short = holders.drop(peer_id, removed, k_min)
        if self.summary_mode == "exact":  # a chunk id is its own key
            self._walk(peer_id, list(added), removed)
            return short
        keys_of = node.summary.keys_of
        self._walk(peer_id, [key for chunk_id in added for key in keys_of(chunk_id)],
                   [key for chunk_id in removed for key in keys_of(chunk_id)])
        return short

    def replica_count(self, chunk_id: int) -> int:
        """`holders.count`. It stays only because perfbench/spans.py
        patches it by name, and goes when the benchmark next changes."""
        return self.holders.count(chunk_id)

    # -- diffusion and pinning ----------------------------------------------

    def _depth_order(self) -> list[int]:
        """Every node, deepest first, ties to the lowest peer id."""
        order = self._by_depth
        if order is None:
            nodes = self.nodes
            order = self._by_depth = sorted(nodes, key=lambda pid: (-nodes[pid].depth, pid))
        return order

    def diffuse_chunk(self, chunk_id: int, k_rep: int) -> list[int]:
        """Pin a fresh chunk on the k_rep deepest nodes with spare storage
        and return them, fewer when storage runs short; a node that
        already holds it (a republish) is picked but unchanged."""
        nodes, holders = self.nodes, self.holders
        pinned: list[int] = []
        for pid in self._depth_order():
            if len(pinned) >= k_rep:
                break
            node = nodes[pid]
            store = node.store
            if len(store) < node.storage_capacity:
                pinned.append(pid)
                if chunk_id not in store:
                    store.add(chunk_id)
                    holders.add(chunk_id, pid)
                    self._walk(pid, node.summary.keys_of(chunk_id))
        return pinned

    # -- routing -------------------------------------------------------------

    def route_request(self, entry: int, chunk_id: int) -> RouteOutcome:
        """Walk the tree from `entry`, a member, following summary claims.

        Each edge traversal costs one hop, including backtracking out
        of a subtree a Bloom filter wrongly vouched for. With exact
        summaries the walk never detours: up to the root, then straight
        down, which is what bounds hops by twice the tree depth. The walk
        never re-enters a subtree it found empty, so it needs no hop
        budget, and one that finds the root's subtree, the whole tree,
        empty misses.
        """
        nodes = self.nodes
        hops = 0
        cursor = entry
        exhausted: set[int] = set()  # subtrees proven (or found) empty
        while True:
            node = nodes[cursor]
            if chunk_id in node.store:
                return RouteOutcome(cursor, hops)
            for child in node.children:  # down into the first claiming child
                if child not in exhausted and nodes[child].summary.claims(chunk_id):
                    cursor = child
                    break
            else:  # no child claims it: this subtree is empty
                if node.parent == PRODUCER:
                    return RouteOutcome(None, hops)
                exhausted.add(cursor)
                cursor = node.parent
            hops += 1

    # -- emergency replication ------------------------------------------------

    def emergency_replicate(
        self,
        chunk_ids: list[int],
        k_rep: int,
        producer_archive: bool,
    ) -> EmergencyResult:
        """Top each chunk's replicas back up to k_rep (or to what the
        sector can hold), one distinct chunk id at a time in ascending order.

        A representant fetches a chunk from its lowest-id remaining
        holder, or from the producer's archive when that is enabled;
        with neither, the chunk is gone for good and said so. Its pins
        go to the deepest nodes with spare storage that do not hold it,
        ties to the lowest peer id. A pin grows its node's store by one,
        so a node's room is read at its first visit and counted down,
        and the stores take their pins once per node. With exact
        summaries the pins of all chunks reach them in one rootward
        pass; a Bloom filter hears each pin as it is made.
        """
        nodes, holders = self.nodes, self.holders
        order: list[int] | None = None  # ranked at the first chunk to pin
        room: dict[int, int] = {}  # node -> spare storage, read at its first visit
        exact = self.summary_mode == "exact"
        new_pins: dict[int, list[int]] = {}
        fetched_from: dict[int, int] = {}
        lost: list[int] = []
        stored: dict[int, list[int]] = {}
        for chunk_id in sorted(chunk_ids):
            held_by = holders.get(chunk_id, ())
            if held_by:
                fetched_from[chunk_id] = min(held_by)
            elif producer_archive:
                fetched_from[chunk_id] = PRODUCER
            else:
                lost.append(chunk_id)
                continue
            need = k_rep - len(held_by)
            if need <= 0:
                continue
            if order is None:
                order = self._depth_order()
            pins = []
            for pid in order:
                if pid in held_by:
                    continue
                spare = room.get(pid)
                if spare is None:
                    node = nodes[pid]
                    spare = room[pid] = node.storage_capacity - len(node.store)
                if spare > 0:
                    room[pid] = spare - 1
                    pins.append(pid)
                    stored.setdefault(pid, []).append(chunk_id)
                    if not exact:
                        self._walk(pid, nodes[pid].summary.keys_of(chunk_id))
                    need -= 1
                    if not need:
                        break
            if not pins:  # no loss: a holder or the archive still has it
                continue
            new_pins[chunk_id] = pins
            for pid in pins:
                holders.add(chunk_id, pid)
        for pid, chunks in stored.items():
            nodes[pid].store.update(chunks)
        if stored and exact:
            self._walk_gains(stored)
        return EmergencyResult(new_pins, fetched_from, lost, stored)

    def _walk_gains(self, gains: dict[int, list[int]]) -> None:
        """Count the chunks each node gained in exact summaries and push
        the flips rootward in one pass, deepest nodes first, charging the
        traffic of the per-chunk walks (see the module docstring).
        `gains` maps a node to its new chunks and is left as it was."""
        nodes = self.nodes
        arriving = dict(gains)  # node -> its gains and its children's flips
        levels: dict[int, list[int]] = {}  # depth -> nodes with arrivals
        for pid in arriving:
            levels.setdefault(nodes[pid].depth, []).append(pid)
        traffic = 0
        for level in range(max(levels), 0, -1):
            for pid in levels.pop(level, ()):
                node = nodes[pid]
                summary = node.summary
                before = summary.size_bytes()
                up = summary.add(arriving.pop(pid))
                parent = node.parent
                if not up or parent == PRODUCER:
                    continue
                n = len(up)
                traffic += n * before + 8 * n * (n + 1) // 2
                above = arriving.get(parent)
                if above is None:
                    arriving[parent] = up
                    levels.setdefault(level - 1, []).append(parent)
                else:
                    arriving[parent] = above + up
        self.summary_traffic_bytes += traffic
