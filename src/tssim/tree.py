"""Per-sector diffusion tree: summaries, routing, repair, re-replication.

Every sector's members form one tree whose virtual root is the
producer; the representants sit directly under it. Each node keeps a
summary of which chunks exist somewhere in its subtree, so a request
can be steered down toward a replica or up toward the root with a
single lookup per hop. Summaries come in two flavors: an exact chunk
set (never wrong in either direction) and a Bloom filter (never misses
a stored chunk, may claim one that is not there). The exact mode is the
default. Both are kept incrementally: each node counts the references
to every key of its subtree, so a change walks toward the root only as
far as some claim flips, and a Bloom filter drops the bits of a chunk
that leaves the subtree unless another chunk still sets them.

With exact summaries a departure's emergency re-replication pins all
its chunks first and then walks the gains rootward once, deepest nodes
first; a Bloom filter hears every pin by its own walk. The batched pass
charges the traffic the per-chunk walks would have: a changed node
under a non-producer parent ships its summary once per chunk whose
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
from tssim.turntable import RouteOutcome


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


@dataclass
class TreeNode:
    peer_id: int
    parent: int  # peer id or PRODUCER
    children: list[int] = field(default_factory=list)
    store: set[int] = field(default_factory=set)
    upload_capacity: int = ScenarioConfig.upload_capacity
    storage_capacity: int = ScenarioConfig.storage_chunks


@dataclass(frozen=True)
class DiffusionResult:
    pinned: list[int]  # peers that stored the chunk
    deficit: int  # k_rep minus what was achievable


class EmergencyResult(NamedTuple):
    """One departure's re-replication; every chunk asked for is in
    exactly one of `fetched_from` and `lost`."""

    new_pins: dict[int, list[int]]  # chunk -> peers that now store it; gainers only
    fetched_from: dict[int, int]  # chunk -> its source: a holder, or PRODUCER (archive)
    lost: list[int]  # chunks with no holder and no archive: gone for good


class SectorTree:
    """One sector's diffusion tree plus its availability summaries.

    Beside the summaries it indexes each chunk's holders and each node's
    depth, so replica counts and candidate ranking read no scan. A
    node's `store` is also the engine's record of the peer's pins, and
    only the tree's own operations edit it; `update_summary` takes a
    caller's edit. Emergency pins walk in one batched pass only with
    exact summaries; in Bloom mode each pin walks alone.
    """

    def __init__(
        self,
        fanout: int = ScenarioConfig.fanout,
        summary_mode: str = ScenarioConfig.summary_mode,
        bloom_bits: int = ScenarioConfig.bloom_bits,
        bloom_hashes: int = ScenarioConfig.bloom_hashes,
    ):
        self.fanout = fanout
        self.summary_mode = summary_mode
        self.bloom_bits = bloom_bits
        self.bloom_hashes = bloom_hashes
        self.nodes: dict[int, TreeNode] = {}
        self.summaries: dict[int, ExactSummary | BloomSummary] = {}
        self.summary_traffic_bytes = 0
        self._holders: dict[int, set[int]] = {}  # chunk -> peers storing it
        self._depth: dict[int, int] = {}
        self._by_depth: list[int] | None = None  # deepest first; reset on attach/detach

    # -- structure ----------------------------------------------------------

    def _fresh_summary(self):
        if self.summary_mode == "exact":
            return ExactSummary()
        return BloomSummary(self.bloom_bits, self.bloom_hashes)

    def roots(self) -> list[int]:
        return sorted(pid for pid, n in self.nodes.items() if n.parent == PRODUCER)

    def depth_of(self, peer_id: int) -> int:
        """Edges between the peer and the producer root (representant = 1)."""
        return self._depth[peer_id]

    def depth(self) -> int:
        return max(self._depth.values(), default=0)

    def _attach_candidates(self) -> list[int]:
        return [pid for pid, n in self.nodes.items() if len(n.children) < self.fanout]

    def _subtree(self, root: int) -> list[int]:
        """`root` and its descendants, each after its parent."""
        subtree = [root]
        for pid in subtree:
            subtree.extend(self.nodes[pid].children)
        return subtree

    def _redepth(self, root: int) -> None:
        """Re-derive the cached depths of `root`'s subtree from its parent."""
        depth = self._depth
        for pid in self._subtree(root):
            parent = self.nodes[pid].parent
            depth[pid] = 1 if parent == PRODUCER else depth[parent] + 1

    def attach(self, peer_id: int, upload_capacity: int = ScenarioConfig.upload_capacity,
               storage_capacity: int = ScenarioConfig.storage_chunks,
               as_root: bool = False) -> None:
        """Insert a peer, preferring shallow, high-capacity parents."""
        if peer_id in self.nodes:
            raise ValueError(f"peer {peer_id} already in tree")
        self._by_depth = None
        depth = self._depth
        if as_root or not self.nodes:
            parent = PRODUCER
        else:
            # never empty: a non-empty tree has a leaf, and fanout >= 1
            parent = min(
                self._attach_candidates(),
                key=lambda pid: (
                    depth[pid],
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
        summary = self.summaries[peer_id] = self._fresh_summary()
        if parent == PRODUCER:
            depth[peer_id] = 1
            return
        depth[peer_id] = depth[parent] + 1
        self.nodes[parent].children.append(peer_id)
        # the new node ships its empty summary once: 0 bytes when exact,
        # the whole filter in Bloom mode; its parent's claims do not change
        self.summary_traffic_bytes += summary.size_bytes()

    def detach(self, peer_id: int) -> list[int]:
        """Remove a peer; orphaned children re-attach with their subtrees.

        Each orphan goes under the shallowest node with spare fanout
        (ties to the lowest peer id), or becomes a representant-level
        node when nothing has room.
        """
        node = self.nodes.pop(peer_id)
        self._by_depth = None
        summary = self.summaries.pop(peer_id)
        for chunk_id in node.store:
            self._unlist(chunk_id, peer_id)
        del self._depth[peer_id]
        if node.parent != PRODUCER and node.parent in self.nodes:
            self.nodes[node.parent].children.remove(peer_id)
            self._walk(node.parent, lost=summary.claimed_keys())
        orphans = sorted(node.children)
        for orphan in orphans:
            # park at root level first so ancestor walks never cross the
            # departed node
            self.nodes[orphan].parent = PRODUCER
            self._redepth(orphan)
        for orphan in orphans:
            inside = set(self._subtree(orphan))
            candidates = [pid for pid in self._attach_candidates() if pid not in inside]
            if candidates:
                parent = min(candidates, key=lambda pid: (self._depth[pid], pid))
                self.nodes[parent].children.append(orphan)
                self.nodes[orphan].parent = parent
                self._redepth(orphan)
                self._walk(parent, gained=self.summaries[orphan].claimed_keys())
        return orphans

    def check_invariants(self) -> list[str]:
        """Structural violations and index drift, empty when healthy."""
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
                if self._depth.get(pid) != len(trail):
                    problems.append(f"cached depth of {pid} differs from a recount")
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
            elif self.summaries[pid].counts != expected.counts:
                problems.append(f"summary reference counts at {pid} differ from a recount")
        recount: dict[int, set[int]] = {}
        for pid, node in self.nodes.items():
            for chunk_id in node.store:
                recount.setdefault(chunk_id, set()).add(pid)
        for chunk_id in sorted(recount.keys() | self._holders.keys()):
            if recount.get(chunk_id) != self._holders.get(chunk_id):
                problems.append(f"chunk {chunk_id} holders differ from a recount")
        return problems

    # -- summaries ----------------------------------------------------------

    def _recompute_summary(self, peer_id: int):
        """Rebuild by union from the stores: the oracle the counts are audited against."""
        node = self.nodes[peer_id]
        children = [self.summaries[c] for c in node.children]
        return self.summaries[peer_id].build(node.store, children)

    def _unlist(self, chunk_id: int, peer_id: int) -> None:
        pids = self._holders[chunk_id]
        pids.remove(peer_id)
        if not pids:
            del self._holders[chunk_id]

    def _walk(self, peer_id: int, gained=(), lost=()) -> None:
        """Count keys gained and lost at a node and push its flips rootward.

        Stops at the first node whose claims do not change. Every
        changed node under a non-producer parent ships its new summary,
        so claims and traffic match a rebuild by union along the same
        path.
        """
        cursor = peer_id
        while cursor != PRODUCER:
            summary = self.summaries[cursor]
            if gained:
                gained = summary.add(gained)
            if lost:
                lost = summary.remove(lost)
            if not gained and not lost:
                return
            cursor = self.nodes[cursor].parent
            if cursor != PRODUCER:
                self.summary_traffic_bytes += summary.size_bytes()

    def update_summary(self, peer_id: int, added=(), removed=()) -> None:
        """Store `added` and drop `removed` (disjoint) at the node, then push
        the change rootward in one walk; held adds and absent removals are no-ops."""
        store = self.nodes[peer_id].store
        added, removed = set(added) - store, store & set(removed)
        store |= added
        store -= removed
        for chunk_id in added:
            self._holders.setdefault(chunk_id, set()).add(peer_id)
        for chunk_id in removed:
            self._unlist(chunk_id, peer_id)
        keys_of = self.summaries[peer_id].keys_of
        self._walk(peer_id, [key for chunk_id in added for key in keys_of(chunk_id)],
                   [key for chunk_id in removed for key in keys_of(chunk_id)])

    def replica_count(self, chunk_id: int) -> int:
        return len(self._holders.get(chunk_id, ()))

    def replica_counts(self, chunk_ids) -> list[int]:
        """`replica_count` of each chunk, in the order given."""
        holders = self._holders
        return [len(holders.get(chunk_id, ())) for chunk_id in chunk_ids]

    def holders(self, chunk_id: int) -> list[int]:
        return sorted(self._holders.get(chunk_id, ()))

    # -- diffusion and pinning ----------------------------------------------

    def _store(self, peer_ids: list[int], chunk_id: int) -> list[int]:
        """Store and index a chunk on each node; returns the nodes that
        did not hold it yet, whose summaries must still hear of it."""
        nodes = self.nodes
        fresh = []
        for pid in peer_ids:
            store = nodes[pid].store
            if chunk_id not in store:  # pinning a held chunk changes nothing
                store.add(chunk_id)
                fresh.append(pid)
        if fresh:
            self._holders.setdefault(chunk_id, set()).update(fresh)
        return fresh

    def _deepest(self, count: int, skip=()) -> list[int]:
        """Up to `count` nodes with spare storage outside `skip`, deepest
        first, ties to the lowest peer id."""
        order = self._by_depth
        if order is None:
            depth = self._depth
            order = self._by_depth = sorted(self.nodes, key=lambda pid: (-depth[pid], pid))
        nodes = self.nodes
        picked: list[int] = []
        for pid in order:
            if len(picked) >= count:
                break
            n = nodes[pid]
            if pid not in skip and len(n.store) < n.storage_capacity:
                picked.append(pid)
        return picked

    def diffuse_chunk(self, chunk_id: int, k_rep: int) -> DiffusionResult:
        """Pin a fresh chunk on k_rep nodes, deepest candidates first."""
        pinned = self._deepest(k_rep)
        for pid in self._store(pinned, chunk_id):
            self._walk(pid, self.summaries[pid].keys_of(chunk_id))
        return DiffusionResult(pinned=pinned, deficit=max(0, k_rep - len(pinned)))

    def unpin_all(self, peer_id: int) -> set[int]:
        """Called on departure before detach; returns what the peer held.

        The empty store is published at once: the peer leaves the holders
        index and its summary stops claiming the chunks.
        """
        held = set(self.nodes[peer_id].store)
        self.update_summary(peer_id, removed=held)
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
        chunk_ids: list[int],
        k_rep: int,
        producer_archive: bool,
    ) -> EmergencyResult:
        """Top each chunk's replicas back up to k_rep (or to what the
        sector can hold), one distinct chunk id at a time in ascending order.

        A representant fetches a chunk from its lowest-id remaining
        holder, or from the producer's archive when that is enabled;
        with neither, the chunk is gone for good and said so. With
        exact summaries the pins of all chunks reach them in one
        rootward pass; a Bloom filter hears each pin as it is made.
        """
        holders = self._holders
        exact = self.summary_mode == "exact"
        new_pins: dict[int, list[int]] = {}
        fetched_from: dict[int, int] = {}
        lost: list[int] = []
        gained: dict[int, list[int]] = {}  # node -> chunks it now counts, in order
        for chunk_id in sorted(chunk_ids):
            held_by = holders.get(chunk_id, ())
            if held_by:
                fetched_from[chunk_id] = min(held_by)
            elif producer_archive:
                fetched_from[chunk_id] = PRODUCER
            else:
                lost.append(chunk_id)
                continue
            # nothing pinnable is no loss: a holder or the archive still has it
            pins = self._deepest(k_rep - len(held_by), skip=held_by)
            if not pins:
                continue
            new_pins[chunk_id] = pins
            for pid in self._store(pins, chunk_id):
                if exact:
                    gained.setdefault(pid, []).append(chunk_id)
                else:
                    self._walk(pid, self.summaries[pid].keys_of(chunk_id))
        if gained:
            self._walk_gains(gained)
        return EmergencyResult(new_pins, fetched_from, lost)

    def _walk_gains(self, arriving: dict[int, list[int]]) -> None:
        """Count the chunks each node gained in exact summaries and push
        the flips rootward in one pass, deepest nodes first, charging the
        traffic of the per-chunk walks (see the module docstring).
        `arriving` (node -> new chunks) also takes the children's flips."""
        depth, nodes, summaries = self._depth, self.nodes, self.summaries
        levels: dict[int, list[int]] = {}  # depth -> nodes with arrivals
        for pid in arriving:
            levels.setdefault(depth[pid], []).append(pid)
        traffic = 0
        for level in range(max(levels), 0, -1):
            for pid in levels.pop(level, ()):
                summary = summaries[pid]
                before = summary.size_bytes()
                up = summary.add(arriving.pop(pid))
                parent = nodes[pid].parent
                if not up or parent == PRODUCER:
                    continue
                n = len(up)
                traffic += n * before + 8 * n * (n + 1) // 2
                above = arriving.get(parent)
                if above is None:
                    arriving[parent] = up
                    levels.setdefault(level - 1, []).append(parent)
                else:
                    above.extend(up)
        self.summary_traffic_bytes += traffic
