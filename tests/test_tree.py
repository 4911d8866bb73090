import copy
import random

import pytest

from dataclasses import dataclass, field

from ground_truth import (depth_of, holders, per_chunk_emergency_replicate, root_claims,
                          tree_depth, two_pass_departure, unpin_all)
from tssim.tree import (
    BloomSummary,
    EmergencyResult,
    ExactSummary,
    SectorTree,
    _bloom_positions,
)
from tssim.engine import PRODUCER


def chain(depths, **kw):
    """Tree 0-1-2-... as one descending chain (fanout 1)."""
    t = SectorTree(fanout=1, **kw)
    for pid in range(depths):
        t.attach(pid)
    return t


# -- structure ---------------------------------------------------------------

def test_attach_prefers_shallow_then_lowest_id():
    t = SectorTree(fanout=2)
    t.attach(0)
    t.attach(2)
    t.attach(1)
    assert t.nodes[2].parent == 0
    assert t.nodes[1].parent == 0
    t.attach(3)  # node 0 is full; 1 and 2 tie on depth, 1 has the lower id
    assert t.nodes[3].parent == 1
    t.attach(4)
    assert t.nodes[4].parent == 1
    t.attach(5)  # 1 is full now
    assert t.nodes[5].parent == 2
    t.attach(6)  # 2 has room, but 3 is deeper
    assert t.nodes[6].parent == 2
    t.attach(7)  # depth 2 is full; 3 to 6 tie on depth, 3 has the lowest id
    assert t.nodes[7].parent == 3


def test_depths_are_producer_rooted():
    t = chain(3)
    assert t.nodes[0].depth == 1
    assert t.nodes[2].depth == 3
    assert tree_depth(t) == 3


def test_detach_leaf_keeps_tree_sound():
    t = chain(4)
    orphans = t.detach(3)
    assert orphans == []
    assert t.check_invariants() == []
    assert 3 not in t.nodes


def test_detach_internal_reattaches_orphans():
    t = SectorTree(fanout=2)
    for pid in range(7):
        t.attach(pid)  # perfect binary tree of depth 3
    assert tree_depth(t) == 3
    orphans = t.detach(1)
    assert sorted(orphans) == [3, 4]
    assert t.check_invariants() == []
    assert set(t.nodes) == {0, 2, 3, 4, 5, 6}
    for orphan in (3, 4):
        assert t.nodes[orphan].parent != 1


def test_detach_root_promotes_or_reparents():
    t = chain(3)
    t.update_summary(2, added=[11])
    t.detach(0)
    assert t.check_invariants() == []
    assert root_claims(t, 11)


def test_detach_sole_parent_child_pair():
    t = chain(2)
    orphans = t.detach(0)
    assert orphans == [1]
    assert t.nodes[1].parent == PRODUCER
    assert t.check_invariants() == []


# -- summaries ----------------------------------------------------------------

def test_exact_summary_union():
    a = ExactSummary.build({1, 2}, [])
    b = ExactSummary.build({3}, [a])
    assert b.claims(1) and b.claims(3)
    assert not b.claims(4)
    assert a.size_bytes() == 16


def test_summary_propagates_to_root():
    t = chain(4)
    t.update_summary(3, added=[42])
    for pid in range(4):
        assert t.nodes[pid].summary.claims(42)
    assert root_claims(t, 42)
    assert not root_claims(t, 43)


def test_summary_rebuild_after_unpin():
    t = chain(3)
    t.update_summary(2, added=[5])
    t.update_summary(2, removed=[5])
    assert not root_claims(t, 5)


def test_summary_never_misses_stored_chunks():
    rng = random.Random("summary-churn:1")
    for mode in ("exact", "bloom"):
        t = SectorTree(fanout=2, summary_mode=mode)
        for pid in range(9):
            t.attach(pid)
        for _ in range(60):
            pid = rng.randrange(9)
            chunk = rng.randrange(30)
            if rng.random() < 0.6:
                t.update_summary(pid, added=[chunk])
            else:
                t.update_summary(pid, removed=[chunk])
        for pid, node in t.nodes.items():
            cursor = pid
            while cursor != PRODUCER:
                for chunk in node.store:
                    assert t.nodes[cursor].summary.claims(chunk)
                cursor = t.nodes[cursor].parent


def test_bloom_false_positive_rate_is_small():
    filt = BloomSummary(bits=1024, hashes=3)
    stored = set(range(100))
    filt = filt.build(stored, [])
    assert all(filt.claims(c) for c in stored)  # never a false negative
    false_hits = sum(1 for c in range(1000, 11000) if filt.claims(c))
    # load factor 100 ids in 1024 bits with 3 probes: expect roughly 1.6%
    assert 0 < false_hits < 500
    assert filt.size_bytes() == 128


def test_bloom_cannot_forget_but_rebuild_can():
    filt = BloomSummary(bits=64, hashes=2)
    filt = filt.build({7}, [])
    assert filt.claims(7)
    # the tree forgets by dropping the chunk's counted bits on update
    t = chain(2, summary_mode="bloom", bloom_bits=64, bloom_hashes=2)
    t.update_summary(1, added=[7])
    assert root_claims(t, 7)
    t.update_summary(1, removed=[7])
    assert not root_claims(t, 7)


def test_bloom_chain_forgets_a_removed_chunk():
    # 256 bits, 2 hashes: chunk 7's bits are set by no other chunk here
    t = chain(4, summary_mode="bloom", bloom_bits=256, bloom_hashes=2)
    others = {1, 2, 3}
    t.update_summary(3, added={7} | others)
    t.update_summary(1, added=others)
    mask = BloomSummary(256, 2).build({7}, []).array
    rest = BloomSummary(256, 2).build(others, []).array
    assert mask & rest == 0
    assert all(t.nodes[pid].summary.claims(7) for pid in range(4))
    t.update_summary(3, removed=[7])
    assert not any(t.nodes[pid].summary.claims(7) for pid in range(4))
    assert all(t.nodes[pid].summary.claims(c) for pid in range(4) for c in others)


def test_bloom_shape_validation():
    a = BloomSummary(bits=64, hashes=2)
    b = BloomSummary(bits=128, hashes=2)
    with pytest.raises(ValueError):
        a.build(set(), [b])


def test_summary_traffic_accrues_on_change_only():
    t = chain(3)
    t.summary_traffic_bytes = 0
    t.update_summary(2, added=[1])
    first = t.summary_traffic_bytes
    assert first > 0
    t.update_summary(2)  # nothing changed
    assert t.summary_traffic_bytes == first


def tree_of_two_holders(mode):
    """Seven nodes, fanout 2: diffusion pins chunks 0..5 on leaves 3 and 4."""
    t = SectorTree(fanout=2, summary_mode=mode, bloom_bits=64, bloom_hashes=2)
    for pid in range(7):
        t.attach(pid)
    for chunk in range(6):
        t.diffuse_chunk(chunk, k_rep=2)
    assert holders(t.nodes, 0) == [3, 4]
    return t


def index_drift(tree):
    """The tree's holders index against a recount of its stores."""
    return tree.holders.drift((pid, node.store) for pid, node in tree.nodes.items())


def counting_walks(t):
    walks = []
    walk = t._walk

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    t._walk = counted
    return walks


@pytest.mark.parametrize("mode", ["exact", "bloom"])
def test_update_summary_ignores_held_adds_and_absent_removals(mode):
    t = tree_of_two_holders(mode)
    traffic = t.summary_traffic_bytes
    counts = {pid: dict(node.summary.counts) for pid, node in t.nodes.items()}
    walks = counting_walks(t)
    t.update_summary(3, added=[0, 5])  # both held already
    t.update_summary(3, removed=[9])  # never held
    t.update_summary(5, removed=[0])  # held elsewhere, not here
    # each call reaches the walk with nothing to count, so it stops at once
    assert walks == [(3, [], []), (3, [], []), (5, [], [])]
    assert t.summary_traffic_bytes == traffic
    assert {pid: node.summary.counts for pid, node in t.nodes.items()} == counts
    assert t.nodes[3].store == set(range(6)) and t.nodes[5].store == set()
    assert t.check_invariants() == []
    assert index_drift(t) == []


@pytest.mark.parametrize("mode, before, after", [("exact", 504, 624),
                                                 ("bloom", 192, 208)])
def test_update_summary_adds_and_removes_in_one_walk(mode, before, after):
    # the figures are those of the hand edit {20, 21} in, 0 out, at node 3,
    # then one update_summary(3), from before the edit became an argument
    t = tree_of_two_holders(mode)
    assert t.summary_traffic_bytes == before
    walks = counting_walks(t)
    t.update_summary(3, added=[20, 21], removed=[0])
    assert len(walks) == 1
    assert t.summary_traffic_bytes == after
    assert t.nodes[3].store == {1, 2, 3, 4, 5, 20, 21}
    assert holders(t.nodes, 0) == [4] and holders(t.nodes, 20) == [3]
    assert root_claims(t, 20) and root_claims(t, 0)
    assert t.check_invariants() == []
    assert index_drift(t) == []


# -- diffusion ----------------------------------------------------------------

def test_diffuse_pins_deepest_first():
    t = chain(3)
    assert t.diffuse_chunk(0, k_rep=2) == [2, 1]
    assert t.replica_count(0) == 2
    assert root_claims(t, 0)


def test_diffuse_reports_deficit_when_storage_short():
    t = SectorTree(fanout=2)
    t.attach(0, storage_capacity=1)
    t.attach(1, storage_capacity=1)
    assert len(t.diffuse_chunk(9, k_rep=3)) == 2
    assert t.diffuse_chunk(10, k_rep=1) == []  # both nodes are full now


# -- routing -------------------------------------------------------------------

def test_route_local_hit_costs_nothing():
    t = chain(3)
    t.update_summary(1, added=[8])
    out = t.route_request(entry=1, chunk_id=8)
    assert out.served_by == 1
    assert out.hops == 0


def test_route_descends_to_depth_three_leaf():
    t = chain(4)
    t.update_summary(3, added=[5])
    out = t.route_request(entry=0, chunk_id=5)
    assert out.served_by == 3
    assert out.hops == 3


def test_route_absent_chunk_climbs_without_detours():
    t = chain(4)
    out = t.route_request(entry=3, chunk_id=99)
    assert out.served_by is None
    assert out.hops == 3  # straight up to the root, nothing else


def test_route_matches_exhaustive_scan_on_random_trees():
    rng = random.Random("route-check:7")
    for trial in range(30):
        t = SectorTree(fanout=rng.randrange(1, 4))
        n = rng.randrange(1, 13)
        for pid in range(n):
            t.attach(pid)
        for _ in range(n):
            t.update_summary(rng.randrange(n), added=[rng.randrange(8)])
        depth_bound = 2 * tree_depth(t)
        for chunk in range(8):
            entry = rng.randrange(n)
            out = t.route_request(entry, chunk)
            if holders(t.nodes, chunk):
                assert out.served_by is not None
                assert chunk in t.nodes[out.served_by].store
                assert out.hops <= depth_bound
            else:
                assert out.served_by is None


def test_route_survives_saturated_bloom_filters():
    t = chain(5, summary_mode="bloom", bloom_bits=8, bloom_hashes=1)
    for pid in range(5):
        t.update_summary(pid, added=[pid + 100])
    t.update_summary(4, added=[7])
    out = t.route_request(entry=0, chunk_id=7)
    assert out.served_by == 4  # found despite every filter claiming everything
    miss = t.route_request(entry=0, chunk_id=500)
    assert miss.served_by is None  # full exploration still terminates


# -- emergency replication ------------------------------------------------------

def test_emergency_tops_up_from_survivor():
    t = SectorTree(fanout=2)
    for pid in range(7):
        t.attach(pid)
    for pid in (1, 2, 3):
        t.update_summary(pid, added=[50])
    t.update_summary(2, removed=[50])
    t.update_summary(3, removed=[50])
    res = t.emergency_replicate([50], k_rep=3, producer_archive=False)
    assert res.fetched_from[50] == 1
    assert len(res.new_pins[50]) == 2
    assert res.lost == []
    assert t.replica_count(50) == 3
    assert 1 not in res.new_pins[50]  # the survivor is the source, not a new pin
    assert holders(t.nodes, 50) == sorted([1, *res.new_pins[50]])
    for pid in holders(t.nodes, 50):
        assert 50 in t.nodes[pid].store


def test_emergency_noop_when_replicas_suffice():
    t = chain(3)
    for pid in (0, 1):
        t.update_summary(pid, added=[4])
    res = t.emergency_replicate([4], k_rep=2, producer_archive=False)
    assert res.new_pins == {}
    assert res.lost == []


def test_emergency_falls_back_to_archive():
    t = chain(3)
    res = t.emergency_replicate([12], k_rep=2, producer_archive=True)
    assert res.fetched_from[12] == PRODUCER
    assert len(res.new_pins[12]) == 2
    assert res.lost == []
    assert t.replica_count(12) == 2


def test_emergency_reports_permanent_loss():
    t = chain(3)
    res = t.emergency_replicate([12], k_rep=2, producer_archive=False)
    assert res.lost == [12]
    assert res.new_pins == {}
    assert res.fetched_from == {}


def test_emergency_respects_storage_limits():
    t = SectorTree(fanout=2)
    t.attach(0, storage_capacity=1)
    t.update_summary(0, added=[1])
    res = t.emergency_replicate([2], k_rep=1, producer_archive=True)
    assert res.new_pins == {}
    assert res.lost == []  # the archive still has it


# -- churn ----------------------------------------------------------------------

def test_invariants_hold_through_churn():
    rng = random.Random("tree-churn:3")
    t = SectorTree(fanout=2)
    next_pid = 0
    alive = []
    for step in range(100):
        action = rng.random()
        if action < 0.45 or not alive:
            t.attach(next_pid)
            alive.append(next_pid)
            next_pid += 1
        elif action < 0.7:
            pid = alive.pop(rng.randrange(len(alive)))
            unpin_all(t, pid)
            t.detach(pid)
        else:
            pid = rng.choice(alive)
            t.update_summary(pid, added=[rng.randrange(20)])
        problems = t.check_invariants()
        assert problems == [], f"step {step}: {problems}"


def test_tree_validation():
    t = SectorTree()
    t.attach(0)
    with pytest.raises(ValueError):
        t.attach(0)


# -- the indexed tree against the rebuild walk -------------------------------------


@dataclass
class RebuildNode:
    peer_id: int
    parent: int  # peer id or PRODUCER
    children: list = field(default_factory=list)
    store: set = field(default_factory=set)
    storage_capacity: int = 10**9


class RebuildTree:
    """The sector tree as it was before its indices, kept as the reference.

    Every change rebuilds summaries by union along the path to the root;
    holders, replica counts and depths are recounted on each call. A
    summary is its content: a chunk set in exact mode, the filter's bit
    array in Bloom mode.
    """

    def __init__(self, fanout, summary_mode, bloom_bits, bloom_hashes):
        self.fanout = fanout
        self.exact = summary_mode == "exact"
        self.bloom_bits = bloom_bits
        self.bloom_hashes = bloom_hashes
        self.nodes = {}
        self.summaries = {}
        self.generation = {}
        self.summary_traffic_bytes = 0

    def _build(self, pid):
        node = self.nodes[pid]
        children = [self.summaries[c] for c in node.children]
        if self.exact:
            return set(node.store).union(*children)
        array = 0
        for chunk in node.store:
            for pos in _bloom_positions(chunk, self.bloom_bits, self.bloom_hashes):
                array |= 1 << pos
        for child in children:
            array |= child
        return array

    def _size(self, content):
        return 8 * len(content) if self.exact else self.bloom_bits // 8

    def _parent_for(self, orphan=None):
        """The shallowest node with spare fanout outside the orphan's
        subtree, ties to the lowest peer id; PRODUCER when none has room.
        A join and an orphan both take their parent by this rule."""
        candidates = [p for p, n in self.nodes.items() if len(n.children) < self.fanout
                      and (orphan is None or not self._in_subtree(p, orphan))]
        return min(candidates, key=lambda p: (depth_of(self, p), p), default=PRODUCER)

    def attach(self, pid, storage_capacity=10**9):
        parent = self._parent_for()
        self.nodes[pid] = RebuildNode(peer_id=pid, parent=parent,
                                      storage_capacity=storage_capacity)
        if parent != PRODUCER:
            self.nodes[parent].children.append(pid)
        self.summaries[pid] = set() if self.exact else 0
        self.generation[pid] = 0
        self.update_summary(pid)

    def detach(self, pid):
        node = self.nodes.pop(pid)
        self.summaries.pop(pid)
        if node.parent != PRODUCER and node.parent in self.nodes:
            self.nodes[node.parent].children.remove(pid)
            self.update_summary(node.parent)
        orphans = sorted(node.children)
        for orphan in orphans:
            self.nodes[orphan].parent = PRODUCER
        for orphan in orphans:
            parent = self._parent_for(orphan)
            if parent != PRODUCER:
                self.nodes[parent].children.append(orphan)
                self.nodes[orphan].parent = parent
                self.update_summary(parent)
        return orphans

    def _in_subtree(self, pid, root):
        while pid != PRODUCER:
            if pid == root:
                return True
            pid = self.nodes[pid].parent
        return False

    def update_summary(self, pid):
        cursor = pid
        while cursor != PRODUCER:
            fresh = self._build(cursor)
            if fresh == self.summaries[cursor] and self.generation[cursor] > 0:
                return
            self.generation[cursor] += 1
            self.summaries[cursor] = fresh
            parent = self.nodes[cursor].parent
            if parent != PRODUCER:
                self.summary_traffic_bytes += self._size(fresh)
            cursor = parent

    def replica_count(self, chunk):
        return sum(1 for n in self.nodes.values() if chunk in n.store)

    def diffuse_chunk(self, chunk, k_rep):
        candidates = [pid for pid, n in self.nodes.items()
                      if len(n.store) < n.storage_capacity]
        candidates.sort(key=lambda pid: (-depth_of(self, pid), pid))
        pinned = []
        for pid in candidates[:k_rep]:
            self.nodes[pid].store.add(chunk)
            pinned.append(pid)
        for pid in pinned:
            self.update_summary(pid)
        return pinned

    def unpin_all(self, pid):
        node = self.nodes[pid]
        held = set(node.store)
        node.store.clear()
        return held

    def emergency_replicate(self, chunks, k_rep, producer_archive=False):
        """The per-chunk rounds in ascending order, gathered as one result."""
        result = EmergencyResult(new_pins={}, fetched_from={}, lost=[], stored={})
        for chunk in sorted(chunks):
            new_pins, permanent_loss, source = self.emergency_replicate_one(
                chunk, k_rep, producer_archive)
            if permanent_loss:
                result.lost.append(chunk)
                continue
            result.fetched_from[chunk] = source
            if new_pins:
                result.new_pins[chunk] = new_pins
            for pid in new_pins:
                result.stored.setdefault(pid, []).append(chunk)
        return result

    def emergency_replicate_one(self, chunk, k_rep, producer_archive):
        """One chunk's round: (new pins, permanent loss, source)."""
        held = holders(self.nodes, chunk)
        if held:
            source = held[0]
        elif producer_archive:
            source = PRODUCER
        else:
            return [], True, None
        need = k_rep - len(held)
        if need <= 0 and held:
            return [], False, source
        candidates = [pid for pid, n in self.nodes.items()
                      if chunk not in n.store and len(n.store) < n.storage_capacity]
        candidates.sort(key=lambda pid: (-depth_of(self, pid), pid))
        new_pins = []
        for pid in candidates[:need if held else k_rep]:
            self.nodes[pid].store.add(chunk)
            new_pins.append(pid)
        for pid in new_pins:
            self.update_summary(pid)
        if not held and not new_pins:
            return [], not producer_archive, source
        return new_pins, False, source


def summary_content(summary, mode):
    return set(summary.counts) if mode == "exact" else summary.array


def assert_matches_rebuild(tree, ref, mode, chunks, step):
    where = f"step {step}"
    assert sorted(tree.nodes) == sorted(ref.nodes), where
    for pid, node in ref.nodes.items():
        mine = tree.nodes[pid]
        assert (mine.parent, mine.children, mine.store) == \
            (node.parent, node.children, node.store), f"{where}: node {pid}"
        assert summary_content(mine.summary, mode) == ref.summaries[pid], \
            f"{where}: summary of {pid}"
        assert mine.depth == depth_of(ref, pid), f"{where}: depth of {pid}"
    assert tree.summary_traffic_bytes == ref.summary_traffic_bytes, where
    for chunk in chunks:
        assert sorted(tree.holders.get(chunk, ())) == holders(ref.nodes, chunk), \
            f"{where}: chunk {chunk}"
        assert tree.replica_count(chunk) == ref.replica_count(chunk), where


@pytest.mark.parametrize("mode", ["exact", "bloom"])
def test_indexed_tree_matches_rebuild(mode):
    chunks = range(16)
    for trial in range(12):
        rng = random.Random(f"indexed-vs-rebuild:{mode}:{trial}")
        shape = dict(fanout=rng.randint(1, 3), summary_mode=mode,
                     bloom_bits=64, bloom_hashes=2)
        tree, ref = SectorTree(**shape), RebuildTree(**shape)
        both = (tree, ref)
        next_pid = 0
        for step in range(150):
            alive = sorted(ref.nodes)
            action = rng.random()
            if action < 0.25 or len(alive) < 2:
                capacity = rng.choice([2, 4, 10**9])
                for t in both:
                    t.attach(next_pid, storage_capacity=capacity)
                next_pid += 1
            elif action < 0.4:
                # a departure with orphans: the driver's unpin and detach,
                # or a detach of a node still holding its chunks
                pid = rng.choice(alive)
                if rng.randrange(3) < 2:
                    assert unpin_all(tree, pid) == ref.unpin_all(pid)
                    ref.update_summary(pid)  # unpin_all publishes at once
                assert tree.detach(pid) == ref.detach(pid)
            elif action < 0.48:
                pid = rng.choice(alive)
                assert unpin_all(tree, pid) == ref.unpin_all(pid)
                ref.update_summary(pid)
            elif action < 0.63:
                pid = rng.choice(alive)
                edits = [(rng.random() < 0.6, rng.choice(chunks))
                         for _ in range(rng.randint(0, 3))]
                for add, chunk in edits:  # the reference takes them by hand
                    if add:
                        ref.nodes[pid].store.add(chunk)
                    else:
                        ref.nodes[pid].store.discard(chunk)
                ref.update_summary(pid)
                last = {chunk: add for add, chunk in edits}  # the net edit
                tree.update_summary(pid, added=[c for c, add in last.items() if add],
                                    removed=[c for c, add in last.items() if not add])
            elif action < 0.85:
                # a fresh chunk, or one republished while already held
                chunk, k_rep = rng.choice(chunks), rng.randint(1, 4)
                assert tree.diffuse_chunk(chunk, k_rep) == ref.diffuse_chunk(chunk, k_rep)
            else:
                chunk, k_rep = rng.choice(chunks), rng.randint(1, 4)
                archive = rng.random() < 0.5
                assert tree.emergency_replicate([chunk], k_rep, archive) == \
                    ref.emergency_replicate([chunk], k_rep, archive)
            assert_matches_rebuild(tree, ref, mode, chunks, step)
        assert tree.check_invariants() == []
        assert index_drift(tree) == []


@pytest.mark.parametrize("mode", ["exact", "bloom"])
def test_one_pass_departure_matches_per_chunk_rounds(mode):
    # a departure as the driver makes it: unpin, detach, then one call for
    # every held chunk below k_min, against one reference round per chunk
    chunks = range(24)
    seen = {"shared node": 0, "refused pin": 0, "loss": 0, "archive": 0}
    for trial in range(40):
        rng = random.Random(f"one-pass-departure:{mode}:{trial}")
        shape = dict(fanout=rng.randint(1, 3), summary_mode=mode,
                     bloom_bits=64, bloom_hashes=2)
        tree, ref = SectorTree(**shape), RebuildTree(**shape)
        for pid in range(rng.randint(3, 16)):
            capacity = rng.choice([2, 4, 8, 10**9])
            tree.attach(pid, storage_capacity=capacity)
            ref.attach(pid, storage_capacity=capacity)
        for chunk in chunks:
            k_rep = rng.randint(1, 4)
            assert tree.diffuse_chunk(chunk, k_rep) == ref.diffuse_chunk(chunk, k_rep)
        for step in range(rng.randint(1, 5)):
            if len(ref.nodes) < 2:
                break
            pid = rng.choice(sorted(ref.nodes))
            held = unpin_all(tree, pid)
            assert held == ref.unpin_all(pid)
            ref.update_summary(pid)
            assert tree.detach(pid) == ref.detach(pid)
            k_rep = rng.randint(1, 4)
            k_min = rng.randint(1, k_rep)
            archive = rng.random() < 0.5
            short = [c for c in sorted(held) if ref.replica_count(c) < k_min]
            result = tree.emergency_replicate(short, k_rep, producer_archive=archive)
            assert result == ref.emergency_replicate(short, k_rep, archive)
            assert sorted([*result.fetched_from, *result.lost]) == short
            assert_matches_rebuild(tree, ref, mode, chunks, f"{trial}.{step}")
            pins = [p for chunk_pins in result.new_pins.values() for p in chunk_pins]
            seen["shared node"] += len(pins) > len(set(pins))
            seen["refused pin"] += sum(
                tree.replica_count(c) < min(k_rep, len(tree.nodes))
                for c in result.fetched_from)
            seen["loss"] += len(result.lost)
            seen["archive"] += list(result.fetched_from.values()).count(PRODUCER)
        assert tree.check_invariants() == []
        assert index_drift(tree) == []
    # each path of the batched call ran: a node gaining several chunks in
    # one pass, a pin refused for lack of storage, a loss and the archive
    assert all(seen.values()), seen


@pytest.mark.parametrize("mode", ["exact", "bloom"])
def test_by_node_departure_matches_the_per_chunk_reference(mode):
    # one departure's pins picked from a room count taken once, against a
    # copy of the same tree re-replicated one chunk at a time; storage is
    # small, so nodes fill while a departure is still pinning
    seen = {"filled mid-departure": 0, "pins short of k_rep": 0, "loss": 0}
    for trial in range(40):
        rng = random.Random(f"by-node-departure:{mode}:{trial}")
        tree = SectorTree(fanout=rng.randint(1, 3), summary_mode=mode,
                          bloom_bits=64, bloom_hashes=2)
        for pid in range(rng.randint(4, 14)):
            tree.attach(pid, storage_capacity=rng.choice([2, 3, 4, 6, 10**9]))
        for chunk in range(rng.randint(8, 30)):
            tree.diffuse_chunk(chunk, rng.randint(1, 3))
        for step in range(rng.randint(1, 4)):
            if len(tree.nodes) < 2:
                break
            ref = copy.deepcopy(tree)
            pid = rng.choice(sorted(tree.nodes))
            k_rep = rng.randint(1, 4)
            archive = rng.random() < 0.7
            held = sorted(unpin_all(tree, pid))
            assert sorted(unpin_all(ref, pid)) == held
            assert tree.detach(pid) == ref.detach(pid)
            result = tree.emergency_replicate(held, k_rep, producer_archive=archive)
            assert result == per_chunk_emergency_replicate(ref, held, k_rep, archive)
            for peer, node in ref.nodes.items():
                assert tree.nodes[peer].store == node.store
            assert tree.holders == ref.holders
            for peer, node in ref.nodes.items():
                assert tree.nodes[peer].summary.counts == node.summary.counts
                assert summary_content(tree.nodes[peer].summary, mode) == \
                    summary_content(node.summary, mode)
            assert tree.summary_traffic_bytes == ref.summary_traffic_bytes
            assert tree.check_invariants() == []
            assert index_drift(tree) == []
            last = max(result.new_pins, default=-1)
            seen["filled mid-departure"] += sum(
                len(tree.nodes[p].store) == tree.nodes[p].storage_capacity
                and chunks[-1] < last for p, chunks in result.stored.items())
            seen["pins short of k_rep"] += sum(
                tree.replica_count(c) < min(k_rep, len(tree.nodes))
                for c in result.fetched_from)
            seen["loss"] += len(result.lost)
    assert all(seen.values()), seen


@pytest.mark.parametrize("mode", ["exact", "bloom"])
def test_one_walk_departure_matches_the_two_pass_reference(mode):
    # a departure as the driver makes it, one update_summary walk over the
    # leaver's chunks that also picks those below k_min, against a copy
    # of the same tree taken through unpin_all, detach and replica_count;
    # storage is small, so the re-replication that follows fills nodes
    seen = {"short": 0, "not short": 0, "filled": 0}
    for trial in range(40):
        rng = random.Random(f"one-walk-departure:{mode}:{trial}")
        tree = SectorTree(fanout=rng.randint(1, 3), summary_mode=mode,
                          bloom_bits=64, bloom_hashes=2)
        for pid in range(rng.randint(4, 14)):
            tree.attach(pid, storage_capacity=rng.choice([2, 3, 4, 6, 10**9]))
        for chunk in range(rng.randint(8, 30)):
            tree.diffuse_chunk(chunk, rng.randint(1, 3))
        for step in range(rng.randint(1, 4)):
            if len(tree.nodes) < 2:
                break
            ref = copy.deepcopy(tree)
            pid = rng.choice(sorted(tree.nodes))
            k_rep = rng.randint(1, 4)
            k_min = rng.randint(1, k_rep)
            archive = rng.random() < 0.7
            held = len(tree.nodes[pid].store)
            short = tree.update_summary(pid, removed=sorted(tree.nodes[pid].store),
                                        k_min=k_min)
            tree.detach(pid)
            assert short == two_pass_departure(ref, pid, k_min)
            result = tree.emergency_replicate(short, k_rep, producer_archive=archive)
            assert result == ref.emergency_replicate(short, k_rep, producer_archive=archive)
            for peer, node in ref.nodes.items():
                assert tree.nodes[peer].store == node.store
            assert tree.holders == ref.holders
            for peer, node in ref.nodes.items():
                assert tree.nodes[peer].summary.counts == node.summary.counts
                assert summary_content(tree.nodes[peer].summary, mode) == \
                    summary_content(node.summary, mode)
            assert tree.summary_traffic_bytes == ref.summary_traffic_bytes
            assert tree.check_invariants() == []
            assert index_drift(tree) == []
            seen["short"] += len(short)
            seen["not short"] += held - len(short)
            seen["filled"] += sum(len(tree.nodes[p].store) == tree.nodes[p].storage_capacity
                                  for p in result.stored)
    assert all(seen.values()), seen


def test_check_invariants_audits_the_indices():
    t = SectorTree(fanout=2)
    for pid in range(5):
        t.attach(pid)
    t.diffuse_chunk(3, k_rep=2)
    assert t.check_invariants() == []
    t.nodes[4].depth += 1
    t.nodes[0].summary.counts[3] += 1
    assert t.check_invariants() == [
        "cached depth of 4 differs from a recount",
        "summary reference counts at 0 differ from a recount",
    ]


def test_check_invariants_finds_a_second_root():
    # a route that finds the root's subtree empty misses, which is sound
    # only while one node sits under the producer
    t = chain(3)
    t.nodes[1].children.remove(2)
    t.nodes[2].parent = PRODUCER
    t.nodes[2].depth = 1
    assert t.check_invariants() == ["more than one node sits under the producer"]
