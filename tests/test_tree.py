import random

import pytest

from tssim.tree import BloomSummary, ExactSummary, SectorTree
from tssim.engine import PRODUCER


def chain(depths, **kw):
    """Tree 0-1-2-... as one descending chain (fanout 1)."""
    t = SectorTree(fanout=1, **kw)
    for pid in range(depths):
        t.attach(pid)
    return t


# -- structure ---------------------------------------------------------------

def test_attach_prefers_shallow_then_capacity():
    t = SectorTree(fanout=2)
    t.attach(0)
    t.attach(1, upload_capacity=1)
    t.attach(2, upload_capacity=5)
    assert t.nodes[1].parent == 0
    assert t.nodes[2].parent == 0
    t.attach(3)  # node 0 is full; 1 and 2 tie on depth, 2 uploads faster
    assert t.nodes[3].parent == 2
    t.attach(4)
    assert t.nodes[4].parent == 2
    t.attach(5)  # 2 is full now
    assert t.nodes[5].parent == 1


def test_depths_are_producer_rooted():
    t = chain(3)
    assert t.depth_of(0) == 1
    assert t.depth_of(2) == 3
    assert t.depth() == 3
    t2 = SectorTree()
    t2.attach(7, as_root=True)
    t2.attach(9, as_root=True)
    assert t2.roots() == [7, 9]
    assert t2.depth_of(9) == 1


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
    assert t.depth() == 3
    orphans = t.detach(1)
    assert sorted(orphans) == [3, 4]
    assert t.check_invariants() == []
    assert set(t.nodes) == {0, 2, 3, 4, 5, 6}
    for orphan in (3, 4):
        assert t.nodes[orphan].parent != 1


def test_detach_root_promotes_or_reparents():
    t = chain(3)
    t.nodes[2].store.add(11)
    t.update_summary(2)
    t.detach(0)
    assert t.check_invariants() == []
    assert t.root_claims(11)


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
    t.nodes[3].store.add(42)
    t.update_summary(3)
    for pid in range(4):
        assert t.summaries[pid].claims(42)
    assert t.root_claims(42)
    assert not t.root_claims(43)


def test_summary_rebuild_after_unpin():
    t = chain(3)
    t.nodes[2].store.add(5)
    t.update_summary(2)
    t.nodes[2].store.discard(5)
    t.update_summary(2)
    assert not t.root_claims(5)


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
                t.nodes[pid].store.add(chunk)
            else:
                t.nodes[pid].store.discard(chunk)
            t.update_summary(pid)
        for pid, node in t.nodes.items():
            cursor = pid
            while cursor != PRODUCER:
                for chunk in node.store:
                    assert t.summaries[cursor].claims(chunk)
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
    # the filter has no removal; forgetting happens by recomputation
    t = chain(2, summary_mode="bloom", bloom_bits=64, bloom_hashes=2)
    t.nodes[1].store.add(7)
    t.update_summary(1)
    assert t.root_claims(7)
    t.nodes[1].store.discard(7)
    t.update_summary(1)
    assert not t.root_claims(7)


def test_bloom_shape_validation():
    with pytest.raises(ValueError):
        BloomSummary(bits=4)
    with pytest.raises(ValueError):
        BloomSummary(bits=64, hashes=0)
    a = BloomSummary(bits=64, hashes=2)
    b = BloomSummary(bits=128, hashes=2)
    with pytest.raises(ValueError):
        a.build(set(), [b])


def test_summary_traffic_accrues_on_change_only():
    t = chain(3)
    t.summary_traffic_bytes = 0
    t.nodes[2].store.add(1)
    t.update_summary(2)
    first = t.summary_traffic_bytes
    assert first > 0
    t.update_summary(2)  # nothing changed
    assert t.summary_traffic_bytes == first


# -- diffusion ----------------------------------------------------------------

def test_diffuse_pins_deepest_first():
    t = chain(3)
    res = t.diffuse_chunk(0, k_rep=2)
    assert res.pinned == [2, 1]
    assert res.deficit == 0
    assert t.replica_count(0) == 2
    assert t.root_claims(0)


def test_diffuse_reports_deficit_when_storage_short():
    t = SectorTree(fanout=2)
    t.attach(0, storage_capacity=1)
    t.attach(1, storage_capacity=1)
    res = t.diffuse_chunk(9, k_rep=3)
    assert len(res.pinned) == 2
    assert res.deficit == 1
    res2 = t.diffuse_chunk(10, k_rep=1)  # both nodes are full now
    assert res2.pinned == []
    assert res2.deficit == 1


def test_unpin_all_returns_holdings():
    t = chain(2)
    t.nodes[1].store.update({3, 4})
    held = t.unpin_all(1)
    assert held == {3, 4}
    assert t.nodes[1].store == set()


# -- routing -------------------------------------------------------------------

def test_route_local_hit_costs_nothing():
    t = chain(3)
    t.nodes[1].store.add(8)
    t.update_summary(1)
    out = t.route_request(entry=1, chunk_id=8)
    assert out.served_by == 1
    assert out.hops == 0


def test_route_descends_to_depth_three_leaf():
    t = chain(4)
    t.nodes[3].store.add(5)
    t.update_summary(3)
    out = t.route_request(entry=0, chunk_id=5)
    assert out.served_by == 3
    assert out.hops == 3


def test_route_absent_chunk_climbs_without_detours():
    t = chain(4)
    out = t.route_request(entry=3, chunk_id=99)
    assert out.served_by is None
    assert out.missing
    assert out.hops == 3  # straight up to the representant, nothing else


def test_route_pivots_between_representants():
    t = SectorTree(fanout=1)
    t.attach(0, as_root=True)
    t.attach(1)  # chains under 0
    t.attach(2, as_root=True)
    t.attach(3)
    assert t.nodes[3].parent in (1, 2)
    t.nodes[0].store.add(6)
    t.update_summary(0)
    out = t.route_request(entry=2, chunk_id=6)
    assert out.served_by == 0
    assert out.hops == 1  # root to sibling root


def test_route_matches_exhaustive_scan_on_random_trees():
    rng = random.Random("route-check:7")
    for trial in range(30):
        t = SectorTree(fanout=rng.randrange(1, 4))
        n = rng.randrange(1, 13)
        for pid in range(n):
            t.attach(pid, upload_capacity=rng.randrange(1, 4))
        for _ in range(n):
            t.nodes[rng.randrange(n)].store.add(rng.randrange(8))
            t.update_summary(rng.randrange(n))
        for pid in range(n):
            t.update_summary(pid)
        depth_bound = 2 * t.depth()
        for chunk in range(8):
            entry = rng.randrange(n)
            out = t.route_request(entry, chunk)
            if t.holders(chunk):
                assert out.served_by is not None
                assert chunk in t.nodes[out.served_by].store
                assert out.hops <= depth_bound
            else:
                assert out.served_by is None


def test_route_survives_saturated_bloom_filters():
    t = chain(5, summary_mode="bloom", bloom_bits=8, bloom_hashes=1)
    for pid in range(5):
        t.nodes[pid].store.add(pid + 100)
        t.update_summary(pid)
    t.nodes[4].store.add(7)
    t.update_summary(4)
    out = t.route_request(entry=0, chunk_id=7)
    assert out.served_by == 4  # found despite every filter claiming everything
    miss = t.route_request(entry=0, chunk_id=500)
    assert miss.served_by is None  # full exploration still terminates


def test_route_from_unknown_entry():
    t = chain(2)
    out = t.route_request(entry=77, chunk_id=0)
    assert out.served_by is None


# -- emergency replication ------------------------------------------------------

def test_emergency_tops_up_from_survivor():
    t = SectorTree(fanout=2)
    for pid in range(7):
        t.attach(pid)
    for pid in (1, 2, 3):
        t.nodes[pid].store.add(50)
        t.update_summary(pid)
    t.nodes[2].store.discard(50)
    t.nodes[3].store.discard(50)
    t.update_summary(2)
    t.update_summary(3)
    res = t.emergency_replicate(50, k_rep=3)
    assert res.fetched_from == 1
    assert len(res.new_pins) == 2
    assert not res.permanent_loss
    assert t.replica_count(50) == 3
    assert 50 not in t.nodes[res.new_pins[0]].store or True  # pins are new holders
    for pid in res.new_pins:
        assert pid != 1


def test_emergency_noop_when_replicas_suffice():
    t = chain(3)
    t.nodes[0].store.add(4)
    t.nodes[1].store.add(4)
    res = t.emergency_replicate(4, k_rep=2)
    assert res.new_pins == []
    assert not res.permanent_loss


def test_emergency_falls_back_to_archive():
    t = chain(3)
    res = t.emergency_replicate(12, k_rep=2, producer_archive=True)
    assert res.fetched_from == PRODUCER
    assert len(res.new_pins) == 2
    assert not res.permanent_loss
    assert t.replica_count(12) == 2


def test_emergency_reports_permanent_loss():
    t = chain(3)
    res = t.emergency_replicate(12, k_rep=2, producer_archive=False)
    assert res.permanent_loss
    assert res.new_pins == []
    assert res.fetched_from is None


def test_emergency_respects_storage_limits():
    t = SectorTree(fanout=2)
    t.attach(0, storage_capacity=1)
    t.nodes[0].store.add(1)
    res = t.emergency_replicate(2, k_rep=1, producer_archive=True)
    assert res.new_pins == []
    assert not res.permanent_loss  # the archive still has it


# -- churn ----------------------------------------------------------------------

def test_invariants_hold_through_churn():
    rng = random.Random("tree-churn:3")
    t = SectorTree(fanout=2)
    next_pid = 0
    alive = []
    for step in range(100):
        action = rng.random()
        if action < 0.45 or not alive:
            t.attach(next_pid, upload_capacity=rng.randrange(1, 4))
            alive.append(next_pid)
            next_pid += 1
        elif action < 0.7:
            pid = alive.pop(rng.randrange(len(alive)))
            t.unpin_all(pid)
            t.detach(pid)
        else:
            pid = rng.choice(alive)
            t.nodes[pid].store.add(rng.randrange(20))
            t.update_summary(pid)
        problems = t.check_invariants()
        assert problems == [], f"step {step}: {problems}"


def test_tree_validation():
    with pytest.raises(ValueError):
        SectorTree(fanout=0)
    with pytest.raises(ValueError):
        SectorTree(summary_mode="magic")
    t = SectorTree()
    t.attach(0)
    with pytest.raises(ValueError):
        t.attach(0)
