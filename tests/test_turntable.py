import pytest

from tssim.turntable import Turntable, sector_of_chunk


def test_sector_of_chunk_rotation():
    for m in (1, 3, 4, 12):
        assert sector_of_chunk(0, m) == 0
        assert sector_of_chunk(m, m) == 0
        assert sector_of_chunk(2 * m, m) == 0
        assert sector_of_chunk(m - 1, m) == m - 1
    assert sector_of_chunk(7, 3) == 1


def test_sector_of_chunk_validation():
    with pytest.raises(ValueError):
        sector_of_chunk(-1, 4)


def test_join_balances_sectors():
    tt = Turntable(m=3)
    for pid in range(7):
        tt.join(pid)
    sizes = [len(s.members) for s in tt.sectors]
    assert sizes == [3, 2, 2]
    assert tt.sector_of_peer[0] == 0
    assert tt.sector_of_peer[1] == 1
    assert tt.sector_of_peer[2] == 2
    assert tt.sector_of_peer[3] == 0  # ties resolved toward the lowest index


def test_every_peer_in_exactly_one_sector():
    tt = Turntable(m=4)
    for pid in range(10):
        tt.join(pid)
    seen = set()
    for s in tt.sectors:
        assert not (seen & set(s.members))
        seen |= set(s.members)
    assert seen == set(range(10))
    tt.leave(3)
    assert 3 not in tt.sector_of_peer


def test_representants_are_longest_lived():
    tt = Turntable(m=1, r=2)
    for pid in (5, 9, 2, 7):
        tt.join(pid)
    assert tt.representants_of(0) == [5, 9]
    tt.leave(5)
    assert tt.representants_of(0) == [9, 2]


def test_publish_rotation_pattern():
    tt = Turntable(m=4, r=1)
    for pid in range(8):
        tt.join(pid)
    pattern = []
    for chunk in range(8):
        sends = tt.publish_chunk(chunk)
        assert len(sends) == 1
        rep = sends[0][0]
        pattern.append(tt.sector_of_peer[rep])
    assert pattern == [0, 1, 2, 3, 0, 1, 2, 3]


def test_publish_to_empty_sector_retains():
    tt = Turntable(m=4)
    tt.join(0)  # lands in sector 0
    sends = tt.publish_chunk(1)  # sector 1 is empty
    assert sends == []
    assert tt.producer_retained == {1: [1]}
    assert tt.clear_retained(1) == [1]
    assert tt.producer_retained == {}


def test_publish_fans_out_to_each_representant():
    tt = Turntable(m=2, r=2)
    for pid in range(6):
        tt.join(pid)
    sends = tt.publish_chunk(0)
    assert len(sends) == 2
    assert all(chunk == 0 for _, chunk in sends)


def test_route_hookup_requester_inside_sector_enters_at_itself():
    tt = Turntable(m=3, r=2)
    for pid in range(6):
        tt.join(pid)  # pid i -> sector i % 3
    # peer 4 is not a representant of sector 1, yet enters there for free
    assert tt.representants_of(1) == [1, 4]
    assert tt.route_hookup(4, 7) == (1, 4, 0)
    assert tt.route_hookup(1, 1) == (1, 1, 0)


def test_route_hookup_empty_sector_has_no_entry():
    tt = Turntable(m=3)
    tt.join(0)  # sectors 1 and 2 stay empty
    assert tt.route_hookup(0, 5) is None
    assert tt.route_hookup(7, 4) is None


def test_sequential_requests_walk_sectors():
    tt = Turntable(m=4, r=2)
    for pid in range(8):
        tt.join(pid)  # pid i -> sector i % 4; representants i and i + 4
    tt.leave(3)  # the outsider: it belongs to no sector
    for c in range(7):
        first = sector_of_chunk(c, 4)
        second = sector_of_chunk(c + 1, 4)
        assert second == (first + 1) % 4
        rep = tt.representants_of(first)[0]
        assert tt.route_hookup(3, c) == (first, rep, 1)


def test_handoff_direct_serve():
    tt = Turntable(m=3, r=1)
    for pid in range(6):
        tt.join(pid)  # pid 0,3 -> sector 0; 1,4 -> sector 1; 2,5 -> sector 2
    tt.refresh_handoff_link(0, 4)  # peer 0 (sector 0) knows peer 4 (sector 1)
    candidate = tt.offer_handoff(0, next_chunk=4, stores=lambda p, c: p == 4)
    assert candidate == 4
    assert tt.stale_handoffs == 0


def test_handoff_without_link_falls_back():
    tt = Turntable(m=3, r=1)
    for pid in range(3):
        tt.join(pid)
    assert tt.offer_handoff(0, next_chunk=1, stores=lambda p, c: True) is None


def test_handoff_stale_target_counted():
    tt = Turntable(m=3, r=1)
    for pid in range(6):
        tt.join(pid)
    tt.refresh_handoff_link(0, 4)
    tt.leave(4)
    candidate = tt.offer_handoff(0, next_chunk=4, stores=lambda p, c: True)
    assert candidate is None
    assert tt.stale_handoffs == 1
    # link to a peer that dropped the chunk is also stale
    tt.refresh_handoff_link(0, 1)
    candidate = tt.offer_handoff(0, next_chunk=4, stores=lambda p, c: False)
    assert candidate is None
    assert tt.stale_handoffs == 2


def test_handoff_purges_stale_links_in_place():
    tt = Turntable(m=2, r=1)
    for pid in range(8):
        tt.join(pid)  # even -> sector 0, odd -> sector 1
    tt.leave(1)
    links = [1, 3, 5, 7]  # departed, dropped the chunk, live, other
    tt.handoff_links[0] = links
    asked = []

    def stores(peer, chunk):
        asked.append((peer, chunk))
        return peer != 3

    assert tt.offer_handoff(0, next_chunk=1, stores=stores) == 5
    assert tt.stale_handoffs == 2
    assert tt.handoff_links[0] is links
    assert links == [5, 7]
    assert asked == [(3, 1), (5, 1)]  # the departed link is dropped unasked


def test_handoff_links_capped_and_scoped():
    tt = Turntable(m=2, r=1)
    for pid in range(8):
        tt.join(pid)  # even -> sector 0, odd -> sector 1
    tt.refresh_handoff_link(0, 1)
    tt.refresh_handoff_link(0, 3)
    tt.refresh_handoff_link(0, 5)
    assert len(tt.handoff_links[0]) == 2
    assert tt.handoff_links[0] == [5, 3]  # most recent first
    tt.refresh_handoff_link(0, 2)  # same sector as peer 0: refused
    assert 2 not in tt.handoff_links[0]


def test_turntable_validation():
    tt = Turntable(m=2)
    tt.join(1)
    with pytest.raises(ValueError):
        tt.join(1)
