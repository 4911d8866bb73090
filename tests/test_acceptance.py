"""Acceptance suite: ten checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as
they print. Each check is independent and carries its own runtime
budget where one applies.
"""

import math
import random
import time

from ground_truth import (
    SectorLawDriver,
    archive_bytes,
    archive_chunks,
    as_graph,
    brute_force_oracle,
    capacity_overloads_fast,
    check_capacity,
    check_k_coverage,
    chunks_per_day,
    holders,
    tree_depth,
    unpin_all,
)
from tssim.config import ScenarioConfig
from tssim.drivers import MeshDriver
from tssim.engine import Engine, OverlayDriver
from tssim.interval import (
    Infeasible,
    Interval,
    OverlayConstraints,
    coverage_gaps_fast,
    sweep_assign_bounds,
)
from tssim.mesh import ColorScheme, SectorMesh
from tssim.metrics import emit_report, run_scenario
from tssim.stream import StreamParams, build_timeline, chunk_duration
from tssim.tree import SectorTree
from tssim.workload import (
    PeerProfile,
    SessionEvent,
    SessionEventKind,
    generate_profiles,
    generate_sessions,
)


def verdict(ok: bool, line: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {line}")
    assert ok, line


# -- 1: capacity arithmetic ---------------------------------------------------


def test_acceptance_01_capacity_arithmetic():
    params = StreamParams()  # 500 Kbps stream, 2 MB chunks
    per_day = chunks_per_day(params)
    month_chunks = archive_chunks(params, 30)
    month_bytes = archive_bytes(params, 30)
    ok = (
        chunk_duration(params) == 32.0
        and per_day == 2700.0
        and month_chunks == 81_000.0
        and month_bytes == 162_000_000_000.0
        # the published figures round down; exact values sit within 5%
        and abs(month_chunks - 80_000) / 80_000 <= 0.05
        and abs(month_bytes - 160e9) / 160e9 <= 0.05
    )
    verdict(ok, "1 capacity arithmetic: 2700 chunks/day, "
                "81000 chunks / 162 GB per 30 days (within 5% of rounded "
                "80000 / 160 GB)")


# -- 2: sector assignment law over a full simulated day -----------------------


def test_acceptance_02_turntable_assignment_law():
    started = time.monotonic()
    horizon = 86_400.0
    stream = StreamParams()
    timeline = build_timeline(stream, horizon)
    sessions = generate_sessions(ScenarioConfig(), timeline, horizon, seed=2)
    profiles = generate_profiles(sessions, ScenarioConfig())
    driver = SectorLawDriver(ScenarioConfig(m=12))
    engine = Engine(ScenarioConfig(horizon_s=horizon, sample_period_s=3600.0),
                    driver)
    engine.run(sessions, profiles)
    elapsed = time.monotonic() - started
    ok = (driver.law_checks > 0 and driver.law_violations == 0
          and elapsed < 10.0)
    verdict(ok, f"2 assignment law: {driver.law_violations} violations over "
                f"{driver.law_checks} pinned-chunk audits in a 24 h run "
                f"({elapsed:.1f} s)")


# -- 3: tree routing against a brute-force scan -------------------------------


def build_random_tree(rng):
    n = rng.randrange(2, 101)
    tree = SectorTree(fanout=rng.randrange(2, 5), summary_mode="exact")
    tree.attach(0, storage_capacity=10_000, as_root=True)
    for pid in range(1, n):
        tree.attach(pid, storage_capacity=10_000)
    for pid in rng.sample(range(1, n), min(n // 5, n - 1)):
        tree.detach(pid)
    chunk_count = rng.randrange(1, 30)
    for chunk in range(chunk_count):
        tree.diffuse_chunk(chunk, rng.randrange(1, 4))
    for pid in sorted(tree.nodes):
        if rng.random() < 0.2:
            unpin_all(tree, pid)
            tree.update_summary(pid)
    return tree, chunk_count


def test_acceptance_03_tree_routing_oracle():
    started = time.monotonic()
    mismatches = 0
    hop_breaches = 0
    queries = 0
    for i in range(500):
        rng = random.Random(f"route-oracle:{i}")
        tree, chunk_count = build_random_tree(rng)
        members = sorted(tree.nodes)
        depth_cap = 2 * tree_depth(tree)
        for _ in range(20):
            chunk = rng.randrange(0, chunk_count + 5)
            entry = rng.choice(members)
            outcome = tree.route_request(entry, chunk)
            held_by = holders(tree.nodes, chunk)
            queries += 1
            found = outcome.served_by is not None
            if found != bool(held_by):
                mismatches += 1
            elif found and outcome.served_by not in held_by:
                mismatches += 1
            if found and outcome.hops > depth_cap:
                hop_breaches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and hop_breaches == 0 and elapsed < 30.0
    verdict(ok, f"3 tree routing oracle: {mismatches} mismatches, "
                f"{hop_breaches} hop-bound breaches over {queries} queries "
                f"on 500 random trees ({elapsed:.1f} s)")


# -- 4: emergency replication restores or declares loss -----------------------


def test_acceptance_04_emergency_replication():
    silent = 0
    losses = 0
    restorations = 0
    for i in range(100):
        rng = random.Random(f"emergency:{i}")
        n = rng.randrange(2, 13)
        k_rep = rng.randrange(2, 5)
        archive = rng.random() < 0.5
        tree = SectorTree(fanout=3)
        tree.attach(0, storage_capacity=10_000, as_root=True)
        for pid in range(1, n):
            tree.attach(pid, storage_capacity=10_000)
        chunk = 7
        pinned = tree.diffuse_chunk(chunk, k_rep)
        # churn: a random subset of holders leaves, but never the whole
        # sector, so "restore to min(k_rep, sector size)" stays meaningful
        victims = [pid for pid in pinned
                   if rng.random() < 0.7 and len(tree.nodes) > 1]
        for pid in victims:
            unpin_all(tree, pid)
            tree.update_summary(pid)
            tree.detach(pid)
        survivors_held = tree.replica_count(chunk)
        outcome = tree.emergency_replicate([chunk], k_rep,
                                           producer_archive=archive)
        after = tree.replica_count(chunk)
        expected = min(k_rep, len(tree.nodes))
        if chunk in outcome.lost:
            losses += 1
            genuine = survivors_held == 0 and not archive and after == 0
            if not genuine:
                silent += 1
        else:
            restorations += 1
            if after != expected:
                silent += 1
    ok = silent == 0 and restorations > 0 and losses > 0
    verdict(ok, f"4 emergency replication: {restorations} restorations, "
                f"{losses} declared losses, {silent} silent third states "
                f"over 100 traces")


# -- 5: mesh color law and domination rate ------------------------------------


class ColorLawDriver(MeshDriver):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pins_checked = 0
        self.color_violations = 0

    def on_audit(self, now):
        for mesh in self.structures:
            for pid in sorted(mesh.peers):
                peer = mesh.peers[pid]
                for chunk in peer.store:
                    if ((chunk, pid) in mesh.gap_pins
                            or (chunk, pid) in mesh.legacy_pins):
                        continue
                    self.pins_checked += 1
                    if mesh.scheme.chunk_color(chunk) != peer.color:
                        self.color_violations += 1
        super().on_audit(now)


def test_acceptance_05_mesh_color_law_and_domination():
    horizon = 1800.0
    stream = StreamParams()
    timeline = build_timeline(stream, horizon)
    sessions = generate_sessions(ScenarioConfig(), timeline, horizon, seed=5)
    profiles = generate_profiles(sessions, ScenarioConfig())
    driver = ColorLawDriver(ScenarioConfig(seed=5))
    engine = Engine(ScenarioConfig(horizon_s=horizon), driver)
    engine.run(sessions, profiles)

    worst_rate = 0.0
    for trial in range(3):
        scheme = ColorScheme(colors=3, sector_count=12)
        mesh = SectorMesh(scheme, random.Random(f"domination:{trial}"),
                          gossip_period=10.0, max_degree=8, k_rep=3)
        for pid in range(60):
            mesh.add_peer(pid, now=0.0, storage_capacity=10_000)
        for round_no in range(150):
            now = (round_no + 1) * 10.0
            for pid in range(60):
                mesh.gossip_round(pid, now)
        violations, scanned = mesh.domination_report()
        worst_rate = max(worst_rate, violations / scanned)

    ok = (driver.pins_checked > 0 and driver.color_violations == 0
          and worst_rate <= 0.05)
    verdict(ok, f"5 mesh color law: {driver.color_violations} violations over "
                f"{driver.pins_checked} pins; worst domination-violation "
                f"rate {worst_rate:.3f} on 60-peer/3-color meshes "
                f"(threshold 0.05)")


# -- 6: interval sweep against the exhaustive optimizer -----------------------


def test_acceptance_06_sweep_vs_oracle():
    started = time.monotonic()
    checker_failures = 0
    unsound_infeasible = 0
    divergences = 0
    ratio_list = []
    agreements = 0
    for i in range(1000):
        rng = random.Random(f"sweep-oracle:{i}")
        n = rng.randrange(1, 7)
        k = rng.randrange(1, 4)
        T = rng.randrange(0, 16)
        cap = rng.choice([1, 2, 3, math.inf])
        constraints = OverlayConstraints(k=k, T=T, default_cap=cap)
        positions = sorted(
            ((pid, rng.randrange(0, T + 1)) for pid in range(n)),
            key=lambda p: (p[1], p[0]),
        )
        swept = sweep_assign_bounds(positions, constraints)
        optimum = brute_force_oracle(positions, constraints)
        if isinstance(swept, Infeasible):
            if isinstance(optimum, Infeasible):
                continue  # genuinely impossible instance
            if n < k:
                unsound_infeasible += 1  # oracle must agree on these
            else:
                divergences += 1  # greedy anchoring dead end, measured
            continue
        if check_k_coverage(swept, constraints) or check_capacity(swept, constraints):
            checker_failures += 1
            continue
        if isinstance(optimum, Infeasible):
            unsound_infeasible += 1  # sweep built what the oracle calls impossible
            continue
        agreements += 1
        swept_len = sum(iv.r - iv.l for iv in swept)
        if swept_len < optimum:
            unsound_infeasible += 1
        ratio_list.append(swept_len / optimum if optimum else 1.0)
    elapsed = time.monotonic() - started
    ratio_list.sort()
    rate = divergences / 1000
    spread = (f"ratios min {ratio_list[0]:.2f} / median "
              f"{ratio_list[len(ratio_list) // 2]:.2f} / max "
              f"{ratio_list[-1]:.2f}" if ratio_list else "no agreements")
    ok = (checker_failures == 0 and unsound_infeasible == 0
          and agreements > 100 and elapsed < 120.0)
    verdict(ok, f"6 sweep vs oracle: {agreements} feasible agreements, "
                f"{spread}; incompleteness rate {rate:.3f} "
                f"({divergences} greedy dead ends); {checker_failures} "
                f"checker failures, {unsound_infeasible} soundness breaks "
                f"({elapsed:.1f} s)")


# -- 7: fast checkers equal the naive recount ---------------------------------


def test_acceptance_07_checker_equivalence():
    disagreements = 0
    for i in range(10_000):
        rng = random.Random(f"checkers:{i}")
        T = rng.randrange(0, 21)
        k = rng.randrange(1, 5)
        n = rng.randrange(0, 13)
        intervals = []
        for pid in range(n):
            c = rng.randrange(0, T + 1)
            l = rng.randrange(0, c + 1)
            r = rng.randrange(c, T + 3)  # sometimes past T, clamp must agree
            intervals.append(Interval(pid, l, c, r))
        caps = {pid: rng.choice([0, 1, 2, math.inf])
                for pid in range(n) if rng.random() < 0.3}
        constraints = OverlayConstraints(k=k, T=T, default_cap=2, caps=caps)
        if (sorted(check_k_coverage(intervals, constraints))
                != sorted(coverage_gaps_fast(as_graph(intervals, T), k, T))):
            disagreements += 1
        if (sorted(check_capacity(intervals, constraints))
                != sorted(capacity_overloads_fast(intervals, constraints))):
            disagreements += 1
    verdict(disagreements == 0,
            f"7 checker equivalence: {disagreements} disagreements over "
            f"10000 random interval sets")


# -- 8: pause lag increase is exactly the ceiling ------------------------------


class MoveRecorder(OverlayDriver):
    def __init__(self):
        self.moves = {}

    def on_move(self, peer_id, old_lag, new_lag, now):
        self.moves.setdefault(peer_id, []).append((old_lag, new_lag))


def test_acceptance_08_pause_lag_ceiling():
    stream = StreamParams()
    d = chunk_duration(stream)
    sessions = []
    profiles = {}
    durations = {}
    for j in range(1000):
        rng = random.Random(f"pause:{j}")
        join_at = 40_000.0 + 32.0 * j
        if rng.random() < 0.3:
            duration = 32.0 * rng.randrange(1, 16)  # exact multiples too
        else:
            duration = rng.uniform(0.5, 500.0)
        durations[j] = duration
        position = int(join_at // d) - 1 - 600  # lag 600 at the join
        sessions.extend([
            SessionEvent(time=join_at, peer_id=j,
                         kind=SessionEventKind.JOIN, position=position),
            SessionEvent(time=join_at + 40.0, peer_id=j,
                         kind=SessionEventKind.PAUSE, duration=duration),
            SessionEvent(time=join_at + 600.0, peer_id=j,
                         kind=SessionEventKind.LEAVE),
        ])
        profiles[j] = PeerProfile(peer_id=j, upload_capacity=3,
                                  storage_capacity=100_000)
    sessions.sort(key=lambda e: (e.time, e.peer_id))
    driver = MoveRecorder()
    engine = Engine(ScenarioConfig(horizon_s=73_000.0), driver)
    engine.run(sessions, profiles)

    wrong = 0
    for j in range(1000):
        expected = math.ceil(durations[j] / d)
        if driver.moves.get(j) != [(600, 600 + expected)]:
            wrong += 1
    verdict(wrong == 0, f"8 pause semantics: {wrong} of 1000 resumes deviated "
                        f"from the exact lag ceiling")


# -- 9: byte-identical reruns ---------------------------------------------------


def test_acceptance_09_csv_determinism(tmp_path):
    config = ScenarioConfig()
    stable = True
    for overlay, seed in (("tree", 17), ("mesh", 18), ("interval", 19)):
        dirs = []
        for attempt in ("first", "second"):
            report = run_scenario(config, overlay=overlay, seed=seed,
                                  horizon=900.0)
            out = tmp_path / overlay / attempt
            emit_report(report, str(out))
            dirs.append(out)
        for name in ("summary.csv", "replicas.csv", "hops.csv", "load.csv"):
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            if a != b:
                stable = False
    verdict(stable, "9 determinism: reruns byte-identical across all four "
                    "CSVs for tree, mesh, and interval")


# -- 10: comparative smoke run --------------------------------------------------


def test_acceptance_10_comparative_smoke():
    started = time.monotonic()
    config = ScenarioConfig(horizon_s=21_600.0, arrival_rate=0.0076)
    results = {}
    for overlay in ("tree", "mesh", "interval"):
        results[overlay] = run_scenario(config, overlay=overlay, seed=10)
    elapsed = time.monotonic() - started

    population_ok = all(
        120 <= r.scalars["peers_seen"] <= 300 for r in results.values())
    availability_ok = all(
        r.scalars["availability_ratio"] > 0 for r in results.values())
    offload_ok = all(
        r.scalars["peer_served_chunks"] > 0 for r in results.values())
    hot = results["interval"].scalars["buffer_mean_hot_decile"]
    cold = results["interval"].scalars["buffer_mean_cold_decile"]
    adaptive_ok = 0 < cold and hot <= cold  # zero/zero would prove nothing

    ok = (population_ok and availability_ok and offload_ok and adaptive_ok
          and elapsed < 300.0)
    summary = ", ".join(
        f"{name} availability {r.scalars['availability_ratio']:.3f}"
        for name, r in sorted(results.items()))
    verdict(ok, f"10 comparative smoke: {summary}; interval hot-decile "
                f"buffer {hot:.1f} <= cold-decile {cold:.1f} "
                f"({elapsed:.0f} s)")
