"""Run orchestration, metric collection, and CSV emission.

One run = one (config, overlay, seed) tuple. The output contract is
four CSV files with fixed column orders and plain ``\\n`` endings:

- ``summary.csv`` (``name,value``): one row per scalar metric, sorted.
- ``replicas.csv`` (``time,chunk_id,count``): periodic replica samples.
- ``hops.csv`` (``hops,frequency``): histogram over served requests.
- ``load.csv`` (``peer_id,served,stored``): per-peer upload and storage.

Floats are rendered with ``repr`` so identical runs give identical
bytes; that is asserted by the determinism acceptance check, not just
promised here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from tssim.config import ScenarioConfig
from tssim.drivers import IntervalDriver, MeshDriver, TreeDriver, TurntableSettings
from tssim.engine import Engine, NetworkModel
from tssim.stream import StreamParams, build_timeline
from tssim.workload import BehaviorParams, generate_profiles, generate_sessions


@dataclass
class MetricsReport:
    scalars: dict[str, float] = field(default_factory=dict)
    replica_rows: list[tuple[float, int, int]] = field(default_factory=list)
    hops_histogram: dict[int, int] = field(default_factory=dict)
    load_rows: list[tuple[int, int, int]] = field(default_factory=list)

    def __post_init__(self):
        ratio = self.scalars.get("availability_ratio", 0.0)
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"availability ratio out of range: {ratio}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def collect_report(engine: Engine, driver) -> MetricsReport:
    scalars: dict[str, float] = dict(engine.counters)
    scalars["availability_ratio"] = engine.availability_ratio()
    delays = engine.startup_delays
    scalars["startup_delay_mean_s"] = (
        sum(delays) / len(delays) if delays else 0.0)
    scalars["startup_delay_p95_s"] = _percentile(delays, 0.95)
    scalars["peers_seen"] = len(engine.peers)
    scalars["peer_served_chunks"] = sum(
        peer.served for peer in engine.peers.values())
    for name, value in sorted(driver.extra_metrics().items()):
        scalars[name] = value

    load_rows = [
        (pid, peer.served, len(peer.store))
        for pid, peer in sorted(engine.peers.items())
    ]
    return MetricsReport(
        scalars=scalars,
        replica_rows=list(engine.replica_rows),
        hops_histogram=dict(engine.hops_histogram),
        load_rows=load_rows,
    )


def emit_report(report: MetricsReport, out_dir: str) -> list[str]:
    """Write the four CSVs; returns the paths written.

    The directory is created if missing; an unwritable path raises
    before any simulation output is lost piecemeal.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def write(name: str, header: str, rows) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        paths.append(path)

    write("summary.csv", "name,value",
          [(name, report.scalars[name]) for name in sorted(report.scalars)])
    write("replicas.csv", "time,chunk_id,count", report.replica_rows)
    write("hops.csv", "hops,frequency",
          [(h, report.hops_histogram[h]) for h in sorted(report.hops_histogram)])
    write("load.csv", "peer_id,served,stored", report.load_rows)
    return paths


def build_driver(config: ScenarioConfig, overlay: str, seed: int):
    if overlay in ("tree", "mesh"):
        settings = TurntableSettings(
            m=config.m, r=config.r, k_rep=config.k_rep, k_min=config.k_min,
            producer_archive=config.producer_archive)
        if overlay == "tree":
            return TreeDriver(
                settings, fanout=config.fanout,
                summary_mode=config.summary_mode,
                bloom_bits=config.bloom_bits,
                bloom_hashes=config.bloom_hashes)
        return MeshDriver(
            settings, seed=seed, colors=config.colors,
            gossip_period=config.gossip_period,
            max_degree=config.max_degree,
            request_ttl=config.request_ttl)
    if overlay == "interval":
        return IntervalDriver(
            k=config.k, domain=config.horizon_T,
            rebalance_period=config.rebalance_period_s,
            dedicated_server=config.dedicated_server,
            producer_archive=config.producer_archive)
    raise ValueError(f"unknown overlay {overlay!r}")


def run_scenario(config: ScenarioConfig, overlay: str | None = None,
                 seed: int | None = None, horizon: float | None = None,
                 check_invariants: bool = False) -> MetricsReport:
    """Simulate one scenario and collect its report.

    `overlay`, `seed`, and `horizon` override the config when given
    (that is how the command line flags work).
    """
    overlay = overlay or config.overlay
    seed = config.seed if seed is None else seed
    horizon = config.horizon_s if horizon is None else horizon

    stream = StreamParams(
        bitrate_bps=config.stream_kbps * 1000,
        chunk_size_bytes=int(config.chunk_mb * 1_000_000),
    )
    network = NetworkModel(
        hop_latency=config.hop_latency_s,
        upload_kbps=config.upload_kbps,
        upload_slots=config.upload_slots,
    )
    behavior = BehaviorParams(
        zipf_exponent=config.zipf_exponent,
        early_quit_fraction=config.early_quit_fraction,
        early_quit_window=config.early_quit_window,
        show_end_leave_prob=config.show_end_leave_prob,
        vcr_rate=config.vcr_rate,
        arrival_rate=config.arrival_rate,
        live_join_prob=config.live_join_prob,
        pause_mean_seconds=config.pause_mean_seconds,
        show_start_burst=config.show_start_burst,
        abrupt_leave_prob=config.abrupt_leave_prob,
    )

    if horizon > 0:
        timeline = build_timeline(stream, horizon,
                                  show_seconds=config.show_seconds)
        sessions = generate_sessions(behavior, timeline,
                                     stream.start_time + horizon, seed)
    else:
        sessions = []
    profiles = generate_profiles(
        sessions,
        upload_capacity=config.upload_capacity,
        storage_capacity=config.storage_chunks,
    )

    driver = build_driver(config, overlay, seed)
    engine = Engine(
        stream=stream,
        network=network,
        horizon=horizon,
        driver=driver,
        check_invariants=check_invariants,
        audit_period=config.audit_period_s,
        sample_period=config.sample_period_s,
    )
    engine.run(sessions, profiles)
    return collect_report(engine, driver)
