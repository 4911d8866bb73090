"""Run orchestration, metric collection, and CSV emission.

One run = one (config, overlay, seed) tuple. The output contract is
four CSV files with fixed column orders and plain ``\\n`` endings:

- ``summary.csv`` (``name,value``): one row per scalar metric, sorted.
- ``replicas.csv`` (``time,chunk_id,count``): periodic replica samples,
  expanded at write time from one count array per sample.
- ``hops.csv`` (``hops,frequency``): histogram over served requests.
- ``load.csv`` (``peer_id,served,stored``): per-peer upload and storage.

Floats are rendered with ``repr`` so identical runs give identical
bytes; that is asserted by the determinism acceptance check, not just
promised here.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field, replace

from tssim.config import ScenarioConfig, require_valid
from tssim.drivers import IntervalDriver, MeshDriver, TreeDriver
from tssim.engine import Engine
from tssim.stream import build_timeline
from tssim.workload import generate_profiles, generate_sessions


@dataclass
class MetricsReport:
    scalars: dict[str, float] = field(default_factory=dict)
    # (time, counts) per census sample; counts[c] is chunk c's replicas
    replica_samples: list[tuple[float, array]] = field(default_factory=list)
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


def _replica_lines(samples):
    """Each sample's rows as one string; the `,chunk,` fields are made once."""
    fields = [f",{chunk}," for chunk in range(max((len(c) for _, c in samples), default=0))]
    for time, counts in samples:
        prefix = _fmt(time)
        yield "".join([f"{prefix}{field}{count}\n" for field, count in zip(fields, counts)])


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
    total = 0.0
    for delay in delays:  # left to right: sum() compensates from Python 3.12 on
        total += delay
    scalars["startup_delay_mean_s"] = total / len(delays) if delays else 0.0
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
        replica_samples=list(engine.replica_samples),
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

    def write(name: str, header: str, lines) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            fh.writelines(lines)
        paths.append(path)

    write("summary.csv", "name,value",
          (f"{name},{_fmt(report.scalars[name])}\n"
           for name in sorted(report.scalars)))
    write("replicas.csv", "time,chunk_id,count",
          _replica_lines(report.replica_samples))
    write("hops.csv", "hops,frequency",
          (f"{h},{report.hops_histogram[h]}\n"
           for h in sorted(report.hops_histogram)))
    write("load.csv", "peer_id,served,stored",
          (f"{pid},{served},{stored}\n" for pid, served, stored in report.load_rows))
    return paths


_DRIVERS = {"tree": TreeDriver, "mesh": MeshDriver, "interval": IntervalDriver}


def build_driver(config: ScenarioConfig):
    return _DRIVERS[config.overlay](config)


def run_scenario(config: ScenarioConfig, overlay: str | None = None,
                 seed: int | None = None, horizon: float | None = None,
                 check_invariants: bool = False) -> MetricsReport:
    """Simulate one scenario and collect its report.

    `overlay`, `seed`, and `horizon` override the config when given
    (that is how the command line flags work). The result is checked by
    the scenario file's rules; a ValueError lists every problem.
    """
    overrides = {"overlay": overlay, "seed": seed, "horizon_s": horizon}
    config = replace(config, **{key: value for key, value in overrides.items()
                                if value is not None})
    # checked before build_driver so that a bad overlay is a config error
    require_valid(config)
    driver = build_driver(config)
    engine = Engine(config, driver, check_invariants)
    stream, horizon = engine.stream, config.horizon_s
    if horizon > 0:
        timeline = build_timeline(stream, horizon,
                                  show_seconds=config.show_seconds)
        sessions = generate_sessions(config, timeline, horizon, config.seed)
    else:
        sessions = []
    profiles = generate_profiles(sessions, config)
    engine.run(sessions, profiles)
    return collect_report(engine, driver)
