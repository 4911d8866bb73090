"""Deterministic discrete-event simulator for peer-to-peer time-shifted streaming.

The package compares three overlay designs for serving a chunked,
append-only stream to viewers spread across the whole history of the
stream: a sector-rotation structure with per-sector trees, the same
structure with gossip meshes, and a flat overlay of per-peer lag
intervals. Everything is seeded and single-threaded, so any run can be
reproduced byte for byte.
"""

from tssim.config import ScenarioConfig, parse_config, render_config
from tssim.engine import Engine, InvariantViolation
from tssim.metrics import MetricsReport, emit_report, run_scenario
from tssim.stream import (
    StreamParams,
    Show,
    StreamTimeline,
    chunk_duration,
    air_time,
    resumed_lag,
    head_chunk_at,
    build_timeline,
)

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "render_config",
    "Engine",
    "InvariantViolation",
    "MetricsReport",
    "emit_report",
    "run_scenario",
    "StreamParams",
    "Show",
    "StreamTimeline",
    "chunk_duration",
    "air_time",
    "resumed_lag",
    "head_chunk_at",
    "build_timeline",
]

__version__ = "0.1.0"
