"""Checks on the benchmark itself; not part of the package's test suite.

    python3 -m pytest perfbench/test_perfbench.py

The digest tests run every workload three times at full size (plain,
benchmark-timed and traced), about two minutes in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
from workloads import KNOWN_VIOLATIONS, OVERRIDES, ROOT, import_tssim, scenario  # noqa: E402


def _child(mode: str, workload: str, out_dir) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), mode, workload, "1",
         str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(OVERRIDES))
def test_benchmark_writes_what_the_public_path_writes(workload, tmp_path):
    import_tssim()
    from tssim import emit_report, run_scenario

    paths = emit_report(run_scenario(scenario(workload, 1)), str(tmp_path / "plain"))
    plain = child.digest(paths)
    timed = _child("timed", workload, tmp_path / "timed")
    traced = _child("traced", workload, tmp_path / "traced")
    assert timed["digest"] == plain
    assert traced["digest"] == plain
    assert timed["problems"] == [] and traced["problems"] == []


class FakeRunner:
    """Stands in for run.Runner: every run of an audience writes `digests[i]`."""

    def __init__(self, digests=("d",), violation=None):
        self.digests = list(digests)
        self.violation = violation
        self.calls: list[tuple[str, int]] = []

    def __call__(self, mode: str, seed: int) -> dict:
        self.calls.append((mode, seed))
        if mode == "setup":
            return {"mode": mode, "seed": seed, "setup_s": 0.1}
        if mode == "checked" and self.violation:
            return {"mode": mode, "seed": seed, "invariant_violation": self.violation}
        digest = self.digests.pop(0) if len(self.digests) > 1 else self.digests[0]
        return {"mode": mode, "seed": seed, "digest": digest, "problems": [],
                "setup_s": 0.1, "run_s": 2.0, "engine_s": 1.5, "peak_rss_mb": 30.0,
                "viewer_s": 100.0, "session_events": 10, "viewers": 4,
                "outputs": dict.fromkeys(run.OUTCOME_COUNTERS, 0),
                "layers": {"engine.events": 6}, "event_kinds": {},
                "host_speed": {"all": 1.0}}


UNITS = {"run_s": "s", "setup_s": "s", "viewer_s_per_s": "viewer-s/s",
         "peak_rss_mb": "MiB"}


@pytest.mark.parametrize("workload", list(OVERRIDES))
def test_the_first_audience_runs_twice_however_short_the_window(workload):
    fake = FakeRunner()
    result = run.timed(fake, workload, 7, seconds=0, units=UNITS)
    timed = [seed for mode, seed in fake.calls if mode == "timed"]
    seeds = run.audience_seeds(workload, 7)
    assert timed == seeds + [7]
    assert result["correct"] and result["attempted"] == len(seeds) + 1


@pytest.mark.parametrize("seed", [0, 7, 4_294_967_295, 10**20, -1])
def test_any_integer_seed_gives_distinct_valid_scenario_seeds(seed):
    seeds = run.audience_seeds("interval-rush", seed)
    assert len(set(seeds)) == len(seeds)
    for s in seeds:
        scenario("interval-rush", s)  # ScenarioConfig rejects a negative seed


def test_a_repeat_that_writes_other_bytes_fails():
    fake = FakeRunner(digests=["a", "b", "c", "d"])
    result = run.timed(fake, "interval-rush", 7, seconds=0, units=UNITS)
    assert not result["correct"] and result["failed"] == 1


@pytest.mark.parametrize("workload", list(OVERRIDES))
def test_an_invariant_violation_is_correct_only_where_known(workload):
    units = {"invariants.failed": "count", "engine.events": "count"}
    result = run.traced(FakeRunner(violation="peer 1 holds departed 2"), workload, 1,
                        units)
    assert result["correct"] == (workload in KNOWN_VIOLATIONS)
    assert result["metrics"]["invariants.failed"]["value"] == 1
    passed = run.traced(FakeRunner(), workload, 1, units)
    assert passed["correct"] and passed["metrics"]["invariants.failed"]["value"] == 0


def test_host_meter_scales_to_the_reference_speed():
    meter = child.HostMeter()
    chunk_s = child.LOOP_CHUNK / child.REFERENCE_LOOP_RATE
    # A core at half the reference speed: each sample takes twice as long.
    meter.samples = [(t, t + 2 * chunk_s) for t in (0.0, 1.0, 2.0, 3.0)]
    scale, speed = meter.scale(0.5, 4.0)
    assert speed == pytest.approx(0.5)
    wall = 3.5
    assert wall * scale == pytest.approx((wall - 3 * 2 * chunk_s) * 0.5)
    # An interval with no sample of its own falls back on all of them.
    assert meter.scale(3.1, 3.2) == pytest.approx((0.5, 0.5))


def test_viewer_seconds_clips_at_the_horizon():
    import_tssim()
    from tssim.workload import SessionEvent, SessionEventKind as K

    sessions = [
        SessionEvent(1.0, 0, K.JOIN, position=0),
        SessionEvent(2.0, 1, K.JOIN, position=0),
        SessionEvent(4.0, 0, K.LEAVE),
        SessionEvent(12.0, 1, K.LEAVE),
        SessionEvent(9.0, 2, K.JOIN, position=0),
    ]
    assert child.viewer_seconds(sessions, end=10.0) == 3.0 + 8.0 + 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-day", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
