"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED OUT_DIR

MODE is one of
  timed    run_scenario + emit_report with no tracing;
  setup    run_scenario stopped at entry into Engine.run (set-up only);
  traced   as timed, with every layer's spans installed (perfbench/spans.py);
  checked  run_scenario(check_invariants=True) + emit_report, untimed.

Every mode goes through the public run_scenario(...) path. The only
change to it is a wrapper on Engine.run that notes when the simulation
starts, which splits set-up time from run time. Outside the checked
mode an InvariantViolation is not caught, so the run exits non-zero and
counts as failed. The last line printed is one JSON object describing
the run.

Host speed. The host's speed drifts by a third within minutes, and a
run of fixed work drifts with it (README.md, "Host noise"). A HostMeter
therefore times a fixed pure-Python loop on this process's own core, in
a timer signal's handler, every SAMPLE_EVERY_S while the run goes on.
Each reported time is the wall time minus the loop's own time, scaled
by the loop's speed over the same interval relative to
REFERENCE_LOOP_RATE: the time the run would take on a core where the
loop runs at that rate. The program under test never runs the loop, so
a change to it moves only the first factor. "wall" and "host_speed"
keep the raw wall times and the speeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time

from spans import OUTCOME_COUNTERS, Spans, install, layer_metrics
from workloads import import_tssim, scenario

MODES = ("timed", "setup", "traced", "checked")
SAMPLE_EVERY_S = 0.02
LOOP_CHUNK = 20_000  # iterations per sample, about 1 ms
REFERENCE_LOOP_RATE = 20e6  # loop iterations per second


class HostMeter:
    """Samples, between bytecodes of the run, how fast this core runs a fixed loop."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) per sample

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(LOOP_CHUNK):
            total += i
        self.samples.append((start, time.perf_counter()))

    def start(self) -> None:
        self._sample(None, None)  # so that even the shortest run has a sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(scaled / wall time, loop speed over reference) for [start, end].

        Samples that started inside the interval are used, or every
        sample when the interval holds none.
        """
        inside = [(a, b) for a, b in self.samples if start <= a < end]
        busy = sum(b - a for a, b in inside)
        chunks = inside or self.samples
        speed = len(chunks) * LOOP_CHUNK / sum(b - a for a, b in chunks) / REFERENCE_LOOP_RATE
        wall = end - start
        return (wall - busy) / wall * speed if wall > 0 else speed, speed


class _SetupDone(Exception):
    """Stops a set-up-only run at entry into Engine.run."""


def digest(paths: list[str]) -> str:
    """sha256 over the emitted CSVs, concatenated in emit order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def viewer_seconds(sessions, end: float) -> float:
    """Sum of each viewer's join -> leave time, clipped at the horizon."""
    from tssim.workload import SessionEventKind

    joined: dict[int, float] = {}
    total = 0.0
    for evt in sessions:
        if evt.kind is SessionEventKind.JOIN:
            joined[evt.peer_id] = evt.time
        elif evt.kind is SessionEventKind.LEAVE and evt.peer_id in joined:
            total += min(evt.time, end) - joined.pop(evt.peer_id)
    return total + sum(end - t for t in joined.values() if t < end)


def report_problems(report, engine, viewers: int) -> list[str]:
    """Identities a correct report satisfies whatever the seed."""
    from tssim.engine import produced_chunks_within

    s = report.scalars
    problems = []
    requested, missed = s["chunks_requested"], s["chunks_missed"]
    served = sum(report.hops_histogram.values())
    if served != requested - missed:
        problems.append(f"hops histogram counts {served} served requests, "
                        f"expected requested - missed = {requested - missed}")
    if not 0 <= s["chunks_delivered"] <= served:
        problems.append(f"{s['chunks_delivered']} chunks delivered for "
                        f"{served} served requests")
    if s["peers_seen"] != viewers:
        problems.append(f"peers_seen {s['peers_seen']} != {viewers} viewers in the trace")
    if len(report.load_rows) != viewers:
        problems.append(f"load.csv has {len(report.load_rows)} rows for {viewers} viewers")
    produced = produced_chunks_within(engine.stream, engine.horizon)
    if s["chunks_produced"] != produced:
        problems.append(f"chunks_produced {s['chunks_produced']} != {produced} "
                        "chunks within the horizon")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[0] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    mode, name, seed, out_dir = argv[0], argv[1], int(argv[2]), argv[3]
    import_tssim()
    from tssim import Engine, InvariantViolation, emit_report, run_scenario
    from tssim.workload import SessionEventKind

    config = scenario(name, seed)
    seen: dict = {}
    simulate = Engine.run

    def run(engine, sessions, profiles):
        seen["run_start"] = time.perf_counter()
        seen["engine"], seen["sessions"] = engine, sessions
        if mode == "setup":
            raise _SetupDone
        simulate(engine, sessions, profiles)
        seen["run_end"] = time.perf_counter()

    Engine.run = run
    spans = None
    if mode == "traced":
        spans = Spans()
        install(spans)
        emit_report = spans.wrap("metrics.emit_report", emit_report)

    result: dict = {"mode": mode, "workload": name, "seed": seed}
    meter = HostMeter()
    meter.start()
    start = time.perf_counter()
    try:
        try:
            report = run_scenario(config, check_invariants=(mode == "checked"))
            paths = emit_report(report, out_dir)
        finally:
            meter.stop()
    except _SetupDone:
        wall = seen["run_start"] - start
        setup_scale, setup_speed = meter.scale(start, seen["run_start"])
        result.update({"setup_s": wall * setup_scale, "wall": {"setup_s": wall},
                       "host_speed": {"setup_s": setup_speed}})
        print(json.dumps(result))
        return 0
    except InvariantViolation as exc:
        if mode != "checked":
            raise
        result["invariant_violation"] = str(exc)
        result["at_s"] = seen["engine"].now
        print(json.dumps(result))
        return 0
    end = time.perf_counter()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    engine, sessions = seen["engine"], seen["sessions"]
    horizon_end = engine.stream.start_time + engine.horizon
    viewers = sum(1 for e in sessions if e.kind is SessionEventKind.JOIN)
    scalars = report.scalars
    windows = {"setup_s": (start, seen["run_start"]), "run_s": (seen["run_start"], end),
               "engine_s": (seen["run_start"], seen["run_end"]), "all_s": (start, end)}
    wall = {key: b - a for key, (a, b) in windows.items()}
    scales = {key: meter.scale(a, b) for key, (a, b) in windows.items()}
    result.update({key: wall[key] * scales[key][0] for key in windows})
    result.update({
        "wall": wall,
        "host_speed": {key: speed for key, (_, speed) in scales.items()},
        "peak_rss_mb": peak_kib / 1024,
        "digest": digest(paths),
        "viewer_s": viewer_seconds(sessions, horizon_end),
        "session_events": len(sessions),
        "viewers": viewers,
        "outputs": {key: scalars[key]
                    for key in ("availability_ratio", *OUTCOME_COUNTERS)},
        "problems": report_problems(report, engine, viewers),
    })
    if spans is not None:
        # Span times include the samples that fell inside them.
        result["layers"] = layer_metrics(spans, scales["all_s"][0])
        result["event_kinds"] = {
            key[len("engine.events."):]: n for key, n in sorted(spans.counts.items())
            if key.startswith("engine.events.")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
