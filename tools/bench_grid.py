"""Time the scaling grid, one fresh interpreter per run.

The grid is the three overlays × six cells: 1 h at arrival rate 0.05,
0.2, 0.5, 1.0 and 2.0, and 24 h at 0.05. Every cell is one run_scenario
call at seed 1 with the default ScenarioConfig otherwise, followed by
emit_report into a temporary directory. Times are host-scaled: the
child runs perfbench's HostMeter (perfbench/child.py) across the cell,
and each time is its wall time, by perf_counter, less the meter's own
loop and scaled to the meter's reference core speed. For each cell the
tool records:

- run_s: the time of run_scenario (set-up included);
- setup_s: the part of run_s before Engine.run starts: the driver, the
  engine, the timeline and the generated audience;
- emit_s: the time of emit_report;
- wall_run_s, wall_setup_s, wall_emit_s: the same three unscaled;
- host_speed: the meter's loop speed over the reference during run_s;
- viewer_s: each viewer's join -> leave time, clipped at the horizon,
  summed by perfbench's viewer_seconds (perfbench/child.py);
- viewer_s_per_s: viewer_s / run_s;
- events: Engine.schedule calls, counted by a wrapper put on the class
  from outside the package, as perfbench/spans.py counts engine.events
  (run_s includes the wrapper's cost; setup_s does not, as the audience
  is scheduled inside Engine.run);
- events_by_kind: the same calls by kind, named as perfbench/spans.py
  names them: a timer's tag[0] ("tick", "slot_free", "gossip", ...), a
  delivery's message[0] ("chunk", "publish"), a session event's kind
  ("join", "leave", ...) and "produce"; the kinds sum to events;
- events_per_s: events / run_s;
- peak_rss_mb: the child's peak resident set, from getrusage;
- digest: sha256 of the four CSVs, by perfbench's digest, so two
  sources can be checked for identical outputs.

Several sources can be measured in one call, each a LABEL=DIR pair
whose DIR holds the tssim package (a checkout's src/). Runs are
interleaved: each repeat of a cell runs every source once, the order
rotating from one repeat to the next. A source's value is the median
over its repeats; the single runs are kept under "runs".

For each overlay and source, "slopes" holds the least-squares slope of
log run_s against log viewer_s over the 1 h cells: 1.0 means a constant
cost per viewer-second, more means each viewer-second costs more as the
audience grows. "slope" is fitted to the medians and "repeats" once per
repeat, to the runs of that repeat, which shows its spread.

Run from the repository root, standard library only:

    python3 tools/bench_grid.py --src parent=../old/src --src change=src \\
        --repeat 3 --out BENCH_12.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
GRID = [
    (overlay, horizon_s, arrival_rate)
    for overlay in ("tree", "mesh", "interval")
    for horizon_s, arrival_rate in (
        (3600.0, 0.05), (3600.0, 0.2), (3600.0, 0.5), (3600.0, 1.0),
        (3600.0, 2.0), (86400.0, 0.05))
]
SLOPE_HORIZON_S = 3600.0
METRICS = ("run_s", "setup_s", "emit_s", "wall_run_s", "wall_setup_s", "wall_emit_s",
           "host_speed", "viewer_s", "viewer_s_per_s", "events", "events_per_s",
           "peak_rss_mb")


def run_cell(overlay: str, horizon_s: float, arrival_rate: float,
             out_dir: str) -> dict:
    """Simulate one cell in this process and measure it."""
    import resource

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from child import HostMeter, digest, viewer_seconds
    from tssim import Engine, ScenarioConfig, emit_report, run_scenario
    from tssim.engine import MessageDelivery, TimerFire
    from tssim.workload import SessionEvent

    seen = {"events": 0}
    by_kind: dict[str, int] = {}
    simulate = Engine.run
    schedule = Engine.schedule

    def capture(engine, sessions, profiles):
        seen["run_start"] = time.perf_counter()
        seen["sessions"] = sessions
        seen["end"] = engine.stream.start_time + engine.horizon
        simulate(engine, sessions, profiles)

    def count(engine, time, payload):
        seen["events"] += 1
        cls = type(payload)
        if cls is TimerFire:
            kind = payload.tag[0]
        elif cls is MessageDelivery:
            kind = payload.message[0]
        elif cls is SessionEvent:
            kind = payload.kind.value
        else:
            kind = "produce"  # a ProduceChunk
        by_kind[kind] = by_kind.get(kind, 0) + 1
        schedule(engine, time, payload)

    Engine.run = capture
    Engine.schedule = count
    config = ScenarioConfig(overlay=overlay, seed=SEED, horizon_s=horizon_s,
                            arrival_rate=arrival_rate)
    meter = HostMeter()
    meter.start()
    start = time.perf_counter()
    report = run_scenario(config)
    ran = time.perf_counter()
    paths = emit_report(report, out_dir)
    emitted = time.perf_counter()
    meter.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    viewer_s = viewer_seconds(seen["sessions"], seen["end"])
    windows = {"run_s": (start, ran), "setup_s": (start, seen["run_start"]),
               "emit_s": (ran, emitted)}
    scales = {key: meter.scale(a, b) for key, (a, b) in windows.items()}
    wall = {key: b - a for key, (a, b) in windows.items()}
    scaled = {key: wall[key] * scales[key][0] for key in windows}
    run_s = scaled["run_s"]
    return {
        **scaled,
        **{f"wall_{key}": wall[key] for key in windows},
        "host_speed": scales["run_s"][1],
        "viewer_s": viewer_s,
        "viewer_s_per_s": viewer_s / run_s,
        "events": seen["events"],
        "events_per_s": seen["events"] / run_s,
        "events_by_kind": dict(sorted(by_kind.items())),
        "peak_rss_mb": peak_kib / 1024,
        "peers_seen": report.scalars["peers_seen"],
        "digest": digest(paths),
    }


def spawn(src: str, cell: tuple) -> dict:
    """Run one cell in a fresh interpreter that imports tssim from src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    with tempfile.TemporaryDirectory() as out_dir:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--cell",
             *map(str, cell), out_dir],
            env=env, cwd=out_dir, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def summarize(runs: list[dict]) -> dict:
    summary = {name: statistics.median(run[name] for run in runs)
               for name in METRICS}
    summary["peers_seen"] = runs[0]["peers_seen"]
    summary["events_by_kind"] = runs[0]["events_by_kind"]
    summary["digest"] = runs[0]["digest"]
    if any(run["digest"] != summary["digest"] for run in runs):
        summary["digest"] = sorted({run["digest"] for run in runs})
    summary["runs"] = [{name: run[name] for name in METRICS} for run in runs]
    return summary


def log_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x over (x, y) points."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def slopes(cells: list[dict], labels: list[str], repeat: int) -> dict:
    """Per overlay and source, the run_s-on-viewer_s slope of the 1 h cells."""
    result = {}
    for overlay in dict.fromkeys(cell["overlay"] for cell in cells):
        hour = [cell for cell in cells if cell["overlay"] == overlay
                and cell["horizon_s"] == SLOPE_HORIZON_S]
        result[overlay] = {
            label: {
                "slope": log_slope([(cell[label]["viewer_s"], cell[label]["run_s"])
                                    for cell in hour]),
                "repeats": [
                    log_slope([(cell[label]["viewer_s"],
                                cell[label]["runs"][rep]["run_s"])
                               for cell in hour])
                    for rep in range(repeat)],
            }
            for label in labels
        }
    return result


def main(argv: list[str]) -> int:
    if argv[:1] == ["--cell"]:
        overlay, horizon_s, arrival_rate, out_dir = argv[1:]
        print(json.dumps(run_cell(overlay, float(horizon_s),
                                  float(arrival_rate), out_dir)))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="LABEL=DIR",
                        help="a tssim source directory to measure "
                             "(default: change=src of this checkout)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="JSON file to write (default: stdout)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    pairs = args.src or [f"change={os.path.join(ROOT, 'src')}"]
    if any("=" not in pair for pair in pairs):
        parser.error("--src takes LABEL=DIR")
    sources = dict(pair.split("=", 1) for pair in pairs)

    labels = list(sources)
    cells = []
    for cell in GRID:
        runs: dict[str, list[dict]] = {label: [] for label in labels}
        for rep in range(args.repeat):
            shift = rep % len(labels)
            for label in labels[shift:] + labels[:shift]:
                runs[label].append(spawn(sources[label], cell))
                last = runs[label][-1]
                print(f"{label:>8} {cell[0]:>8} {cell[1]:>7.0f} s "
                      f"@ {cell[2]:<4} run_s {last['run_s']:7.2f}  "
                      f"peak_rss_mb {last['peak_rss_mb']:6.1f}",
                      file=sys.stderr)
        overlay, horizon_s, arrival_rate = cell
        cells.append({"overlay": overlay, "horizon_s": horizon_s,
                      "arrival_rate": arrival_rate,
                      **{label: summarize(runs[label]) for label in labels}})

    result = {
        "grid": "3 overlays x {1 h @ 0.05, 0.2, 0.5, 1.0, 2.0; 24 h @ 0.05}, seed 1",
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "repeat": args.repeat,
        "sources": labels,
        "cells": cells,
        "slopes": slopes(cells, labels, args.repeat),
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
