"""tssim benchmark: host cost of simulating one workload, end to end or by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads and the metrics, with
their units, are those of BENCHMARK.json. Each simulation runs in a
fresh interpreter (perfbench/child.py), one at a time, so peak RSS
belongs to that run alone.

Every time reported is scaled to a reference host speed, measured in
the child while it runs (child.HostMeter); each run's diagnostic line
also holds its raw wall times and the speeds measured.

One seed stands for workloads.AUDIENCES[workload] audiences, generated
from the scenario seeds N, N + 1,000,000, ...; the cost of an audience
depends on its seed. Any integer is a seed: N is taken modulo 2**63, so
every scenario seed is a valid, non-negative ScenarioConfig seed.

--trace 0 first times SETUP_RUNS set-up-only runs, taking the audiences
in turn, then runs the audiences round-robin: at least one run more
than there are audiences, so the first audience always runs twice and
its two outputs are compared; then more while the next run is expected
to end within S seconds of the first. It reports run_s, the mean over
the audiences of each one's median run time; setup_s, the median of
every set-up measured; viewer_s_per_s, the audiences' viewer-seconds
over their summed run times; and peak_rss_mb, the median over runs.

--trace 1 uses the first audience only: one untraced run, one traced
run with every layer's spans (perfbench/spans.py) and one untimed run
with invariant checking. It reports the per-layer metrics.

A run fails when it raises or when its four CSVs differ from another
run of the same audience. The output is correct when no run failed,
every report satisfies the identities in child.report_problems, the
traced run wrote the same bytes as the untraced one, and the checked
run either wrote them too or, on a workload in
workloads.KNOWN_VIOLATIONS, raised InvariantViolation. The verdict and
message of the check are printed and counted in invariants.failed.

Lines before the last are diagnostics; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

from spans import OUTCOME_COUNTERS
from workloads import AUDIENCES, KNOWN_VIOLATIONS, ROOT, import_tssim, load_spec

HERE = os.path.dirname(os.path.abspath(__file__))
AUDIENCE_STRIDE = 1_000_000
SEED_MODULUS = 2**63
SETUP_RUNS = 4
DEADLINE_S = 170  # the whole benchmark must exit within 180 s


def audience_seeds(workload: str, seed: int) -> list[int]:
    base = seed % SEED_MODULUS
    return [base + i * AUDIENCE_STRIDE for i in range(AUDIENCES[workload])]


class Runner:
    """Starts child runs of one workload one at a time."""

    def __init__(self, workload: str, out_root: str, started: float):
        self.workload = workload
        self.out_root = out_root
        self.started = started
        self.count = 0

    def __call__(self, mode: str, seed: int) -> dict:
        """One child run; {"error": ...} when it crashed or printed no result."""
        self.count += 1
        out_dir = os.path.join(self.out_root, f"{mode}-{self.count}")
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
               self.workload, str(seed), out_dir]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            return {"mode": mode, "seed": seed,
                    "error": f"no result within {remaining:.0f} s"}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            return {"mode": mode, "seed": seed, "error": tail[0]}
        result = json.loads(lines[-1])
        print(json.dumps({"run": {k: v for k, v in result.items() if k != "layers"}},
                         sort_keys=True), flush=True)
        return result


def good_runs(runs: list[dict]) -> list[dict]:
    """Runs that finished and wrote the bytes most runs of their audience wrote."""
    done = [r for r in runs if "error" not in r]
    common = {}
    for seed in {r["seed"] for r in done}:
        digests = Counter(r["digest"] for r in done if r["seed"] == seed)
        common[seed] = digests.most_common(1)[0][0]
    return [r for r in done if r["digest"] == common[r["seed"]]]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed(run, workload: str, seed: int, seconds: float,
          units: dict[str, str]) -> dict | None:
    seeds = audience_seeds(workload, seed)
    setups = [run("setup", seeds[i % len(seeds)]) for i in range(SETUP_RUNS)]
    runs: list[dict] = []
    window = time.perf_counter()
    while len(runs) <= len(seeds) or (
            (time.perf_counter() - window) * (len(runs) + 1) / len(runs) <= seconds):
        runs.append(run("timed", seeds[len(runs) % len(seeds)]))
    good = good_runs(runs)
    run_s, viewer_s = [], []
    for s in seeds:
        mine = [r for r in good if r["seed"] == s]
        if not mine:
            return None
        run_s.append(statistics.median(r["run_s"] for r in mine))
        viewer_s.append(mine[0]["viewer_s"])
    setup_errors = [r for r in setups if "error" in r]
    setup_s = [r["setup_s"] for r in setups + good if "error" not in r]
    problems = [p for r in good for p in r["problems"]]
    failed = len(runs) - len(good)
    values = {
        "run_s": statistics.fmean(run_s),
        "setup_s": statistics.median(setup_s),
        "viewer_s_per_s": sum(viewer_s) / sum(run_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    return {
        "correct": failed == 0 and not problems and not setup_errors,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: metric(values[name], unit) for name, unit in units.items()},
    }


def traced(run, workload: str, seed: int, units: dict[str, str]) -> dict | None:
    seed = audience_seeds(workload, seed)[0]
    plain, layered, checked = run("timed", seed), run("traced", seed), run("checked", seed)
    if "error" in plain or "error" in layered:
        return None
    failed = 2 - len(good_runs([plain, layered]))
    violation = checked.get("invariant_violation")
    if "error" in checked:
        checked_ok = False
    elif violation is not None:
        checked_ok = workload in KNOWN_VIOLATIONS
    else:
        checked_ok = checked["digest"] == plain["digest"] and not checked["problems"]
    print(json.dumps({"invariant_check": {
        "verdict": "error" if "error" in checked else "fail" if violation else "pass",
        "as_expected": checked_ok,
        "message": checked.get("error", violation), "at_s": checked.get("at_s")}}),
        flush=True)

    values = dict(layered["layers"])
    values.update({
        "workload.session_events": layered["session_events"],
        "workload.viewers": layered["viewers"],
        "workload.viewer_s": layered["viewer_s"],
        "engine.events_per_s": values["engine.events"] / plain["engine_s"],
        "invariants.failed": 1 if violation else 0,
        "trace_overhead_ratio": layered["run_s"] / plain["run_s"],
    })
    for key in OUTCOME_COUNTERS:
        values[f"engine.{key}"] = layered["outputs"][key]
    unlisted = sorted(f"engine.events.{kind}" for kind in layered["event_kinds"]
                      if f"engine.events.{kind}" not in units)
    missing = sorted(set(units) - set(values))
    if unlisted or missing:
        print(json.dumps({"unlisted_event_kinds": unlisted, "missing_metrics": missing}),
              flush=True)
    return {
        "correct": (failed == 0 and not plain["problems"] and not layered["problems"]
                    and checked_ok and not missing),
        "attempted": 2,
        "failed": failed,
        "metrics": {name: metric(values.get(name, 0), unit)
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        import_tssim()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    # The CSVs go inside the checkout, the only place a run may write.
    out_root = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    run = Runner(args.workload, out_root, started)
    layer = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[layer]}
    try:
        if args.trace:
            result = traced(run, args.workload, args.seed, units)
        else:
            result = timed(run, args.workload, args.seed, args.seconds, units)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    if result is None:
        print("perfbench: some audience had no completed run", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
