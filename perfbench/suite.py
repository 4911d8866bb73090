"""Every workload over a range of seeds, round-robin, with the spread of each metric.

    python3 perfbench/suite.py [--seeds 1-10] [--trace] [--out FILE]

Runs perfbench/run.py once per (seed, workload) for every workload in
BENCHMARK.json with its run_seconds, one at a time, taking
the workloads in turn within each seed so that a slow stretch of the
host is shared among them. For each workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread, the inter-quartile range as a share of the median, next to the
bound in BENCHMARK.json; plus the failed-run share and the median host
speed each set measured (child.HostMeter; 1 is the reference speed).
--trace adds one traced run per (seed, workload) after the untraced
one. --out saves every result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import ROOT, load_spec

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    diagnostics = [json.loads(line) for line in lines[:-1]]
    runs = [d["run"] for d in diagnostics if "run" in d]
    speeds = [r["host_speed"]["run_s"] for r in runs if "run_s" in r.get("host_speed", {})]
    check = [d["invariant_check"] for d in diagnostics if "invariant_check" in d]
    return {"workload": workload, "seed": seed, "trace": trace,
            "host_speed": statistics.median(speeds) if speeds else None,
            "invariant_check": check[0] if check else None,
            "runs": runs,
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarize(results: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in results):
        sets = [r for r in results if r["workload"] == workload and not r["trace"]]
        if not sets:
            continue
        row = {
            "sets": len(sets),
            "correct": all(r["result"]["correct"] for r in sets),
            "failed_share": (sum(r["result"]["failed"] for r in sets)
                             / sum(r["result"]["attempted"] for r in sets)),
            "host_speed": [r["host_speed"] for r in sets],
            "metrics": {},
        }
        for name in sets[0]["result"]["metrics"]:
            med, q1, q3, share = spread(
                [r["result"]["metrics"][name]["value"] for r in sets])
            row["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": share, "bound": bounds.get(name)}
        summary[workload] = row
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    results = []
    for seed in args.seeds:
        for workload in workloads:
            for trace in (0, 1) if args.trace else (0,):
                results.append(bench(workload, seed, seconds, trace))
                res = results[-1]["result"]
                shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()
                         if k in bounds or k == "trace_overhead_ratio"}
                print(f"seed {seed} {workload} trace={trace} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      f"host_speed={results[-1]['host_speed']:.3f} {shown}",
                      flush=True)

    summary = summarize(results, bounds)
    for workload, row in summary.items():
        print(f"\n{workload}: {row['sets']} sets, correct={row['correct']}, "
              f"failed share {row['failed_share']:.3f}")
        for name, m in row["metrics"].items():
            print(f"  {name:16s} median {m['median']:.6g}  q1 {m['q1']:.6g}  "
                  f"q3 {m['q3']:.6g}  spread {m['spread']:.3f}  bound {m['bound']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"results": results, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
