"""The benchmark's workloads and how a run reaches the tssim sources.

Every workload is the default ScenarioConfig with the fields below
changed and the seed taken from the command line. The session trace is
generated up front from that seed (Poisson arrivals plus show-start
bursts in simulated time), so one run is one batch job on the host.
Why each workload was chosen is in BENCHMARK.json; the measured detail
is in perfbench/README.md.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

OVERRIDES: dict[str, dict] = {
    "tree-day": {"overlay": "tree", "horizon_s": 86_400.0, "arrival_rate": 0.05},
    "mesh-rush": {"overlay": "mesh", "horizon_s": 3_600.0, "arrival_rate": 0.5},
    "interval-rush": {"overlay": "interval", "horizon_s": 3_600.0, "arrival_rate": 0.5},
}

# Audiences per seed: how many independent session traces one benchmark
# run averages. The cost of an interval-rush audience varies most with
# its seed, and of a tree-day audience least (README.md, "Audiences").
AUDIENCES: dict[str, int] = {"tree-day": 1, "mesh-rush": 1, "interval-rush": 5}

# Workloads whose invariant-checked run may raise InvariantViolation: the
# known mesh staleness defect (README.md, "Recorded failing check"). A
# violation on any other workload makes the result incorrect.
KNOWN_VIOLATIONS = frozenset({"mesh-rush"})


def load_spec() -> dict:
    """BENCHMARK.json of the checkout: workloads, metrics, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_tssim() -> None:
    """Put the checkout's src/ first on the import path.

    Raises FileNotFoundError when the checkout has no tssim sources, so a
    benchmark started outside a full checkout stops before any run.
    """
    if not os.path.isfile(os.path.join(SRC, "tssim", "__init__.py")):
        raise FileNotFoundError(f"no tssim sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def scenario(name: str, seed: int):
    """The ScenarioConfig of one workload at one seed."""
    import_tssim()
    from tssim.config import ScenarioConfig

    return ScenarioConfig(seed=seed, **OVERRIDES[name])
