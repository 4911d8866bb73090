"""The benchmark's traced run wraps these names; they must keep existing.

`perfbench/spans.py` patches driver hooks and structure operations by
name from outside the package. A rename or deletion under `src/` would
break the traced benchmark without failing any other test, which is why,
for example, `OverlayDriver.has_local` stays although the engine no
longer calls it (its traced call count reads 0); it goes when the
benchmark next changes.
"""

import importlib.util
from pathlib import Path

import pytest

from tssim import drivers, interval
from tssim.drivers import IntervalDriver, MeshDriver, TreeDriver
from tssim.mesh import SectorMesh
from tssim.tree import SectorTree
from tssim.turntable import Turntable

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()
WRAPPED = (
    [(cls, name) for cls in (TreeDriver, MeshDriver, IntervalDriver)
     for name in SPANS.DRIVER_HOOKS]
    + [(Turntable, name) for name in SPANS.TURNTABLE_OPS]
    + [(SectorTree, name) for name in SPANS.TREE_OPS]
    + [(SectorMesh, name) for name in SPANS.MESH_OPS]
)


@pytest.mark.parametrize("owner,name", WRAPPED,
                         ids=[f"{cls.__name__}.{name}" for cls, name in WRAPPED])
def test_traced_name_exists(owner, name):
    assert callable(getattr(owner, name, None))


# spans.py patches interval operations as module attributes: in
# tssim.interval, where rebalance looks up the sweep and the gap check,
# and in tssim.drivers, which imports the repair entry points by name.
MODULE_NAMES = (
    [(interval, name) for name in SPANS.INTERVAL_OPS]
    + [(drivers, name) for name in ("repair_on_event", "rebalance",
                                    "coverage_gaps_fast")]
)


@pytest.mark.parametrize("module,name", MODULE_NAMES,
                         ids=[f"{m.__name__}.{name}" for m, name in MODULE_NAMES])
def test_traced_module_function_exists(module, name):
    assert callable(getattr(module, name, None))


def test_tree_departures_reach_emergency_replicate(monkeypatch):
    # spans.py wraps the class attribute and tallies `not result.new_pins`
    from tssim.config import ScenarioConfig
    from tssim.metrics import run_scenario

    results = []
    replicate = SectorTree.emergency_replicate

    def recorded(tree, *args, **kwargs):
        results.append(replicate(tree, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(SectorTree, "emergency_replicate", recorded)
    report = run_scenario(ScenarioConfig(overlay="tree", seed=1, horizon_s=1800.0,
                                         arrival_rate=0.1))
    assert report.scalars["emergency_rounds"] > 0
    assert results
    assert all(hasattr(result, "new_pins") for result in results)
    assert any(result.new_pins for result in results)
