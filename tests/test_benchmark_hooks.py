"""The benchmark's traced run wraps these names; they must keep existing.

`perfbench/spans.py` patches driver hooks, structure operations and
engine methods by name from outside the package, and `perfbench/child.py`
and `tools/bench_grid.py` wrap `Engine.run` and read what it leaves. A
rename or deletion under `src/` would break the traced benchmark without
failing any other test, which is why, for example,
`OverlayDriver.has_local` stays although the engine no longer calls it
(its traced call count reads 0); it goes when the benchmark next changes.
"""

import importlib.util
from pathlib import Path

import pytest

from tssim import drivers, engine, interval, metrics
from tssim.drivers import IntervalDriver, MeshDriver, TreeDriver
from tssim.engine import Engine
from tssim.mesh import SectorMesh
from tssim.stream import StreamParams
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


# the rest of what spans.py, perfbench/child.py and tools/bench_grid.py
# reach by name: run_scenario's lookups in tssim.metrics, the engine
# methods they wrap or count, and child.py's produced-chunk count
REACHED = (
    [(metrics, name) for name in ("build_timeline", "generate_sessions",
                                  "generate_profiles", "collect_report",
                                  "build_driver")]
    + [(Engine, name) for name in ("run", "store_chunk", "schedule",
                                   "send_chunk", "send_control")]
    + [(engine, "produced_chunks_within")]
)


@pytest.mark.parametrize("owner,name", REACHED,
                         ids=[f"{getattr(o, '__name__', o)}.{name}"
                              for o, name in REACHED])
def test_benchmark_reached_name_exists(owner, name):
    assert callable(getattr(owner, name, None))


def test_stream_params_keep_a_start_time():
    # child.py and bench_grid.py end the viewer-second count at
    # engine.stream.start_time + engine.horizon
    assert StreamParams().start_time == 0.0


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


# Calls that spans.py counts on one short tree run, as the simulation made
# them before a departure's short list came out of its update_summary walk
# and the tree driver's request stopped going through _route_in_sector. A
# speed-up that skips one of these entry points would move a traced
# `.calls` metric. Each of the 180 departures calls update_summary, detach
# and emergency_replicate once, so spans.py's counts of them count departures.
TREE_RUN_CALLS = {
    (Engine, "store_chunk"): 3105,
    (Engine, "send_chunk"): 1800,
    (Turntable, "route_hookup"): 1774,
    (Turntable, "offer_handoff"): 1559,
    (SectorTree, "route_request"): 1774,
    (SectorTree, "update_summary"): 180,
    (SectorTree, "detach"): 180,
    (SectorTree, "emergency_replicate"): 180,
}


def test_a_tree_run_calls_each_spanned_entry_point_as_often_as_before(monkeypatch):
    from tssim.config import ScenarioConfig
    from tssim.metrics import run_scenario

    calls = dict.fromkeys(TREE_RUN_CALLS, 0)
    for owner, name in TREE_RUN_CALLS:
        method = getattr(owner, name)

        def counted(*args, _method=method, _key=(owner, name), **kwargs):
            calls[_key] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    run_scenario(ScenarioConfig(overlay="tree", seed=1, horizon_s=1800.0,
                                arrival_rate=0.1))
    assert calls == TREE_RUN_CALLS
