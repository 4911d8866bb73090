"""Smoke test for tools/never_run.py, the never-run statement report."""

import importlib.util
import os
from pathlib import Path

from tssim.config import OVERLAYS, ScenarioConfig
from tssim.metrics import run_scenario

TOOL = Path(__file__).resolve().parent.parent / "tools" / "never_run.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("never_run", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_never_run_reports_dead_code_and_spares_live_code():
    tool = load_tool()

    def run_overlays():
        for overlay in OVERLAYS:
            run_scenario(ScenarioConfig(seed=1, horizon_s=600.0, arrival_rate=0.1,
                                        overlay=overlay))

    missed = tool.never_run(tool.trace(run_overlays))

    def body(file, func):
        stmts = [st for st in tool.statements(os.path.join(tool.SRC, file))
                 if st.func == func]
        assert stmts
        return stmts

    def missed_in(file, func):
        return [st for path, st in missed
                if os.path.basename(path) == file and st.func == func]

    # the engine no longer asks a driver whether a peer holds a chunk
    has_local = body("engine.py", "OverlayDriver.has_local")
    assert missed_in("engine.py", "OverlayDriver.has_local") == has_local
    # every playing viewer ticks
    tick = body("engine.py", "Engine._viewer_tick")
    assert len(missed_in("engine.py", "Engine._viewer_tick")) < len(tick)
