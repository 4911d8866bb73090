"""tools/bench_grid.py: its scaling slope on made-up cells, and one real cell."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_grid.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_grid", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_log_slope_reads_the_power_of_a_power_law():
    grid = load_tool()
    assert grid.log_slope([(v, 3 * v) for v in (10, 50, 400)]) == pytest.approx(1.0)
    assert grid.log_slope([(v, v ** 1.5) for v in (2, 9, 70)]) == pytest.approx(1.5)


def test_slopes_fit_the_hour_cells_of_each_overlay_and_source():
    grid = load_tool()

    def cell(overlay, horizon_s, viewer_s, power, repeat_powers):
        return {"overlay": overlay, "horizon_s": horizon_s,
                "change": {"viewer_s": viewer_s, "run_s": viewer_s ** power,
                           "runs": [{"run_s": viewer_s ** p} for p in repeat_powers]}}

    cells = [cell("tree", 3600.0, v, 1.2, (1.1, 1.3)) for v in (10, 100, 1000)]
    cells.append(cell("tree", 86400.0, 5, 4.0, (4.0, 4.0)))  # not a 1 h cell
    cells += [cell("mesh", 3600.0, v, 2.0, (2.0, 1.9)) for v in (10, 100)]
    got = grid.slopes(cells, ["change"], repeat=2)
    assert list(got) == ["tree", "mesh"]
    assert got["tree"]["change"]["slope"] == pytest.approx(1.2)
    assert got["tree"]["change"]["repeats"] == pytest.approx([1.1, 1.3])
    assert got["mesh"]["change"]["repeats"] == pytest.approx([2.0, 1.9])


def test_a_cell_splits_set_up_from_its_run_time():
    grid = load_tool()
    src = TOOL.parent.parent / "src"
    runs = [grid.spawn(str(src), ("tree", 600.0, 0.05)) for _ in range(2)]
    for run in runs:
        assert set(grid.METRICS) <= set(run)
        assert 0 < run["setup_s"] < run["run_s"]
        assert 0 < run["wall_setup_s"] < run["wall_run_s"]
        assert run["wall_emit_s"] > 0 and run["emit_s"] > 0
        assert run["host_speed"] > 0
        kinds = run["events_by_kind"]
        assert sum(kinds.values()) == run["events"]
        assert {"tick", "chunk", "slot_free", "publish", "join", "leave",
                "produce", "audit", "sample"} <= set(kinds)
    summary = grid.summarize(runs)
    assert summary["setup_s"] == pytest.approx((runs[0]["setup_s"] + runs[1]["setup_s"]) / 2)
    assert [r["setup_s"] for r in summary["runs"]] == [r["setup_s"] for r in runs]
    assert summary["events_by_kind"] == runs[0]["events_by_kind"] == runs[1]["events_by_kind"]
