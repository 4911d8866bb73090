"""tools/first_divergence.py on two short tree runs."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "first_divergence.py"
SCENARIO = "overlay = tree\nseed = 1\nhorizon_s = 600\narrival_rate = 0.1\n"


def load_tool():
    spec = importlib.util.spec_from_file_location("first_divergence", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def test_identical_trees_do_not_diverge(tmp_path):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--src", f"a={ROOT / 'src'}",
         "--src", f"b={copy_src(tmp_path / 'copy')}", "--overlay", "tree",
         "--seed", "1", "--set", "horizon_s=600", "--set", "arrival_rate = 0.1"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "no divergence: all" in done.stdout


def test_one_changed_constant_diverges_at_its_first_event(tmp_path):
    changed = copy_src(tmp_path / "changed")
    config = changed / "tssim" / "config.py"
    text = config.read_text()
    assert "audit_period_s: float = 300.0" in text
    config.write_text(text.replace("audit_period_s: float = 300.0",
                                   "audit_period_s: float = 299.0"))
    # blocks of 128 events put the divergence past the first block
    diverged, report = load_tool().compare(
        {"a": str(ROOT / "src"), "b": str(changed)}, SCENARIO, block=128)
    assert diverged
    lines = report.splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.startswith("first divergence at event"))
    seq = int(lines[at].split()[4])
    assert seq > 128
    assert lines[at + 1] == "the 20 events before it, alike in both runs:"
    # the audit at 299 s is the first event the unchanged run lacks
    a_line, b_line = lines[at + 22].split(), lines[at + 23].split()
    assert a_line[:2] == ["a", str(seq)]
    assert float(a_line[2].split("|")[0]) >= 299.0
    assert b_line == ["b", str(seq), "299.0|audit|-1||"]
    assert "chunks_produced" in report
    assert "outcomes.delivered" in report
    assert "departed_sender_starts" in report


def test_a_tree_without_request_outcomes_reports_its_counters():
    # CI compares against base commits whose engine lacks both attributes
    engine = SimpleNamespace(counters={"chunks_requested": 3})
    assert load_tool()._counts(engine) == {"chunks_requested": 3}
