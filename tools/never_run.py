"""List the statements of src/tssim that no golden scenario runs.

Every row of GOLDEN in tests/test_golden.py runs twice, plain and with
check_invariants=True, under a sys.settrace line tracer. The tool then
prints each statement inside a function of the tssim package whose
lines never fired, docstrings skipped, so a claim that some code never
runs is a measurement rather than an argument. The rows and their base
config are read from the test file's syntax tree; the tool keeps no
scenario list of its own.

Run from the repository root:

    PYTHONPATH=src python3 tools/never_run.py
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import tssim

SRC = os.path.dirname(tssim.__file__)
GOLDEN_FILE = Path(__file__).resolve().parent.parent / "tests" / "test_golden.py"


class Statement(NamedTuple):
    func: str  # qualified name of the enclosing function
    line: int  # first line
    lines: range  # lines whose event means the statement ran


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _function_body(func: str, body: list[ast.stmt], out: list[Statement]) -> None:
    for i, node in enumerate(body):
        if (i == 0 and _is_docstring(node)) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        inner = getattr(node, "body", None)
        if not isinstance(inner, list):
            out.append(Statement(func, node.lineno,
                                 range(node.lineno, node.end_lineno + 1)))
            continue
        # a compound statement runs when its header does
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        out.append(Statement(func, first, range(first, max(first, inner[0].lineno - 1) + 1)))
        if isinstance(node, ast.FunctionDef):
            _function_body(f"{func}.{node.name}", inner, out)
            continue
        for block in (inner, getattr(node, "orelse", []), getattr(node, "finalbody", [])):
            _function_body(func, block, out)
        for handler in getattr(node, "handlers", []):
            _function_body(func, handler.body, out)


def _definitions(prefix: str, body: list[ast.stmt], out: list[Statement]) -> None:
    for node in body:
        if isinstance(node, ast.FunctionDef):
            _function_body(prefix + node.name, node.body, out)
        elif isinstance(node, ast.ClassDef):
            _definitions(f"{prefix}{node.name}.", node.body, out)


def statements(path: str) -> list[Statement]:
    """Every statement inside a function of one source file, in file order."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out: list[Statement] = []
    _definitions("", tree.body, out)
    return sorted(out, key=lambda st: st.line)


def trace(run) -> dict[str, set[int]]:
    """Call `run()`; returns the lines of each tssim file that fired."""
    prefix = SRC + os.sep
    fired: dict[str, set[int]] = defaultdict(set)

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        hit = fired[path]

        def on_line(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return on_line

        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return fired


def never_run(fired: dict[str, set[int]]) -> list[tuple[str, Statement]]:
    """(path, statement) for each statement none of whose lines fired."""
    missed = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            hit = fired.get(path, set())
            missed.extend((path, st) for st in statements(path)
                          if hit.isdisjoint(st.lines))
    return missed


def golden_configs() -> list[dict]:
    """ScenarioConfig keywords of every golden row, read from the test file."""
    tree = ast.parse(GOLDEN_FILE.read_text(encoding="utf-8"))
    base: dict = {}
    rows: list = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["GOLDEN"]):
            rows = ast.literal_eval(node.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ScenarioConfig":
            base = {kw.arg: kw.value.value for kw in node.keywords
                    if kw.arg and isinstance(kw.value, ast.Constant)}
    return [dict(base, overlay=overlay, **overrides) for overlay, overrides, _ in rows]


def main() -> int:
    from tssim.config import ScenarioConfig
    from tssim.metrics import run_scenario

    configs = golden_configs()

    def run_all():
        for keywords in configs:
            for checked in (False, True):
                run_scenario(ScenarioConfig(**keywords), check_invariants=checked)

    missed = never_run(trace(run_all))
    root = os.path.dirname(os.path.dirname(SRC))
    sources: dict[str, list[str]] = {}
    for path, st in missed:
        if path not in sources:
            with open(path, encoding="utf-8") as fh:
                sources[path] = fh.read().splitlines()
        text = sources[path][st.line - 1].strip()
        print(f"{os.path.relpath(path, root)}:{st.line}  {st.func}  {text}")
    print(f"{len(missed)} statements never ran in {2 * len(configs)} golden runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
