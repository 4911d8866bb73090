"""The benchmark's traced run wraps these names; they must keep existing.

`perfbench/spans.py` patches driver hooks and structure operations by
name from outside the package. A rename or deletion under `src/` would
break the traced benchmark without failing any other test, which is why,
for example, `OverlayDriver.has_local` stays although no driver
overrides it.
"""

import importlib.util
from pathlib import Path

import pytest

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
