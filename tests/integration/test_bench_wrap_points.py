"""Every wrap point the end-to-end benchmark names must still resolve.

``benchmarks/e2e/layers.py`` wraps ``"module:attr.path"`` entry points
from outside the program; one that no longer resolves nulls its layer
silently in a benchmark run and only fails ``benchmarks/e2e/tests``,
which tier-1 does not collect.  This resolves the same strings here, so
deleting or renaming a wrap point fails where the change is made.
"""

import importlib
import importlib.util
import os
from functools import reduce

import pytest

_LAYERS_PY = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "e2e", "layers.py"
)


def _wrap_points():
    spec = importlib.util.spec_from_file_location("_e2e_layers", _LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # read-only: defines tables, runs nothing
    points = {
        point
        for stage in layers.STAGE_LAYERS.values()
        for layer_points in stage.values()
        for point in layer_points
    }
    return sorted(points | set(layers.EVENT_SCHEDULERS))


@pytest.mark.parametrize("point", _wrap_points())
def test_wrap_point_resolves(point):
    module_name, _, attr_path = point.partition(":")
    target = reduce(getattr, attr_path.split("."), importlib.import_module(module_name))
    assert callable(target)
