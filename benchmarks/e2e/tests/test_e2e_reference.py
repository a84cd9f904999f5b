"""The committed reference suite shows the workloads separate the layers."""

import json
import os

import pytest

import spec
from conftest import E2E_DIR


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(E2E_DIR, "reference", "suite.json")) as fileobj:
        return json.load(fileobj)


def test_reference_is_complete_and_clean(reference):
    assert reference["ops_failed"] == 0
    assert {"python", "cpus", "commit", "platform", "loadavg"} <= set(reference["environment"])
    names = sorted(name for name, _unit, _better in spec.per_layer())
    for entry in reference["workloads"].values():
        assert sorted(entry["per_layer"]) == names
        assert entry["layers_missing"] == []
        assert entry["end_to_end"]["simulate_s"]["n"] == 7


def test_attribution(reference):
    """Named layers own most of simulate and index; a warm analyze is up
    to half interpreter start and imports, which no layer owns."""
    for workload, entry in reference["workloads"].items():
        layers = entry["per_layer"]
        for stage in spec.STAGES:
            assert layers[stage + ".trace.overhead_ratio"] is not None
        for stage in ("sim", "idx"):
            assert layers[stage + ".trace.attributed_share"] >= 0.85, (workload, stage)
        assert 0.0 < layers["ana.trace.attributed_share"] < 1.0


def test_workloads_separate_the_layers(reference):
    flood = reference["workloads"]["backscatter_flood"]
    sweep = reference["workloads"]["scan_sweep"]
    assert sweep["per_layer"]["sim.server.engine.calls"] == 0
    assert sweep["per_layer"]["sim.server.lb.calls"] == 0
    assert (sweep["per_layer"]["ana.core.session.self_s"]
            <= 0.3 * flood["per_layer"]["ana.core.session.self_s"])
    assert (flood["per_layer"]["idx.quic.crypto.derive.calls"]
            < 0.001 * flood["records"])
    assert (sweep["per_layer"]["sim.quic.crypto.derive.self_s"]
            >= 3 * flood["per_layer"]["sim.quic.crypto.derive.self_s"])
    assert flood["per_layer"]["idx.telescope.classify.kept_ratio"] >= 0.95
