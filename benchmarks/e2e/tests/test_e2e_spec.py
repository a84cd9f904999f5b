"""BENCHMARK.json == spec.py, and both fit the driver's limits."""

import json
import os
import re

import spec
import stages
from conftest import ROOT
from repro.workloads.scenario import ScenarioConfig
from workloads import WORKLOADS, build_config

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fileobj:
        assert json.load(fileobj) == spec.benchmark_json()


def test_names_units_and_limits():
    doc = spec.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in doc["end_to_end"])} in doc["end_to_end"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len(json.dumps(doc)) <= 64 * 1024


def test_workload_mixes():
    flood = build_config("backscatter_flood", 7)
    sweep = build_config("scan_sweep", 7)
    month = build_config("month_2022", 7)
    assert flood.research_scan_packets == flood.noise_packets == 0
    assert flood.attacks_google == ScenarioConfig().attacks_google and flood.seed == 7
    assert sweep.attacks_google == sweep.attacks_facebook == 0
    assert sweep.research_scan_packets == ScenarioConfig().research_scan_packets
    assert month == ScenarioConfig(seed=7).scaled(0.5)
    # The parity check's config is what `repro simulate --scale 0.05` builds.
    assert build_config("month_2022", 7, stages.PARITY_VOLUME) == ScenarioConfig(
        seed=7).scaled(float(stages.PARITY_SCALE))
    assert set(WORKLOADS) == {"month_2022", "backscatter_flood", "scan_sweep"}
