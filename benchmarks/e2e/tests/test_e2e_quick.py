"""--quick smoke: the suite and one driver-style run, validated against
BENCHMARK.json's workload and metric lists."""

import json
import os
import subprocess
import sys
import time

import pytest

from conftest import E2E_DIR, ROOT

RUN = [sys.executable, os.path.join(E2E_DIR, "run.py")]


@pytest.fixture(scope="module")
def benchmark_doc():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fileobj:
        return json.load(fileobj)


def test_quick_suite(tmp_path, benchmark_doc):
    out = tmp_path / "quick.json"
    start = time.perf_counter()
    proc = subprocess.run(RUN + ["--quick", "--json", str(out)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 30, "quick smoke took %.1f s" % elapsed
    result = json.loads(out.read_text())
    assert result["ops_failed"] == 0 and result["ops_attempted"] > 0
    assert sorted(result["workloads"]) == sorted(
        w["name"] for w in benchmark_doc["workloads"])
    for name, entry in result["workloads"].items():
        assert sorted(entry["end_to_end"]) == sorted(
            m["name"] for m in benchmark_doc["end_to_end"])
        assert sorted(entry["per_layer"]) == sorted(
            m["name"] for m in benchmark_doc["per_layer"])
        assert entry["layers_missing"] == []
        assert entry["slowdown"] > 0
        for metric in benchmark_doc["end_to_end"]:
            assert metric["name"] in proc.stdout and metric["unit"] in proc.stdout
    sweep = result["workloads"]["scan_sweep"]["per_layer"]
    assert sweep["sim.server.engine.calls"] == 0
    assert sweep["idx.quic.crypto.unprotect.calls"] > 0
    for key in ("environment", "seed", "volume"):
        assert key in result
    assert {"python", "cpus", "commit", "platform", "loadavg"} <= set(result["environment"])


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_driver_run(trace, benchmark_doc):
    proc = subprocess.run(
        RUN + ["--quick", "--workload", "scan_sweep", "--seed", "5",
               "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = benchmark_doc["per_layer" if trace else "end_to_end"]
    assert sorted(last["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        value = last["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
    assert not [name for name in os.listdir(ROOT) if name.startswith(".bench_work")]


def test_runaway_seed_is_replaced_not_failed():
    """month_2022 at seed 109 never drains (stateless-reset ping-pong) at
    the commit that added the benchmark; the run must move to the next
    candidate seed without a failed op.  Still passes once that is fixed."""
    proc = subprocess.run(
        RUN + ["--workload", "month_2022", "--seed", "109", "--seconds", "1",
               "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
