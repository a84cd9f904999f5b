"""The sweep determinism contract: caching, byte-identical results, pools.

The micro 2x2 grid from ``conftest.MICRO`` simulates in well under a
second total, so every test here runs the real pipeline — simulate,
capture, ``.capidx`` index, evaluate — rather than mocks.
"""

import copy
import json
import os
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, Observability
from repro.obs.progress import read_heartbeats, resolve_progress_dir
from repro.sweep.runner import SweepRunError, run_sweep
from repro.sweep.spec import spec_from_dict
from tests.sweep.conftest import MICRO

DOC = {
    "name": "micro",
    "base": dict(MICRO),
    "axes": {
        "loss_rate": [0.0, 0.2],
        "attack_scale": [0.5, 1.0],
    },
    "metrics": ["rows.total", "removed_share", "counter:net.dropped"],
}


def make_spec(doc=None):
    return spec_from_dict(copy.deepcopy(doc or DOC))


def run(outdir, doc=None, **kwargs):
    registry = MetricsRegistry()
    result = run_sweep(
        make_spec(doc), str(outdir), obs=Observability(metrics=registry), **kwargs
    )
    return result, registry


def cache_counts(registry):
    """The ``capstore.cache`` counter as {result: count} ints."""
    body = registry.snapshot()["counters"].get("capstore.cache", {})
    return {key: int(value) for key, value in body.get("values", {}).items()}


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("runner") / "grid")
    result, registry = run(outdir)
    return SimpleNamespace(
        outdir=outdir,
        result=result,
        registry=registry,
        csv_bytes=Path(result.csv_path).read_bytes(),
    )


class TestColdRun:
    def test_all_cells_simulated(self, cold):
        assert len(cold.result.outcomes) == 4
        assert cold.result.simulated == 4
        assert cold.result.cached == 0
        assert all(o.records > 0 for o in cold.result.outcomes)

    def test_layout_on_disk(self, cold):
        out = Path(cold.outdir)
        assert (out / "manifest.json").exists()
        assert (out / "results.csv").exists()
        assert (out / "results.json").exists()
        for cell in cold.result.cells:
            celldir = out / "cells" / cell.cell_id
            assert (celldir / "capture.pcap").exists()
            assert (celldir / "capture.pcap.capidx").exists()
            assert (celldir / "cell.json").exists()
            assert (celldir / "sim_metrics.json").exists()

    def test_manifest_totals(self, cold):
        manifest = json.loads(Path(cold.outdir, "manifest.json").read_text())
        assert manifest["totals"] == {
            "cells": 4,
            "simulated": 4,
            "cached": 0,
            "failed": 0,
            "pending": 0,
        }
        assert manifest["spec"]["name"] == "micro"

    def test_csv_shape(self, cold):
        lines = cold.csv_bytes.decode().splitlines()
        assert lines[0] == "loss_rate,attack_scale,metric,value"
        assert len(lines) == 1 + 4 * 3  # header + cells x metrics

    def test_loss_axis_changes_behaviour(self, cold):
        """The swept knob must actually reach the simulation."""
        results = json.loads(Path(cold.outdir, "results.json").read_text())
        captured = {
            dict(map(tuple, c["coords"]))["loss_rate"]: c["values"]["rows.total"]
            for c in results["cells"]
            if dict(map(tuple, c["coords"]))["attack_scale"] == 1.0
        }
        # 20% random loss starves the telescope of a visible chunk of rows.
        assert captured[0.2] < captured[0.0]

    def test_observability_merged_into_parent(self, cold):
        snapshot = cold.registry.snapshot()
        assert "sweep.simulate" in snapshot["timers"]
        states = snapshot["gauges"]["sweep.cells"]["values"]
        assert states["total"] == 4.0
        assert states["done"] == 4.0
        assert states["simulated"] == 4.0
        assert snapshot["gauges"]["sweep.wall_seconds"]["values"][""] > 0.0

    def test_final_heartbeats_written(self, cold):
        progress = os.path.join(cold.outdir, "progress")
        assert len(read_heartbeats(progress)) == 4
        # `repro progress <outdir>` descends into the progress/ subdir.
        assert resolve_progress_dir(cold.outdir) == progress


class TestDeterminism:
    def test_warm_rerun_is_cached_and_byte_identical(self, cold):
        json_before = Path(cold.outdir, "results.json").read_bytes()
        result, registry = run(cold.outdir)
        assert result.cached == 4
        assert result.simulated == 0
        assert Path(result.csv_path).read_bytes() == cold.csv_bytes
        assert Path(cold.outdir, "results.json").read_bytes() == json_before
        # Every cell's evaluation came off the .capidx sidecar.
        assert cache_counts(registry) == {"hit": 4}

    def test_workers_commute_with_serial(self, cold, tmp_path):
        result, _registry = run(tmp_path / "pooled", workers=2)
        assert result.simulated == 4
        assert Path(result.csv_path).read_bytes() == cold.csv_bytes

    def test_a_cell_capture_is_the_simulate_pcap(self, tmp_path, capsys):
        doc = {
            "name": "one",
            "base": {"seed": 109},
            "axes": {"scale": [0.05]},
            "seed_mode": "shared",
            "metrics": ["rows.total"],
        }
        result, _registry = run(tmp_path / "grid", doc)
        (cell,) = result.cells
        pcap = tmp_path / "m.pcap"
        assert main(["simulate", str(pcap), "--scale", "0.05", "--seed", "109"]) == 0
        cell_pcap = tmp_path / "grid" / "cells" / cell.cell_id / "capture.pcap"
        assert cell_pcap.read_bytes() == pcap.read_bytes()

    def test_one_axis_extension_simulates_only_new_cells(self, cold, tmp_path):
        outdir = tmp_path / "extended"
        shutil.copytree(cold.outdir, outdir)
        doc = copy.deepcopy(DOC)
        doc["axes"]["loss_rate"] = [0.0, 0.2, 0.5]  # one new value
        result, registry = run(outdir, doc=doc)
        assert len(result.outcomes) == 6
        assert result.cached == 4  # the original grid, untouched
        assert result.simulated == 2  # only loss_rate=0.5 cells
        counts = cache_counts(registry)
        assert counts["hit"] == 4
        assert counts.get("miss", 0) == 2
        simulated_labels = {
            cell.label
            for cell, outcome in zip(result.cells, result.outcomes)
            if outcome.status == "simulated"
        }
        assert simulated_labels == {
            "loss_rate=0.5,attack_scale=0.5",
            "loss_rate=0.5,attack_scale=1.0",
        }

    def test_force_resimulates(self, cold, tmp_path):
        outdir = tmp_path / "forced"
        shutil.copytree(cold.outdir, outdir)
        result, _registry = run(outdir, force=True)
        assert result.simulated == 4
        assert result.cached == 0
        assert Path(result.csv_path).read_bytes() == cold.csv_bytes


class TestFailure:
    SINGLE = {
        "name": "one",
        "base": dict(MICRO),
        "axes": {"loss_rate": [0.0]},
        "metrics": ["rows.total"],
    }

    def test_failed_cell_lands_in_manifest(self, tmp_path, monkeypatch):
        import repro.sweep.runner as runner_mod

        def boom(*_args, **_kwargs):
            raise ValueError("scenario exploded")

        monkeypatch.setattr(runner_mod, "run_to_pcap", boom)
        with pytest.raises(SweepRunError, match="1 of 1 cells failed"):
            run(tmp_path / "broken", doc=self.SINGLE)
        manifest = json.loads((tmp_path / "broken" / "manifest.json").read_text())
        assert manifest["cells"][0]["status"] == "failed"
        assert "scenario exploded" in manifest["cells"][0]["error"]
        # No deterministic results may exist for a partial sweep.
        assert not (tmp_path / "broken" / "results.csv").exists()

    def test_sibling_cells_still_run(self, tmp_path, monkeypatch):
        import repro.sweep.runner as runner_mod

        real = runner_mod.run_to_pcap

        def flaky(config, *args, **kwargs):
            if config.loss_rate > 0.1:
                raise ValueError("boom")
            return real(config, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_to_pcap", flaky)
        with pytest.raises(SweepRunError):
            run(tmp_path / "half", doc=DOC)
        manifest = json.loads((tmp_path / "half" / "manifest.json").read_text())
        statuses = [c["status"] for c in manifest["cells"]]
        assert statuses.count("failed") == 2
        assert statuses.count("simulated") == 2
