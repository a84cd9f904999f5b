"""``repro sweep run/status/render``, exercised through main()."""

import copy
import json

import pytest

from repro.cli import main
from tests.sweep.conftest import MICRO

DOC = {
    "name": "cli-grid",
    "base": dict(MICRO),
    "axes": {"loss_rate": [0.0, 0.2], "attack_scale": [0.5, 1.0]},
    "metrics": ["rows.total", "removed_share"],
}


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep_cli")
    spec_path = root / "grid.json"
    spec_path.write_text(json.dumps(DOC))
    outdir = str(root / "grid.sweep")
    assert main(["sweep", "run", str(spec_path), "--out", outdir]) == 0
    return outdir


class TestRun:
    def test_reports_plan_and_cells(self, sweep_dir, capsys, tmp_path):
        spec_path = tmp_path / "again.json"
        spec_path.write_text(json.dumps(DOC))
        assert (
            main(["sweep", "run", str(spec_path), "--out", sweep_dir]) == 0
        )
        out = capsys.readouterr().out
        assert "Sweep cli-grid: 4 cells (loss_rate[2] x attack_scale[2])" in out
        assert out.count("cached") >= 4  # warm second run, per-cell lines
        assert "Swept 4 cells (0 simulated, 4 cached)" in out

    def test_quiet_suppresses_cell_lines(self, sweep_dir, capsys, tmp_path):
        spec_path = tmp_path / "q.json"
        spec_path.write_text(json.dumps(DOC))
        assert (
            main(["sweep", "run", str(spec_path), "--out", sweep_dir, "--quiet"])
            == 0
        )
        out = capsys.readouterr().out
        assert not [line for line in out.splitlines() if line.startswith("  [")]

    def test_default_outdir_next_to_spec(self, tmp_path, capsys):
        doc = copy.deepcopy(DOC)
        doc["axes"] = {"loss_rate": [0.0], "attack_scale": [1.0]}
        spec_path = tmp_path / "solo.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["sweep", "run", str(spec_path)]) == 0
        assert (tmp_path / "solo.sweep" / "results.csv").exists()

    def test_bad_spec_exits(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"axes": {"bogus": [1]}}))
        assert main(["sweep", "run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro sweep run: unknown knob 'bogus'")
        assert err.count("\n") == 1


class TestStatus:
    def test_table(self, sweep_dir, capsys):
        assert main(["sweep", "status", sweep_dir]) == 0
        out = capsys.readouterr().out
        assert "Sweep cli-grid: 4 cells" in out
        assert "loss_rate=0.2,attack_scale=1.0" in out

    def test_missing_dir_exits(self, tmp_path, capsys):
        assert main(["sweep", "status", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "repro sweep status: %s: no manifest.json (not a sweep output "
            "directory?)\n" % tmp_path
        )

    def test_progress_resolves_into_sweep_dir(self, sweep_dir, capsys):
        assert main(["progress", sweep_dir]) == 0
        out = capsys.readouterr().out
        assert "worker" in out.lower()


class TestRender:
    def test_default_axes_and_metric(self, sweep_dir, capsys):
        assert main(["sweep", "render", sweep_dir]) == 0
        out = capsys.readouterr().out
        # Defaults: first metric, last axis on x, first other axis on y.
        assert "rows.total by loss_rate (y) x attack_scale (x)" in out
        assert "loss_rate \\ attack_scale" in out

    def test_explicit_axes_and_csv(self, sweep_dir, capsys, tmp_path):
        csv_path = str(tmp_path / "pivot.csv")
        assert (
            main(
                [
                    "sweep",
                    "render",
                    sweep_dir,
                    "--metric",
                    "removed_share",
                    "--x",
                    "loss_rate",
                    "--y",
                    "attack_scale",
                    "--csv",
                    csv_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "removed_share by attack_scale (y) x loss_rate (x)" in out
        with open(csv_path) as fileobj:
            assert fileobj.readline().strip() == "attack_scale\\loss_rate,0.0,0.2"

    def test_fix_pin(self, sweep_dir, capsys):
        assert (
            main(
                ["sweep", "render", sweep_dir, "--fix", "loss_rate=0.0", "--x",
                 "attack_scale", "--y", "loss_rate"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "loss_rate=0.0" in out

    def test_bad_fix_exits(self, sweep_dir, capsys):
        assert main(["sweep", "render", sweep_dir, "--fix", "loss_rate"]) == 2
        assert capsys.readouterr().err == (
            "repro sweep render: --fix wants axis=value (got 'loss_rate')\n"
        )

    def test_unknown_metric_exits(self, sweep_dir, capsys):
        assert main(["sweep", "render", sweep_dir, "--metric", "rows.scans"]) == 2
        assert capsys.readouterr().err.startswith(
            "repro sweep render: metric 'rows.scans' was not recorded"
        )


class TestPromFile:
    def test_rewritten_after_every_cell(self, tmp_path, monkeypatch):
        """Each finished cell republishes the file, not only the exit."""
        from repro.obs.export import PromFileWriter

        done_per_write = []
        write = PromFileWriter.write

        def recording_write(self):
            write(self)
            with open(self.path) as fileobj:
                for line in fileobj:
                    if line.startswith('sweep_cells{state="done"} '):
                        done_per_write.append(int(line.split()[1]))

        monkeypatch.setattr(PromFileWriter, "write", recording_write)
        doc = copy.deepcopy(DOC)
        doc["axes"] = {"loss_rate": [0.0, 0.2], "attack_scale": [1.0]}
        spec_path = tmp_path / "two.json"
        spec_path.write_text(json.dumps(doc))
        prom = str(tmp_path / "sweep.prom")
        assert (
            main(
                ["sweep", "run", str(spec_path), "--out", str(tmp_path / "two"),
                 "--quiet", "--prom-file", prom]
            )
            == 0
        )
        # One rewrite as each cell lands, then the final one at exit.
        assert done_per_write == [1, 2, 2]
