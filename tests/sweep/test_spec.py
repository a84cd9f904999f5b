"""Spec parsing, grid expansion, and cell-identity guarantees."""

import json
import sys

import pytest

from repro.cli import main
from repro.sweep.spec import (
    SweepSpec,
    SweepSpecError,
    cell_fingerprint,
    format_value,
    load_spec,
    spec_from_dict,
)
from repro.workloads.scenario import ScenarioConfig


class TestValidation:
    def test_unknown_axis_knob(self):
        with pytest.raises(SweepSpecError, match="unknown knob 'bogus'"):
            SweepSpec(name="x", axes={"bogus": [1, 2]})

    def test_unknown_base_knob(self):
        with pytest.raises(SweepSpecError, match="in base"):
            SweepSpec(name="x", axes={"seed": [1]}, base={"nope": 3})

    def test_empty_axis(self):
        with pytest.raises(SweepSpecError, match="non-empty list"):
            SweepSpec(name="x", axes={"loss_rate": []})

    def test_duplicate_axis_values(self):
        with pytest.raises(SweepSpecError, match="duplicate values"):
            SweepSpec(name="x", axes={"loss_rate": [0.1, 0.1]})

    def test_bad_seed_mode(self):
        with pytest.raises(SweepSpecError, match="seed_mode"):
            SweepSpec(name="x", axes={"seed": [1]}, seed_mode="random")

    def test_bad_metric(self):
        with pytest.raises(SweepSpecError, match="unknown metric"):
            SweepSpec(name="x", axes={"seed": [1]}, metrics=("no.such",))

    def test_empty_metrics(self):
        with pytest.raises(SweepSpecError, match="at least one metric"):
            SweepSpec(name="x", axes={"seed": [1]}, metrics=())

    def test_unknown_spec_keys(self):
        with pytest.raises(SweepSpecError, match="unknown spec keys: extra"):
            spec_from_dict({"axes": {"seed": [1]}, "extra": 1})

    def test_missing_axes(self):
        with pytest.raises(SweepSpecError, match="'axes'"):
            spec_from_dict({"name": "x"})


class TestExpansion:
    def test_last_axis_fastest(self):
        spec = SweepSpec(
            name="x", axes={"loss_rate": [0.0, 0.1], "seed": [1, 2, 3]}
        )
        cells = spec.cells()
        assert len(cells) == 6
        assert [c.coords for c in cells[:3]] == [
            (("loss_rate", 0.0), ("seed", 1)),
            (("loss_rate", 0.0), ("seed", 2)),
            (("loss_rate", 0.0), ("seed", 3)),
        ]
        assert cells[3].coords[0] == ("loss_rate", 0.1)
        assert [c.index for c in cells] == list(range(6))

    def test_label(self):
        spec = SweepSpec(name="x", axes={"loss_rate": [0.05]})
        assert spec.cells()[0].label == "loss_rate=0.05"

    def test_base_applies_to_every_cell(self):
        spec = SweepSpec(
            name="x", axes={"loss_rate": [0.0, 0.1]}, base={"noise_packets": 7}
        )
        assert all(c.config.noise_packets == 7 for c in spec.cells())

    def test_axis_overrides_base(self):
        spec = SweepSpec(
            name="x", axes={"loss_rate": [0.3]}, base={"loss_rate": 0.1}
        )
        assert spec.cells()[0].config.loss_rate == 0.3


class TestVirtualKnobs:
    def test_scale_matches_scaled(self):
        spec = SweepSpec(name="x", axes={"scale": [0.25]}, seed_mode="shared")
        expected = ScenarioConfig().scaled(0.25)
        assert spec.cells()[0].config == expected

    def test_attack_scale_only_touches_attacks(self):
        spec = SweepSpec(name="x", axes={"attack_scale": [2.0]}, seed_mode="shared")
        config = spec.cells()[0].config
        default = ScenarioConfig()
        assert config.attacks_facebook == default.attacks_facebook * 2
        assert config.attacks_google == default.attacks_google * 2
        assert config.research_scan_packets == default.research_scan_packets

    def test_attack_scale_keeps_cloudflare_alive(self):
        spec = SweepSpec(
            name="x",
            axes={"attack_scale": [0.001]},
            base={"attacks_cloudflare": 2},
        )
        assert spec.cells()[0].config.attacks_cloudflare == 1


class TestSeeds:
    def test_derived_seeds_differ_per_cell(self):
        spec = SweepSpec(name="x", axes={"loss_rate": [0.0, 0.1, 0.2]})
        seeds = {c.config.seed for c in spec.cells()}
        assert len(seeds) == 3

    def test_derived_seed_ignores_axis_order(self):
        a = SweepSpec(name="x", axes={"loss_rate": [0.1], "jitter": [0.02]})
        b = SweepSpec(name="x", axes={"jitter": [0.02], "loss_rate": [0.1]})
        assert a.cells()[0].config.seed == b.cells()[0].config.seed
        assert a.cells()[0].cell_id == b.cells()[0].cell_id

    def test_shared_seed_mode(self):
        spec = SweepSpec(
            name="x",
            axes={"loss_rate": [0.0, 0.1]},
            base={"seed": 99},
            seed_mode="shared",
        )
        assert [c.config.seed for c in spec.cells()] == [99, 99]


class TestFingerprint:
    def test_stable_for_equal_configs(self):
        assert cell_fingerprint(ScenarioConfig()) == cell_fingerprint(
            ScenarioConfig()
        )

    def test_sensitive_to_any_field(self):
        assert cell_fingerprint(ScenarioConfig()) != cell_fingerprint(
            ScenarioConfig(seed=123456)
        )

    def test_survives_spec_rename_and_metric_change(self):
        a = SweepSpec(name="a", axes={"loss_rate": [0.1]})
        b = SweepSpec(
            name="b", axes={"loss_rate": [0.1]}, metrics=("rows.total",)
        )
        assert a.cells()[0].cell_id == b.cells()[0].cell_id


class TestFormatValue:
    def test_float_repr(self):
        assert format_value(0.1) == "0.1"
        assert format_value(1.0) == "1.0"

    def test_non_floats(self):
        assert format_value(3) == "3"
        assert format_value("abc") == "abc"


class TestLoadSpec:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"axes": {"loss_rate": [0.0, 0.1]}}))
        spec = load_spec(str(path))
        assert spec.name == "grid"  # default from the filename
        assert len(spec.cells()) == 2

    def test_missing_file(self, tmp_path, capsys):
        gone = str(tmp_path / "nope.json")
        with pytest.raises(FileNotFoundError):
            load_spec(gone)
        # ...which main's boundary answers like any other missing input.
        assert main(["sweep", "run", gone]) == 2
        assert capsys.readouterr().err == (
            "repro sweep run: %s: No such file or directory\n" % gone
        )

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SweepSpecError, match="invalid JSON"):
            load_spec(str(path))

    def test_toml(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text('[axes]\nloss_rate = [0.0, 0.1]\n')
        if sys.version_info >= (3, 11):
            assert len(load_spec(str(path)).cells()) == 2
        else:
            with pytest.raises(SweepSpecError, match="TOML specs need"):
                load_spec(str(path))
