"""The stage clock read back: attribution table and speedscope export."""

import io
import json

import pytest

from repro.obs import JsonlTracer, MetricsRegistry, Observability, validate_speedscope
from repro.obs.prof import render_profile, stage_rows, to_speedscope, write_speedscope
from repro.obs.sinks import SamplingTracer


def _run_sequence(obs, cells=10, steps_per_cell=3):
    """A deterministic workload: cells, each holding a few nested steps."""
    for _ in range(cells):
        with obs.span("sweep.cell"):
            for _ in range(steps_per_cell):
                with obs.span("sweep.simulate"):
                    pass
    return obs.metrics.timers


def _profiled(tracer=None):
    return Observability(tracer=tracer, metrics=MetricsRegistry())


def _rows(timers):
    return {row["stage"]: row for row in stage_rows(timers)}


class TestSnapshotMerge:
    """Worker registries merge into the parent's, timers included."""

    def test_roundtrip_preserves_tree(self):
        worker = _profiled()
        _run_sequence(worker, cells=9)
        merged = MetricsRegistry()
        merged.merge_snapshot(worker.metrics.snapshot())
        assert merged.snapshot()["timers"] == worker.metrics.snapshot()["timers"]

    def test_merge_adds_counters(self):
        parent = MetricsRegistry()
        for _ in range(3):
            worker = _profiled()
            _run_sequence(worker, cells=10)
            parent.merge_snapshot(worker.metrics.snapshot())
        assert parent.timers["sweep.cell"][1] == 30
        assert parent.timers["sweep.cell/sweep.simulate"][1] == 90

    def test_merged_estimates_recompute_from_sums(self):
        a = {"outer": [1.0, 1], "outer/inner": [0.25, 1]}
        b = {"outer": [2.0, 1], "outer/inner": [1.5, 1]}
        parent = MetricsRegistry()
        for timers in (a, b):
            worker = MetricsRegistry()
            for stage, (seconds, calls) in timers.items():
                worker.add_time(stage, seconds, calls)
            parent.merge_snapshot(worker.snapshot())
        assert _rows(parent.timers)["outer"]["self_seconds"] == pytest.approx(1.25)


class TestAttribution:
    def test_stage_totals_sum_packets_and_calls(self):
        """Calls add per path; a span's ``packets`` stays a trace field."""
        sink = io.StringIO()
        obs = _profiled(JsonlTracer(sink))
        for _ in range(4):
            with obs.span("sweep.cell", packets=2):
                pass
        assert _rows(obs.metrics.timers)["sweep.cell"]["calls"] == 4
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert sum(event["data"]["packets"] for event in events) == 8

    def test_stage_shares_sum_to_one(self):
        timers = _run_sequence(_profiled(), cells=20)
        shares = [row["share"] for row in stage_rows(timers)]
        assert shares
        assert sum(shares) == pytest.approx(1.0)

    def test_self_estimate_subtracts_children(self):
        timers = {"outer": [1.0, 1], "outer/inner": [0.25, 1]}
        assert _rows(timers)["outer"]["self_seconds"] == pytest.approx(0.75)
        timers["outer/inner"][0] = 2.0  # merged timers can cross; self clamps at zero
        assert _rows(timers)["outer"]["self_seconds"] == 0.0


class TestExports:
    def test_speedscope_document_is_valid(self):
        timers = _run_sequence(_profiled(), cells=6)
        assert validate_speedscope(to_speedscope(timers, "test")) == []

    def test_speedscope_labels_carry_profiles(self):
        """Frames are stage names; each sample's stack spells its path."""
        doc = to_speedscope(_run_sequence(_profiled(), cells=1))
        names = [frame["name"] for frame in doc["shared"]["frames"]]
        stacks = {
            "/".join(names[i] for i in stack) for stack in doc["profiles"][0]["samples"]
        }
        assert names == ["sweep.cell", "sweep.simulate"]
        assert stacks == {"sweep.cell", "sweep.cell/sweep.simulate"}

    def test_write_speedscope_roundtrip(self, tmp_path):
        path = str(tmp_path / "prof.speedscope.json")
        write_speedscope(path, _run_sequence(_profiled()))
        with open(path) as fileobj:
            assert validate_speedscope(json.load(fileobj)) == []

    def test_table_lists_every_stage(self):
        table = render_profile(_run_sequence(_profiled()))
        assert "sweep.cell/sweep.simulate" in table
        assert "2 stages" in table


class TestSpanIds:
    def _span_events(self, sink):
        return {
            event["name"]: event["data"]
            for event in map(json.loads, sink.getvalue().splitlines())
        }

    def test_parent_ids_follow_nesting(self):
        sink = io.StringIO()
        obs = _profiled(JsonlTracer(sink))
        with obs.span("simulate.build"):
            with obs.span("simulate.unit"):
                pass
        events = self._span_events(sink)
        assert events["simulate.build"]["parent"] == 0  # root
        assert events["simulate.unit"]["parent"] == events["simulate.build"]["span"]
        assert obs.open_spans == [("", 0)]

    def test_ids_are_independent_of_sampling_interval(self):
        """Span ids come from a plain counter — a sampling tracer thinning
        the events never renumbers the ones it keeps."""

        def ids(every):
            sink = io.StringIO()
            _run_sequence(_profiled(SamplingTracer(JsonlTracer(sink), every)))
            return {
                (event["data"]["span"], event["data"]["parent"])
                for event in map(json.loads, sink.getvalue().splitlines())
            }

        dense, sparse = ids(1), ids(7)
        assert sparse and sparse < dense

    def test_current_path_tracks_the_stack(self):
        obs = _profiled()
        with obs.span("simulate.build"):
            with obs.span("simulate.unit"):
                assert obs.open_spans[-1][0] == "simulate.build/simulate.unit"
        assert obs.open_spans[-1][0] == ""
        assert sorted(obs.metrics.timers) == [
            "simulate.build", "simulate.build/simulate.unit"
        ]


class TestValidateSpeedscope:
    def test_rejects_non_object(self):
        assert validate_speedscope([]) == ["document is not a JSON object"]

    def test_flags_missing_pieces(self):
        problems = validate_speedscope({})
        assert "missing $schema" in problems
        assert "shared.frames missing or not a list" in problems
        assert "profiles missing or empty" in problems

    def test_flags_sample_frame_mismatch(self):
        doc = {
            "$schema": "x",
            "shared": {"frames": [{"name": "a"}]},
            "profiles": [
                {
                    "type": "sampled",
                    "name": "p",
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": 1,
                    "samples": [[0, 5]],
                    "weights": [1.0],
                }
            ],
        }
        assert any("unknown frame" in p for p in validate_speedscope(doc))
