"""Hierarchical spans: nesting, trace emission, canonical timelines."""

import io
import json

from repro.obs import (
    NULL_SPAN,
    JsonlTracer,
    MetricsRegistry,
    Observability,
    merge_span_timelines,
)
from repro.obs.sinks import SamplingTracer
from repro.obs.spans import canonical_span_line, canonical_span_lines
from repro.obs.trace import CAT_SPAN


def _obs(sink=None, every=1):
    tracer = JsonlTracer(sink) if sink is not None else None
    if tracer is not None and every > 1:
        tracer = SamplingTracer(tracer, every)
    return Observability(tracer=tracer, metrics=MetricsRegistry())


def _events(sink):
    return [json.loads(line) for line in sink.getvalue().splitlines()]


class TestSpanContextManager:
    def test_without_profiler_returns_null_span(self):
        """No registry, no stage clock: the tracer alone gets no spans."""
        obs = Observability(tracer=JsonlTracer(io.StringIO()))
        assert obs.span("simulate.unit", unit="x") is NULL_SPAN
        with obs.span("anything") as span:
            span.note(packets=3)  # inert, never raises

    def test_nesting_links_parent_ids(self):
        sink = io.StringIO()
        obs = _obs(sink)
        with obs.span("simulate.build", time=1.0):
            with obs.span("simulate.unit", time=1.0, unit="bots"):
                pass
        unit_evt = next(e for e in _events(sink) if e["name"] == "simulate.unit")
        build_evt = next(e for e in _events(sink) if e["name"] == "simulate.build")
        assert unit_evt["data"]["parent"] == build_evt["data"]["span"]
        assert unit_evt["category"] == CAT_SPAN

    def test_parent_ids_stable_across_sampling_intervals(self):
        """Thinning the trace must never renumber the span tree."""

        def collect(every):
            sink = io.StringIO()
            obs = _obs(sink, every=every)
            for _ in range(5):
                with obs.span("simulate.build"):
                    with obs.span("simulate.unit"):
                        pass
            return {
                (e["name"], e["data"]["span"], e["data"]["parent"])
                for e in _events(sink)
            }

        assert collect(3) <= collect(1)

    def test_note_fields_land_in_the_event(self):
        sink = io.StringIO()
        obs = _obs(sink)
        with obs.span("index.extend", time=2.5) as span:
            span.note(packets=4, bytes=4800)
        event = _events(sink)[0]
        assert event["time"] == 2.5
        assert event["data"]["packets"] == 4
        assert event["data"]["bytes"] == 4800
        assert "time" not in event["data"]

    def test_packets_feed_the_profiler(self):
        """The stage clock books one call per span under its path."""
        obs = _obs()
        with obs.span("simulate.build") as span:
            span.note(packets=7)
            with obs.span("simulate.unit"):
                pass
        timers = obs.metrics.snapshot()["timers"]
        assert timers["simulate.build"]["calls"] == 1
        assert timers["simulate.build/simulate.unit"]["calls"] == 1
        assert timers["simulate.build"]["seconds"] >= (
            timers["simulate.build/simulate.unit"]["seconds"]
        )

    def test_no_tracer_still_profiles(self):
        obs = _obs(sink=None)
        with obs.span("simulate.run"):
            pass
        assert obs.metrics.timers["simulate.run"][1] == 1


class TestCanonicalization:
    def test_non_span_events_are_dropped(self):
        assert canonical_span_line({"category": "transport", "name": "x"}) is None

    def test_local_spans_are_dropped(self):
        event = {"category": "span", "name": "simulate.build", "data": {"local": True}}
        assert canonical_span_line(event) is None

    def test_volatile_fields_stripped_and_keys_sorted(self):
        event = {
            "category": "span",
            "name": "engine.flight",
            "time": 3.0,
            "wall": 123.4,
            "data": {"span": 17, "parent": 3, "wall": 9.9, "packets": 2, "cid": "ab"},
        }
        line = canonical_span_line(event)
        assert json.loads(line) == {
            "time": 3.0,
            "name": "engine.flight",
            "data": {"cid": "ab", "packets": 2},
        }
        assert line.index('"data"') < line.index('"name"') < line.index('"time"')


class TestMerge:
    def _write_trace(self, path, spans):
        tracer = JsonlTracer.to_path(path)
        for time, name, data in spans:
            tracer.emit(CAT_SPAN, name, time=time, **data)
        tracer.close()

    def test_merge_orders_by_time_then_line(self, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        self._write_trace(a, [(2.0, "engine.flight", {"cid": "aa"}),
                              (1.0, "simulate.unit", {"unit": "z"})])
        self._write_trace(b, [(1.0, "simulate.unit", {"unit": "a"}),
                              (3.0, "engine.flight", {"cid": "bb"})])
        out = str(tmp_path / "merged.jsonl")
        assert merge_span_timelines([a, b], out) == 4
        merged = [json.loads(line) for line in open(out)]
        assert [e["time"] for e in merged] == [1.0, 1.0, 2.0, 3.0]
        # same-instant spans order by serialized bytes, not input order
        assert merged[0]["data"]["unit"] == "a"

    def test_split_streams_merge_identically_to_one_stream(self, tmp_path):
        spans = [
            (float(i % 5), "engine.flight", {"cid": "%02x" % i}) for i in range(40)
        ]
        whole = str(tmp_path / "whole.jsonl")
        self._write_trace(whole, spans)
        parts = []
        for k in range(4):
            part = str(tmp_path / ("part%d.jsonl" % k))
            self._write_trace(part, spans[k::4])
            parts.append(part)
        merged_whole = str(tmp_path / "m1.jsonl")
        merged_parts = str(tmp_path / "m4.jsonl")
        assert merge_span_timelines([whole], merged_whole) == 40
        assert merge_span_timelines(parts, merged_parts) == 40
        assert open(merged_whole, "rb").read() == open(merged_parts, "rb").read()

    def test_local_spans_excluded_from_merge(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._write_trace(
            path,
            [(0.0, "simulate.build", {"local": True}),
             (1.0, "engine.flight", {"cid": "aa"})],
        )
        assert canonical_span_lines(path) == [
            '{"data":{"cid":"aa"},"name":"engine.flight","time":1.0}'
        ]
