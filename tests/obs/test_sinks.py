"""Sampling and ring-buffer trace sinks."""

import io
import json

import pytest

from repro.obs import (
    DEFAULT_ALWAYS_KEEP,
    JsonlTracer,
    RingBufferTracer,
    SamplingTracer,
)
from repro.obs.trace import read_trace


class _ListTracer(JsonlTracer):
    """JsonlTracer writing into an inspectable StringIO."""

    def __init__(self):
        self.sink = io.StringIO()
        super().__init__(self.sink)

    def records(self):
        return [
            json.loads(line)
            for line in self.sink.getvalue().splitlines()
            if line
        ]


class TestSamplingTracer:
    def test_keeps_every_nth_per_event_type(self):
        inner = _ListTracer()
        tracer = SamplingTracer(inner, every=4, always_keep=frozenset())
        for i in range(10):
            tracer.emit("net", "packet_delivered", time=float(i), seq=i)
        kept = inner.records()
        # counts 0, 4, 8 survive: the first event of a type is always kept.
        assert [r["data"]["seq"] for r in kept] == [0, 4, 8]
        assert all(r["data"]["sampled"] == 4 for r in kept)
        assert tracer.events_kept == 3
        assert tracer.events_dropped == 7

    def test_counters_are_per_event_type(self):
        inner = _ListTracer()
        tracer = SamplingTracer(inner, every=4, always_keep=frozenset())
        tracer.emit("net", "packet_delivered", seq=0)
        tracer.emit("net", "packet_dropped", seq=1)
        tracer.emit("transport", "packet_delivered", seq=2)
        # Three distinct types: each first occurrence is kept.
        assert [r["data"]["seq"] for r in inner.records()] == [0, 1, 2]

    def test_sampling_is_deterministic(self):
        def run():
            inner = _ListTracer()
            tracer = SamplingTracer(inner, every=8)
            for i in range(100):
                tracer.emit("net", "packet_delivered", time=float(i), seq=i)
                if i % 3 == 0:
                    tracer.emit("lb", "dispatch", time=float(i), seq=i)
            return [
                (r["category"], r["name"], r["data"]["seq"])
                for r in inner.records()
            ]

        assert run() == run()

    def test_always_keep_category_never_sampled(self):
        inner = _ListTracer()
        tracer = SamplingTracer(inner, every=64)
        for i in range(10):
            tracer.emit("security", "stateless_reset", seq=i)
        kept = inner.records()
        assert len(kept) == 10
        # Always-keep events stand only for themselves.
        assert all(r["data"]["sampled"] == 1 for r in kept)

    def test_always_keep_category_name_pair(self):
        inner = _ListTracer()
        tracer = SamplingTracer(inner, every=64)
        assert "connectivity:migration_accepted" in DEFAULT_ALWAYS_KEEP
        for i in range(5):
            tracer.emit("connectivity", "migration_accepted", seq=i)
            tracer.emit("connectivity", "cid_issued", seq=i)
        names = [r["name"] for r in inner.records()]
        assert names.count("migration_accepted") == 5
        assert names.count("cid_issued") == 1  # sampled: only count 0 kept

    def test_scoped_children_share_sampling_counters(self):
        inner = _ListTracer()
        parent = SamplingTracer(inner, every=2, always_keep=frozenset())
        child = parent.scoped(worker=1)
        # Interleave: parent sees counts 0, 2; child sees counts 1, 3.
        parent.emit("net", "packet_delivered", seq=0)
        child.emit("net", "packet_delivered", seq=1)
        parent.emit("net", "packet_delivered", seq=2)
        child.emit("net", "packet_delivered", seq=3)
        kept = inner.records()
        assert [r["data"]["seq"] for r in kept] == [0, 2]
        assert parent.events_kept == child.events_kept == 2

    def test_scoped_context_reaches_inner_tracer(self):
        inner = _ListTracer()
        tracer = SamplingTracer(inner, every=1).scoped(host=7)
        tracer.emit("net", "packet_delivered", seq=0)
        assert inner.records()[0]["data"] == {"host": 7, "seq": 0, "sampled": 1}

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SamplingTracer(_ListTracer(), every=0)

    def test_close_closes_inner(self, tmp_path):
        path = str(tmp_path / "sampled.jsonl")
        tracer = SamplingTracer(JsonlTracer.to_path(path), every=2)
        tracer.emit("net", "packet_delivered", seq=0)
        tracer.close()
        assert len(list(read_trace(path))) == 1


class TestRingBufferTracer:
    def test_keeps_only_last_capacity_events(self):
        tracer = RingBufferTracer(capacity=3)
        for i in range(10):
            tracer.emit("net", "packet_delivered", time=float(i), seq=i)
        assert len(tracer) == 3
        assert tracer.events_emitted == 10
        assert [e["data"]["seq"] for e in tracer.events()] == [7, 8, 9]

    def test_dump_is_jsonl_oldest_first(self, tmp_path):
        path = str(tmp_path / "ring.jsonl")
        tracer = RingBufferTracer(capacity=4)
        for i in range(6):
            tracer.emit("net", "packet_delivered", time=float(i), seq=i)
        assert tracer.dump(path) == 4
        events = list(read_trace(path))
        assert [e["data"]["seq"] for e in events] == [2, 3, 4, 5]
        for event in events:
            assert set(("time", "wall", "category", "name")) <= set(event)

    def test_close_dumps_to_dump_path(self, tmp_path):
        path = str(tmp_path / "crash.jsonl")
        tracer = RingBufferTracer(capacity=8, dump_path=path)
        tracer.emit("sim", "run_start", time=0.0)
        tracer.close()
        assert [e["name"] for e in read_trace(path)] == ["run_start"]

    def test_scoped_children_share_the_ring(self):
        parent = RingBufferTracer(capacity=3)
        child = parent.scoped(worker=2)
        parent.emit("net", "a", seq=0)
        child.emit("net", "b", seq=1)
        events = parent.events()
        assert [e["name"] for e in events] == ["a", "b"]
        assert events[1]["data"] == {"worker": 2, "seq": 1}

    def test_dump_writes_the_bytes_a_jsonl_tracer_writes(self, monkeypatch):
        # Nested scopes and a field overriding a scope's key merge in the
        # JsonlTracer's key order, though the ring merges only at dump time.
        monkeypatch.setattr("time.time", lambda: 1.5)
        sink = io.StringIO()
        ring = RingBufferTracer(capacity=4)
        for tracer in (JsonlTracer(sink), ring):
            scoped = tracer.scoped(host=3, cid="00").scoped(worker=2)
            scoped.emit("lb", "dispatch", time=0.25, cid="ff", host=9)
            scoped.emit("sim", "tick", time=0.5)
            tracer.emit("sim", "run_end", time=1.0)
        dumped = io.StringIO()
        assert ring.dump(dumped) == 3
        assert dumped.getvalue() == sink.getvalue()
        assert json.loads(sink.getvalue().splitlines()[0])["data"] == {
            "host": 9,
            "cid": "ff",
            "worker": 2,
        }

    def test_event_without_fields_has_no_data_key(self):
        tracer = RingBufferTracer(capacity=2)
        tracer.emit("sim", "run_start", time=1.0)
        assert "data" not in tracer.events()[0]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferTracer(capacity=0)


class TestSignalDump:
    """SIGUSR1 snapshots the ring mid-run without stopping anything."""

    @pytest.fixture(autouse=True)
    def _restore_handler(self):
        signal = pytest.importorskip("signal")
        if not hasattr(signal, "SIGUSR1"):
            pytest.skip("platform without SIGUSR1")
        previous = signal.getsignal(signal.SIGUSR1)
        yield
        signal.signal(signal.SIGUSR1, previous)

    def test_signal_dumps_retained_window(self, tmp_path):
        import os
        import signal

        from repro.obs import install_signal_dump

        path = str(tmp_path / "ring.jsonl")
        tracer = RingBufferTracer(capacity=4, dump_path=path)
        assert install_signal_dump(tracer) is True
        for i in range(6):
            tracer.emit("net", "packet_delivered", time=float(i), seq=i)
        os.kill(os.getpid(), signal.SIGUSR1)
        events = list(read_trace(path))
        assert [e["data"]["seq"] for e in events] == [2, 3, 4, 5]
        # the run keeps going: later events land in the next dump
        tracer.emit("net", "packet_delivered", time=6.0, seq=6)
        os.kill(os.getpid(), signal.SIGUSR1)
        assert [e["data"]["seq"] for e in read_trace(path)] == [3, 4, 5, 6]

    def test_no_dump_path_is_a_noop(self, tmp_path):
        import os
        import signal

        from repro.obs import install_signal_dump

        tracer = RingBufferTracer(capacity=4)
        assert install_signal_dump(tracer) is True
        tracer.emit("net", "packet_delivered", time=0.0, seq=0)
        os.kill(os.getpid(), signal.SIGUSR1)  # must not raise
        assert list(tmp_path.iterdir()) == []

    def test_platform_without_sigusr1_reports_false(self, monkeypatch):
        from repro.obs import install_signal_dump

        monkeypatch.delattr("signal.SIGUSR1")
        tracer = RingBufferTracer(capacity=4)
        assert install_signal_dump(tracer) is False

    def test_off_main_thread_reports_false(self):
        import threading

        from repro.obs import install_signal_dump

        tracer = RingBufferTracer(capacity=4)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(install_signal_dump(tracer))
        )
        thread.start()
        thread.join()
        assert results == [False]
