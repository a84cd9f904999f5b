"""Discrete-event loop semantics."""

import random

import pytest

from repro.simnet.eventloop import EventLoop


class TestScheduling:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, lambda: fired.append("b"))
        loop.schedule(1.0, lambda: fired.append("a"))
        loop.schedule(3.0, lambda: fired.append("c"))
        loop.run()
        assert fired == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_ties_broken_by_insertion_order(self):
        loop = EventLoop()
        fired = []
        for name in "abc":
            loop.schedule(1.0, lambda n=name: fired.append(n))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_ordering_never_compares_event_handles(self):
        """Heap entries are (time, seq, event): ties resolve on the unique
        seq in C, so the handle itself needs (and has) no ordering."""
        loop = EventLoop()
        first = loop.schedule(1.0, lambda: None)
        second = loop.schedule(1.0, lambda: None)
        with pytest.raises(TypeError):
            first < second
        assert loop.peek_time() == 1.0

    def test_pending_counts_live_events_only(self):
        loop = EventLoop()
        keep = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None).cancel()
        assert loop.pending == 1
        keep.cancel()
        assert loop.pending == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-0.1, lambda: None)

    def test_schedule_at_past_clamps_to_now(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        fired = []
        loop.schedule_at(0.5, lambda: fired.append(True))
        loop.run()
        assert fired == [True]
        assert loop.now == 1.0

    def test_schedule_at_fires_at_the_float_it_was_given(self):
        # ``now + (t - now)`` happens to round back to ``t`` for every
        # 0 <= now <= t we have tried; byte-identical captures should not
        # rest on that, so the heap holds ``t`` itself.
        rng = random.Random(22)
        loop = EventLoop()
        for _ in range(10_000):
            now = loop.now + rng.uniform(0.0, 3.0)
            loop.schedule_at(now, lambda: None)
            loop.run()
            assert loop.now == now
            when = now + rng.choice((rng.random() * 1e-9, rng.random(), rng.uniform(0, 2_600_000)))
            fired = []
            loop.schedule_at(when, lambda: fired.append(loop.now))
            loop.run()
            assert fired == [when]

    def test_nested_scheduling(self):
        loop = EventLoop()
        fired = []

        def outer():
            fired.append("outer")
            loop.schedule(0.5, lambda: fired.append("inner"))

        loop.schedule(1.0, outer)
        loop.run()
        assert fired == ["outer", "inner"]
        assert loop.now == 1.5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        loop.run()
        assert fired == []

    def test_peek_time_skips_cancelled(self):
        loop = EventLoop()
        event = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        event.cancel()
        assert loop.peek_time() == 2.0


class TestRunUntil:
    def test_partial_run(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(2.0, lambda: fired.append(2))
        loop.run_until(1.5)
        assert fired == [1]
        assert loop.now == 1.5
        loop.run_until(3.0)
        assert fired == [1, 2]
        assert loop.now == 3.0

    def test_run_until_exact_boundary_inclusive(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.run_until(1.0)
        assert fired == [1]


class TestBudget:
    def test_event_budget_guard(self):
        loop = EventLoop()

        def rearm():
            loop.schedule(0.001, rearm)

        loop.schedule(0.001, rearm)
        with pytest.raises(RuntimeError):
            loop.run(max_events=100)

    def test_budget_not_exhausted_when_queue_drains_exactly(self):
        """Regression: draining on exactly the budget-th event is success."""
        loop = EventLoop()
        fired = []
        for i in range(10):
            loop.schedule(0.1 * (i + 1), lambda i=i: fired.append(i))
        loop.run(max_events=10)  # queue empties on the 10th event: no error
        assert len(fired) == 10

    def test_budget_raises_only_with_pending_events(self):
        loop = EventLoop()
        for i in range(11):
            loop.schedule(0.1 * (i + 1), lambda: None)
        with pytest.raises(RuntimeError):
            loop.run(max_events=10)

    def test_budget_ignores_trailing_cancelled_events(self):
        """A cancelled tail does not count as pending work."""
        loop = EventLoop()
        for i in range(5):
            loop.schedule(0.1 * (i + 1), lambda: None)
        tail = loop.schedule(1.0, lambda: None)
        tail.cancel()
        loop.run(max_events=5)

    def test_events_processed_counter(self):
        loop = EventLoop()
        for _ in range(5):
            loop.schedule(0.1, lambda: None)
        loop.run()
        assert loop.events_processed == 5


class TestQueueDepthSampling:
    def test_shift_is_configurable(self):
        from repro.obs import MetricsRegistry, Observability

        metrics = MetricsRegistry()
        loop = EventLoop(
            Observability(metrics=metrics), queue_depth_sample_shift=0
        )
        for i in range(8):
            loop.schedule(0.1 * (i + 1), lambda: None)
        loop.run()
        hist = metrics.histogram("sim.queue_depth", (1,))
        # shift=0 samples depth on every processed event.
        assert sum(s.count for s in hist.series.values()) == 8

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            EventLoop(queue_depth_sample_shift=-1)
