"""Deterministic discrete-event loop with cancellable events."""

from __future__ import annotations

import heapq
import itertools
import math
import time as _wall
from typing import Callable, Optional

from repro.obs import NULL_OBS, Observability
from repro.obs.trace import CAT_SIM

#: Queue depth is sampled every 2**_SAMPLE_SHIFT processed events.
_SAMPLE_SHIFT = 10
_QUEUE_DEPTH_BOUNDS = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)


def queue_depth_bounds(expected_events: Optional[int] = None) -> tuple:
    """``sim.queue_depth`` histogram bounds sized to the scenario scale.

    Without a scale hint the static decade ladder up to 10^6 applies.
    With one, the ladder gains half-decade steps (1, 3, 10, 30, …) and
    extends past 10^6 when the expected event volume demands it — at
    10^7+ events a top bucket of "everything above 10^6" would swallow
    the entire distribution.  The hint must be derived from the *full*
    scenario config (never a shard's slice) so every worker in a sharded
    run registers identical bounds, which snapshot merging requires.
    """
    if not expected_events or expected_events <= 0:
        return _QUEUE_DEPTH_BOUNDS
    top = 1_000_000
    while top < expected_events:
        top *= 10
    bounds = []
    decade = 1
    while decade <= top:
        bounds.append(decade)
        if decade * 3 <= top:
            bounds.append(decade * 3)
        decade *= 10
    return tuple(bounds)


class Event:
    """Handle for a scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """Min-heap scheduler; ties broken by insertion order (deterministic).

    The heap holds ``(time, seq, event)`` tuples: ``seq`` is unique, so
    ``heapq`` orders entries by comparing a float and an int in C and
    never reaches the :class:`Event`.  :meth:`_dispatch` is the one loop
    that fires events; :meth:`run`, :meth:`step` and :meth:`run_until`
    hand it a budget and a time limit.
    """

    def __init__(
        self,
        obs: Observability | None = None,
        queue_depth_sample_shift: int = _SAMPLE_SHIFT,
        expected_events: Optional[int] = None,
    ) -> None:
        if queue_depth_sample_shift < 0:
            raise ValueError(
                "queue_depth_sample_shift must be >= 0 (got %r)"
                % queue_depth_sample_shift
            )
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.events_processed = 0
        self.obs = obs or NULL_OBS
        #: ``sim.queue_depth`` is observed every 2**shift processed events.
        self.queue_depth_sample_shift = queue_depth_sample_shift
        #: Scale hint (expected event volume of the full scenario); sizes
        #: the ``sim.queue_depth`` and ``transport.datagram_bytes``
        #: histogram buckets.  None keeps the static defaults.
        self.expected_events = expected_events
        #: Optional callable fired with the running event count every
        #: ~4096 processed events (heartbeat writers hook in here).  Wall
        #: clocks live inside the callback, never in event dispatch, so
        #: the hook cannot perturb simulated behaviour.
        self.on_progress: Optional[Callable[[int], None]] = None

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events still queued.

        Shard workers assert ``pending == 0`` after :meth:`run` before
        shipping their capture: a worker that exits with events queued
        would silently under-produce its slice of the merged pcap.
        """
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        return self._push(self.now + delay, callback)

    def _push(self, time: float, callback: Callable[[], None]) -> Event:
        event = Event(time, callback)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute simulated ``time`` (a past one: now).

        The heap gets the float it was given, not ``now + (time - now)``,
        so a callback that re-arms itself from a non-zero ``now`` fires at
        exactly the instant a caller scheduling from time 0 would name.
        """
        return self._push(max(time, self.now), callback)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, skipping cancelled ones."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def _dispatch(self, budget: float = math.inf, until: float = math.inf) -> int:
        """Fire live events in order, at most ``budget`` of them, none
        stamped after ``until``; returns how many fired.

        The one event loop: no method call per event, and
        ``events_processed`` is brought up to date once, on the way out
        (a callback that raises leaves it counting the events that
        completed).
        """
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        try:
            while heap and fired < budget:
                if heap[0][0] > until:
                    break
                time, _seq, event = pop(heap)
                if event.cancelled:
                    continue
                self.now = time
                event.callback()
                fired += 1
        finally:
            self.events_processed += fired
        return fired

    def step(self) -> bool:
        """Execute the next event; returns False if the queue is empty."""
        return self._dispatch(1) == 1

    def run(self, max_events: int = 0) -> None:
        """Drain the queue (optionally bounded by ``max_events``).

        The budget guards against runaway simulations: it raises only if
        events remain pending *after* ``max_events`` have been processed
        — draining exactly on the budget is success, not failure.
        """
        obs = self.obs
        if obs.enabled or self.on_progress is not None:
            self._run_instrumented(max_events)
            return
        if max_events:
            if self._dispatch(max_events) == max_events and self.peek_time() is not None:
                raise RuntimeError(
                    "event budget of %d exhausted; runaway simulation?" % max_events
                )
        else:
            self._dispatch()

    def _run_instrumented(self, max_events: int) -> None:
        """``run`` with tracing and queue-depth/throughput metrics.

        Events are dispatched in chunks that end on every count the depth
        sample and the progress hook wait for (a multiple of
        ``2**min(shift, 12)``), so both fire after the very event they
        did when counted one event at a time.
        """
        obs = self.obs
        tracer = obs.tracer
        metrics = obs.metrics
        depth_hist = (
            metrics.histogram(
                "sim.queue_depth", queue_depth_bounds(self.expected_events)
            )
            if metrics is not None
            else None
        )
        if tracer.enabled:
            tracer.emit(CAT_SIM, "run_start", time=self.now, pending=len(self._heap))
        # repro: allow(DET002) -- wall time feeds only the obs rate gauges
        # (events_per_sec, sim_to_wall_ratio), never simulated behaviour
        start_wall = _wall.perf_counter()
        start_now = self.now
        count = 0
        sample_mask = (1 << self.queue_depth_sample_shift) - 1
        progress = self.on_progress
        chunk = 1 << min(self.queue_depth_sample_shift, 12)
        budget = max_events or math.inf
        exhausted = False
        while True:
            want = min(chunk, budget - count)
            fired = self._dispatch(want)
            count += fired
            if fired < want:
                break  # drained
            if depth_hist is not None and not count & sample_mask:
                depth_hist.observe_key((), len(self._heap))
            if progress is not None and not count & 4095:
                progress(count)
            if count >= budget:
                exhausted = self.peek_time() is not None
                break
        # repro: allow(DET002) -- closes the obs-gauge interval opened above
        elapsed = _wall.perf_counter() - start_wall
        if metrics is not None:
            metrics.counter("sim.events_processed").inc_key((), count)
            if elapsed > 0:
                metrics.gauge("sim.events_per_sec").set_key((), count / elapsed)
                metrics.gauge("sim.sim_to_wall_ratio").set_key(
                    (), (self.now - start_now) / elapsed
                )
        if tracer.enabled:
            tracer.emit(
                CAT_SIM,
                "run_end",
                time=self.now,
                events=count,
                wall_seconds=round(elapsed, 6),
                pending=len(self._heap),
            )
        if exhausted:
            raise RuntimeError(
                "event budget of %d exhausted; runaway simulation?" % max_events
            )

    def run_until(self, time: float) -> None:
        """Process events with timestamps <= ``time``; advance now to it."""
        self._dispatch(until=time)
        self.now = max(self.now, time)
