"""Reading server events back out of a metrics registry.

The engine counts each event once, into ``engine.events{event, profile}``;
tests attach a registry and read the same facts through
:func:`engine_events`.
"""

from __future__ import annotations

from collections import Counter

from repro.obs import MetricsRegistry, Observability


def metered() -> Observability:
    """A bundle with a registry and no tracer, as ``--metrics`` attaches."""
    return Observability(metrics=MetricsRegistry())


def engine_events(obs: Observability, profile: str | None = None) -> Counter:
    """``engine.events`` by event, summed over profiles or for ``profile``.

    A :class:`collections.Counter`, so an event never counted reads 0.
    """
    counter = obs.metrics.counter("engine.events", ("event", "profile"))
    events = Counter()
    for (event, name), value in counter.values.items():
        if profile is None or name == profile:
            events[event] += value
    return events
