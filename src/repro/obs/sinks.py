"""Low-overhead trace sinks: deterministic sampling and in-memory rings.

A live :class:`~repro.obs.trace.JsonlTracer` serializes every event to
JSON, which costs ~30% on ``simulate`` (``BENCH_obs.json``) — too much to
leave on for the long runs that reproduce the paper's month-of-IBR
analyses.  The two sinks here make always-on tracing viable:

* :class:`SamplingTracer` forwards every Nth event *per event type*
  (``category:name``), so high-volume types (``transport:packet_received``)
  are thinned while every type still appears in the trace.  Rare
  lifecycle/security events — stateless resets, version negotiation,
  run start/end, workload launches — are on an always-keep list and never
  sampled away.  Sampling is counter-based, not random: the same run
  keeps the same events every time, so traces stay reproducible and
  diffable across ablations.

* :class:`RingBufferTracer` appends events to a bounded ring (O(1),
  no serialization) and keeps only the last ``capacity``.  It is the
  flight-recorder mode: near-zero overhead while running, and the recent
  history can be dumped to JSONL on demand — or on crash, since
  :meth:`close` dumps to ``dump_path`` and CLI commands close their
  sinks in a ``finally`` block.

Both compose with any inner/outer tracer: a scoped child shares the
parent's sampling counters (or ring), so per-worker tracers sample from
the same global sequence.
"""

from __future__ import annotations

import json
import time as _wall
from collections import deque
from typing import IO, Optional, Union

from repro.atomic import atomic_output
from repro.obs.trace import (
    CAT_SECURITY,
    CAT_SIM,
    CAT_WORKLOAD,
    JsonlTracer,
    Tracer,
)

#: Event types never sampled away: rare lifecycle/security signals whose
#: loss would blind the trace to exactly the anomalies worth keeping.
#: Entries are either a bare category or a full ``category:name`` key.
DEFAULT_ALWAYS_KEEP = frozenset(
    {
        CAT_SECURITY,  # stateless resets, retries, version negotiation
        CAT_SIM,  # run_start / run_end bracketing
        CAT_WORKLOAD,  # a handful of attack/scan launch markers
        "connectivity:migration_accepted",
        "recovery:flight_abandoned",
    }
)


class _SampleState:
    """Counters shared by a SamplingTracer and all its scoped children."""

    __slots__ = ("counts", "kept", "dropped")

    def __init__(self) -> None:
        self.counts: dict = {}
        self.kept = 0
        self.dropped = 0


class SamplingTracer(Tracer):
    """Forward every ``every``-th event per ``category:name`` to ``inner``.

    The first event of each type is always kept (count 0), so even a
    single occurrence of a type is visible in the sampled trace.
    """

    enabled = True

    def __init__(
        self,
        inner: Tracer,
        every: int = 64,
        always_keep: frozenset = DEFAULT_ALWAYS_KEEP,
        _state: Optional[_SampleState] = None,
    ) -> None:
        if every < 1:
            raise ValueError("sampling interval must be >= 1 (got %r)" % every)
        self.inner = inner
        self.every = every
        self.always_keep = frozenset(always_keep)
        # Pre-split for the hot path: bare categories vs (category, name)
        # pairs, so ``emit`` never builds a "category:name" string.
        self._keep_categories = frozenset(
            entry for entry in self.always_keep if ":" not in entry
        )
        self._keep_events = frozenset(
            tuple(entry.split(":", 1)) for entry in self.always_keep if ":" in entry
        )
        self._state = _state if _state is not None else _SampleState()

    @property
    def events_kept(self) -> int:
        return self._state.kept

    @property
    def events_dropped(self) -> int:
        return self._state.dropped

    def emit(self, category: str, name: str, time: float = 0.0, **fields) -> None:
        state = self._state
        key = (category, name)
        if category in self._keep_categories or key in self._keep_events:
            state.kept += 1
            self.inner.emit(category, name, time=time, sampled=1, **fields)
            return
        count = state.counts.get(key, 0)
        state.counts[key] = count + 1
        if count % self.every:
            state.dropped += 1
            return
        state.kept += 1
        # ``sampled`` records the thinning factor so tooling can rescale
        # counts (each kept event stands for ``every`` occurrences).
        self.inner.emit(category, name, time=time, sampled=self.every, **fields)

    def scoped(self, **context) -> "SamplingTracer":
        return SamplingTracer(
            self.inner.scoped(**context),
            every=self.every,
            always_keep=self.always_keep,
            _state=self._state,
        )

    def close(self) -> None:
        self.inner.close()


class RingBufferTracer(Tracer):
    """Keep the last ``capacity`` events in memory; serialize only on dump.

    Events are stored as plain dicts in the same shape a
    :class:`~repro.obs.trace.JsonlTracer` writes, so :meth:`dump` produces
    a byte-compatible JSONL trace of the retained window.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 65536,
        context: Optional[dict] = None,
        dump_path: Optional[str] = None,
        _buffer: Optional[deque] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1 (got %r)" % capacity)
        self.capacity = capacity
        self.dump_path = dump_path
        self._context = dict(context) if context else {}
        self._buffer: deque = _buffer if _buffer is not None else deque(maxlen=capacity)
        self.events_emitted = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def emit(self, category: str, name: str, time: float = 0.0, **fields) -> None:
        # Hot path: append a flat tuple holding the (never mutated) scope
        # context by reference; the JsonlTracer-shaped dict is only built
        # if the event survives to a dump.
        self._buffer.append((time, _wall.time(), category, name, self._context, fields))
        self.events_emitted += 1

    def scoped(self, **context) -> "RingBufferTracer":
        child = RingBufferTracer(
            capacity=self.capacity,
            context={**self._context, **context},
            _buffer=self._buffer,
        )
        return child

    @staticmethod
    def _record(entry: tuple) -> dict:
        time, wall, category, name, context, fields = entry
        data = {**context, **fields} if context else fields
        record = {
            "time": round(time, 9),
            "wall": wall,
            "category": category,
            "name": name,
        }
        if data:
            record["data"] = data
        return record

    def events(self) -> list:
        """The retained events as dicts, oldest first."""
        return [self._record(entry) for entry in self._buffer]

    def dump(self, sink: Union[str, IO[str]]) -> int:
        """Write the retained events as JSONL (oldest first); returns count."""
        if isinstance(sink, str):
            with atomic_output(sink) as fileobj:
                return self.dump(fileobj)
        count = 0
        for entry in self._buffer:
            sink.write(json.dumps(self._record(entry), separators=(",", ":")) + "\n")
            count += 1
        return count

    def close(self) -> None:
        if self.dump_path is not None:
            self.dump(self.dump_path)


def install_signal_dump(tracer: RingBufferTracer, signum: Optional[int] = None) -> bool:
    """Dump ``tracer``'s ring to its ``dump_path`` when a signal arrives.

    Long runs in flight-recorder mode are otherwise opaque until they
    exit; ``kill -USR1 <pid>`` snapshots the retained window mid-run
    without stopping anything.  Defaults to ``SIGUSR1``.  Returns False —
    a documented no-op — on platforms without the signal (Windows) or
    when called off the main thread, where handlers cannot be installed.
    """
    import signal as _signal

    if signum is None:
        signum = getattr(_signal, "SIGUSR1", None)
        if signum is None:
            return False

    def _dump_on_signal(_signo, _frame) -> None:
        if tracer.dump_path is not None:
            tracer.dump(tracer.dump_path)

    try:
        _signal.signal(signum, _dump_on_signal)
    except ValueError:  # not the main thread
        return False
    return True


def open_tracer(
    path: Optional[str], sample: int = 0, ring: int = 0, signal: bool = False
) -> Optional[Tracer]:
    """The trace sink ``--trace``/``--trace-sample``/``--trace-ring`` ask for.

    None without a ``path``.  ``ring`` K keeps the last K events and dumps
    them to ``path`` on close (and on SIGUSR1 too when ``signal``);
    otherwise every event streams to ``path`` as JSONL.  ``sample`` N then
    keeps every Nth event per type.  A command's own process and each of
    its shard workers build their tracer here, so the flags mean the same
    in both.
    """
    if not path:
        return None
    if ring:
        tracer: Tracer = RingBufferTracer(capacity=ring, dump_path=path)
        if signal:
            install_signal_dump(tracer)  # no-op without SIGUSR1
    else:
        tracer = JsonlTracer.to_path(path)
    if sample:
        tracer = SamplingTracer(tracer, every=sample)
    return tracer
