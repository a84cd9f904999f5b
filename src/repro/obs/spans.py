"""Hierarchical spans over the flat tracer, and span-timeline merging.

qlog's event stream is flat; profiling a pipeline needs *nesting* — an
``engine.flight`` contains AEAD seals, a ``simulate.unit`` contains
thousands of flights.  A :class:`Span` is a context manager handed out by
:meth:`Observability.span <repro.obs.Observability.span>`: it pushes a
stage onto the profiler's tree (``repro.obs.prof``), and — when a tracer
is attached — emits a ``span:<name>`` event on exit carrying ``span``
and ``parent`` ids so flat JSONL traces reconstruct into a tree.  Span
ids come from the profiler's own counter, assigned before any sampling
decision, so parent links stay stable however events are thinned.

Without a profiler attached, ``obs.span(...)`` returns the shared
:data:`NULL_SPAN` — one attribute check and one identity return, keeping
the profiler-off hot path inside the existing overhead budget.

Determinism and the merged timeline: all span payloads are pure
functions of the scenario's keyed randomness (simulated times, unit
names, packet counts, connection ids), so the *canonical* form of a span
stream — volatile fields like wall clocks and process-local span ids
stripped — is identical whichever worker emitted it.
:func:`merge_span_timelines` k-way-merges per-worker span streams into
one time-ordered timeline exactly the way ``merge_pcap_files`` merges
shard captures, and the result is byte-identical for any worker count.
Spans marked ``local=True`` (build/merge/index phases that exist once per
*process*, not once per simulated event) are excluded from the canonical
stream.
"""

from __future__ import annotations

import heapq
import json
from typing import Iterable, List, Optional, Sequence

from repro.atomic import atomic_output
from repro.obs.trace import CAT_SPAN, read_trace

#: Fields stripped when canonicalizing span events: wall clocks and
#: process-local identifiers differ run-to-run; everything else is a
#: pure function of the scenario's keyed randomness.
VOLATILE_FIELDS = frozenset({"wall", "span", "parent", "wall_ms", "sampled"})


class Span:
    """A live stage: profiler node plus (optionally) a trace event on exit.

    Not reentrant and not thread-safe — one span object per ``with``
    block, like a file handle.  Extra keyword fields land in the trace
    event's ``data``; :meth:`note` adds or updates fields after entry
    (e.g. a flight's packet count, known only once it is built).
    """

    __slots__ = ("_obs", "_name", "_fields", "_node", "_start", "_id", "_parent")

    def __init__(self, obs, name: str, fields: dict) -> None:
        self._obs = obs
        self._name = name
        self._fields = fields
        self._node = None
        self._start = None
        self._id = 0
        self._parent = 0

    def note(self, **fields) -> None:
        """Attach or update payload fields before the span closes."""
        self._fields.update(fields)

    @property
    def span_id(self) -> int:
        return self._id

    @property
    def parent_id(self) -> int:
        return self._parent

    def __enter__(self) -> "Span":
        prof = self._obs.prof
        self._node, self._start, self._id, self._parent = prof.push(
            self._name, self._fields.get("profile")
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        fields = self._fields
        packets = fields.get("packets", 0)
        self._obs.prof.pop(self._node, self._start, packets)
        tracer = self._obs.tracer
        if tracer.enabled:
            time = fields.pop("time", 0.0)
            tracer.emit(
                CAT_SPAN,
                self._name,
                time=time,
                span=self._id,
                parent=self._parent,
                **fields,
            )


class _NullSpan:
    """Inert span: the profiler-off fast path (shared singleton)."""

    __slots__ = ()

    def note(self, **fields) -> None:
        pass

    span_id = 0
    parent_id = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: Shared inert span; stateless, safe to hand out everywhere.
NULL_SPAN = _NullSpan()


def canonical_span_line(event: dict) -> Optional[str]:
    """One span event → its canonical JSON line (None if not canonical).

    Canonical events are category ``span`` without a ``local`` marker;
    volatile per-process fields are dropped and the rest serialized with
    sorted keys, so equal span payloads produce equal bytes regardless of
    which worker emitted them.
    """
    if event.get("category") != CAT_SPAN:
        return None
    data = event.get("data") or {}
    if data.get("local"):
        return None
    payload = {k: v for k, v in data.items() if k not in VOLATILE_FIELDS}
    return json.dumps(
        {"time": event.get("time", 0.0), "name": event.get("name"), "data": payload},
        sort_keys=True,
        separators=(",", ":"),
    )


def _sorted_span_stream(path: str) -> List[tuple]:
    """One trace's canonical spans as sorted ``(time, line)`` pairs.

    The sort mirrors :func:`~repro.netstack.pcap.record_sort_key`'s role
    for pcaps: same-instant spans order by their serialized bytes, a
    total order independent of emission interleaving.
    """
    pairs = []
    for event in read_trace(path):
        line = canonical_span_line(event)
        if line is not None:
            pairs.append((event.get("time", 0.0), line))
    pairs.sort()
    return pairs


def canonical_span_lines(path: str) -> List[str]:
    """All canonical span lines of one trace, in timeline order."""
    return [line for _time, line in _sorted_span_stream(path)]


def merge_span_timelines(paths: Sequence[str], output: str) -> int:
    """K-way-merge per-worker span streams into one canonical timeline.

    The span-stream analogue of
    :func:`~repro.netstack.pcap.merge_pcap_files`: each worker's trace is
    reduced to its canonical span lines and the sorted streams merge on
    ``(time, line)``.  Returns the number of spans written.  For a fixed
    scenario the output is byte-identical for any worker count, provided
    the traces are unsampled (a :class:`~repro.obs.sinks.SamplingTracer`
    thins per-process counters, which need not align across workers).
    """
    streams: Iterable = [_sorted_span_stream(path) for path in paths]
    count = 0
    with atomic_output(output) as fileobj:
        for _time, line in heapq.merge(*streams):
            fileobj.write(line + "\n")
            count += 1
    return count
