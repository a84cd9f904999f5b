"""qlog-inspired structured event tracing.

The qlog format (draft-ietf-quic-qlog) taught QUIC implementers that a
protocol stack should narrate itself: every packet, timer, and routing
decision becomes one typed, timestamped event.  This module brings the
same idea to the simulator.  Events carry

* ``time`` — the *simulated* clock of the event (seconds),
* ``wall`` — the wall-clock instant it was recorded (Unix seconds),
* ``category`` / ``name`` — a two-level event type, qlog-style
  (``transport:packet_sent``, ``recovery:rto_fired``, ``lb:dispatch``…),
* ``data`` — free-form context fields (connection IDs, device names,
  drop reasons).

The default :data:`NULL_TRACER` is inert and falsy; hot paths guard with
``if tracer.enabled:`` so that a disabled run never even builds the field
dict.  :class:`JsonlTracer` writes one JSON object per line — the same
"stream of event objects" shape qlog's JSON-SEQ serialization uses — so
traces can be grepped, tailed, and loaded with one ``json.loads`` per
line.
"""

from __future__ import annotations

import json
import time as _wall
import warnings
from typing import IO, Iterable, Optional

# Two-level event taxonomy (category half of "category:name").
CAT_TRANSPORT = "transport"  # packets sent/received by QUIC endpoints
CAT_RECOVERY = "recovery"  # retransmission timers, abandoned flights
CAT_CONNECTIVITY = "connectivity"  # connection lifecycle, CIDs, migration
CAT_SECURITY = "security"  # stateless resets, retries, version negotiation
CAT_LB = "lb"  # L4 load-balancer dispatch decisions
CAT_NET = "net"  # simulated-Internet delivery and drops
CAT_SIM = "sim"  # event-loop lifecycle
CAT_TELESCOPE = "telescope"  # darknet capture
CAT_SANITIZE = "sanitize"  # classification pipeline decisions
CAT_WORKLOAD = "workload"  # traffic generators (attacks, scans, noise)
CAT_CAPSTORE = "capstore"  # columnar index build/load and cache decisions
CAT_SPAN = "span"  # hierarchical stage spans (span_id/parent_id links)
CAT_SWEEP = "sweep"  # parameter-grid cell lifecycle (repro.sweep)


class Tracer:
    """Interface: ``emit`` one event; ``scoped`` binds context fields."""

    #: Hot paths check this before building event fields.
    enabled = True

    def emit(self, category: str, name: str, time: float = 0.0, **fields) -> None:
        raise NotImplementedError

    def scoped(self, **context) -> "Tracer":
        """A tracer whose every event carries ``context`` as extra fields."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release the sink (no-op unless the tracer owns one)."""

    def __bool__(self) -> bool:
        return self.enabled


class NullTracer(Tracer):
    """Zero-overhead default: falsy, and ``emit`` does nothing."""

    enabled = False

    def emit(self, category: str, name: str, time: float = 0.0, **fields) -> None:
        pass

    def scoped(self, **context) -> "NullTracer":
        return self


#: Shared inert tracer; safe to reuse because it holds no state.
NULL_TRACER = NullTracer()


class JsonlTracer(Tracer):
    """Writes one compact JSON event object per line (qlog JSON-SEQ style)."""

    def __init__(
        self,
        sink: IO[str],
        context: Optional[dict] = None,
        _owns_sink: bool = False,
    ) -> None:
        self._sink = sink
        self._context = dict(context) if context else {}
        self._owns_sink = _owns_sink
        self.events_emitted = 0

    @classmethod
    def to_path(cls, path: str) -> "JsonlTracer":
        """Open ``path`` for writing; :meth:`close` will close it."""
        # repro: allow(IO001) -- append log: `trace tail` follows it, torn last line skipped
        return cls(open(path, "w"), _owns_sink=True)

    def emit(self, category: str, name: str, time: float = 0.0, **fields) -> None:
        record = {
            "time": round(time, 9),
            "wall": _wall.time(),
            "category": category,
            "name": name,
        }
        data = {**self._context, **fields} if self._context else fields
        if data:
            record["data"] = data
        self._sink.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.events_emitted += 1

    def scoped(self, **context) -> "JsonlTracer":
        child = JsonlTracer(self._sink, context={**self._context, **context})
        return child

    def close(self) -> None:
        self._sink.flush()
        if self._owns_sink:
            self._sink.close()


def read_trace(path: str) -> Iterable[dict]:
    """Parse a JSONL trace back into event dicts (for tests and tooling).

    A process killed mid-write leaves a truncated final line; that tail is
    skipped with a :class:`RuntimeWarning` instead of raising
    ``json.JSONDecodeError``, so a crash dump stays loadable.  The warning
    goes through the :mod:`warnings` machinery — never stdout — so
    callers printing parseable output stay clean; CLI consumers catch it
    and re-print to stderr (see ``cmd_trace_summarize``).
    """
    with open(path) as fileobj:
        for lineno, line in enumerate(fileobj, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                warnings.warn(
                    "%s:%d: undecodable trace tail skipped (truncated write?)"
                    % (path, lineno),
                    RuntimeWarning,
                    stacklevel=2,
                )
                return
