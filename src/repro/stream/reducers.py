"""The paper's headline numbers, kept up to date while a capture grows.

:class:`StreamAnalyses` is one reader of
:class:`~repro.core.render.CaptureFold` — the loop that hands each row
to each ``repro.core`` accumulator, the same one ``repro analyze``
renders from — over the selectors the dashboard shows: Table 2's version
mix per side, Table 3's packet mix, Table 4 / Figure 5's SCIDs and
Table 6's off-net servers.  It feeds the fold each newly appended
:class:`~repro.capstore.CaptureTable` range and adds the only thing with
no batch form, per-class / per-origin row counts over the observed
capture span, counted off the row columns.  Because the batch functions
*are* folds over these accumulators, the state after any prefix, fed in
any batching, equals the batch result over that prefix
(``tests/stream/test_reducers.py``).  :meth:`StreamAnalyses.publish`
mirrors the state into ``stream.*`` gauges so ``--prom-file`` /
``--prom-port`` export the live numbers.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.capstore.table import KLASS_VALUES, CaptureTable
from repro.core.render import CaptureFold
from repro.core.scid_entropy import chi_square_uniformity, is_structured
from repro.core.versions import TABLE2_ROWS

#: What the dashboard shows, as :class:`CaptureFold` selectors.
DASHBOARD_SELECTORS = frozenset({"2", "3", "4", "offnet"})


class StreamAnalyses:
    """A :class:`CaptureFold` plus span counters; feed row ranges, read anytime."""

    def __init__(self) -> None:
        self.fold = CaptureFold(DASHBOARD_SELECTORS)
        #: Rows per packet class ("backscatter" / "scan").
        self.rows: Counter = Counter()
        self.rows_by_origin: Counter = Counter()
        self.rows_fed = 0
        self.ts_min: Optional[float] = None
        self.ts_max: Optional[float] = None

    # -- ingestion -------------------------------------------------------

    def feed(self, table: CaptureTable, start: int, end: int) -> int:
        """Absorb rows ``[start, end)`` of ``table``; returns rows fed.

        Rows must be fed exactly once and in table order (the follower's
        append-only cursor guarantees both).
        """
        if end <= start:
            return 0
        self.fold.feed(table.datagrams(start, end))
        for code, count in Counter(table.klass[start:end]).items():
            self.rows[KLASS_VALUES[code].value] += count
        for origin_id, count in Counter(table.origin_id[start:end]).items():
            self.rows_by_origin[table.origins[origin_id]] += count
        self.rows_fed += end - start
        stamps = table.ts[start:end]
        low, high = min(stamps), max(stamps)
        self.ts_min = low if self.ts_min is None else min(low, self.ts_min)
        self.ts_max = high if self.ts_max is None else max(high, self.ts_max)
        return end - start

    # -- reading ---------------------------------------------------------

    @property
    def span_seconds(self) -> float:
        if self.ts_min is None or self.ts_max is None:
            return 0.0
        return self.ts_max - self.ts_min

    def snapshot(self) -> dict:
        """Plain-data view of every reducer (dashboard and test surface)."""
        fold = self.fold
        span = self.span_seconds
        sessions = {}
        for side, mix in (("clients", fold.clients), ("servers", fold.servers)):
            sessions[side] = {"total": len(mix.keys), "buckets": dict(mix.counts)}
        scids = {}
        for origin, accumulator in fold.scids.stats.items():
            matrix = accumulator.matrix()
            scids[origin] = {
                "unique": accumulator.unique_count,
                "lengths": dict(accumulator.length_counts),
                "dominant_length": accumulator.dominant_length,
                "structured": is_structured(matrix),
                "max_chi2": max(chi_square_uniformity(matrix), default=0.0),
            }
        servers, low = fold.offnet.counts()
        return {
            "rows": dict(self.rows),
            "rows_fed": self.rows_fed,
            "sessions": sessions,
            "packet_mix": {  # Table 3 counts backscatter + scans
                origin: dict(counter)
                for origin, counter in (fold.mix + fold.scan_mix).counts.items()
            },
            "scids": scids,
            "offnet": {"servers": servers, "low_host_id": low},
            "span_seconds": span,
            "rows_per_sec": {
                origin: count / span if span > 0 else 0.0
                for origin, count in self.rows_by_origin.items()
            },
        }

    def publish(self, metrics) -> None:
        """Mirror the current state into ``stream.*`` gauges.

        Gauges (not counters) because reducers hold absolute running
        values; re-publishing after every batch keeps the Prometheus
        view exactly in step with the dashboard.
        """
        if metrics is None:
            return
        snap = self.snapshot()
        rows = metrics.gauge("stream.rows", ("klass",))
        for name, value in snap["rows"].items():
            rows.set_key((name,), value)
        metrics.gauge("stream.rows_fed").set_key((), snap["rows_fed"])
        sessions = metrics.gauge("stream.sessions", ("side", "bucket"))
        for side, entry in snap["sessions"].items():
            sessions.set_key((side, "total"), entry["total"])
            for bucket in TABLE2_ROWS:
                if bucket in entry["buckets"]:
                    sessions.set_key((side, bucket), entry["buckets"][bucket])
        mix = metrics.gauge("stream.packet_mix", ("origin", "category"))
        for origin, counter in snap["packet_mix"].items():
            for category, count in counter.items():
                mix.set_key((origin, category), count)
        unique = metrics.gauge("stream.scid_unique", ("origin",))
        dominant = metrics.gauge("stream.scid_dominant_len", ("origin",))
        structured = metrics.gauge("stream.scid_structured", ("origin",))
        chi2 = metrics.gauge("stream.scid_max_chi2", ("origin",))
        for origin, entry in snap["scids"].items():
            unique.set_key((origin,), entry["unique"])
            dominant.set_key((origin,), entry["dominant_length"] or 0)
            structured.set_key((origin,), 1 if entry["structured"] else 0)
            chi2.set_key((origin,), entry["max_chi2"])
        metrics.gauge("stream.offnet_servers").set_key((), snap["offnet"]["servers"])
        metrics.gauge("stream.offnet_low_host_id").set_key(
            (), snap["offnet"]["low_host_id"]
        )
        metrics.gauge("stream.span_seconds").set_key((), snap["span_seconds"])
        rate = metrics.gauge("stream.rows_per_sec", ("origin",))
        for origin, value in snap["rows_per_sec"].items():
            rate.set_key((origin,), value)
