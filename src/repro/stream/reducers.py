"""The paper's headline numbers, kept up to date while a capture grows.

:class:`StreamAnalyses` holds one ``repro.core`` accumulator per table —
the same objects the batch functions fold a whole capture into — and
feeds each newly appended :class:`~repro.capstore.CaptureTable` row to
all of them as the plain values ``CaptureTable.datagrams`` cuts from the
columns:

* :class:`~repro.core.versions.VersionMix` per side (Table 2),
* :class:`~repro.core.packet_mix.PacketMix` (Table 3),
* :class:`~repro.core.scid_stats.ScidTable` (Table 4 / Figure 5),
* :class:`~repro.core.offnet.OffnetServers` (Table 6),

plus per-class / per-origin row counts over the observed capture span,
which have no batch form.  Because the batch functions *are* the fold
over these accumulators, the state after any prefix, fed in any
batching, equals the batch result over that prefix
(``tests/stream/test_reducers.py``).  :meth:`StreamAnalyses.publish`
mirrors the state into ``stream.*`` gauges so ``--prom-file`` /
``--prom-port`` export the live numbers.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Tuple

from repro.capstore.table import KLASS_VALUES, CaptureTable, datagram_values
from repro.core.offnet import OffnetServers
from repro.core.packet_mix import PacketMix
from repro.core.scid_entropy import (
    NybbleMatrix,
    chi_square_uniformity,
    is_structured,
)
from repro.core.scid_stats import ScidTable
from repro.core.versions import TABLE2_ROWS, VersionMix

#: ``rows`` key per klass code.
_KLASS_NAMES = tuple(klass.value for klass in KLASS_VALUES)


class StreamAnalyses:
    """The core accumulators side by side; feed row batches, read anytime."""

    def __init__(self) -> None:
        #: Rows per packet class ("backscatter" / "scan").
        self.rows: Counter = Counter()
        self.rows_by_origin: Counter = Counter()
        self.rows_fed = 0
        # Indexed by klass code: 0 = backscatter (servers side),
        # 1 = scan (clients side).
        self._versions = (VersionMix(), VersionMix())
        self._session_keys = tuple(mix.keys for mix in self._versions)
        self.session_buckets = tuple(mix.counts for mix in self._versions)
        self._mix = PacketMix()
        #: origin → Counter(datagram category), VN excluded (Table 3).
        self.packet_mix = self._mix.counts
        self._scid_table = ScidTable()
        #: origin → ScidStats (backscatter SCIDs, Table 4).
        self.scids = self._scid_table.stats
        self._offnet = OffnetServers()
        self.ts_min: Optional[float] = None
        self.ts_max: Optional[float] = None

    # -- ingestion -------------------------------------------------------

    def feed(self, table: CaptureTable, start: int, end: int) -> int:
        """Absorb rows ``[start, end)`` of ``table``; returns rows fed.

        Rows must be fed exactly once and in table order (the follower's
        append-only cursor guarantees both).
        """
        self._absorb(table.datagrams(start, end))
        return end - start

    def add(self, packet) -> None:
        """Absorb one ``CapturedPacket``-shaped datagram."""
        self._absorb((datagram_values(packet),))

    def _absorb(self, datagrams) -> None:
        """Count each datagram, given as its ``DATAGRAM_FIELDS`` values."""
        for (
            timestamp,
            src_ip,
            dst_ip,
            klass,
            origin,
            payload_length,
            types,
            versions,
            dcids,
            scids,
            _lengths,
        ) in datagrams:
            if self.ts_min is None or timestamp < self.ts_min:
                self.ts_min = timestamp
            if self.ts_max is None or timestamp > self.ts_max:
                self.ts_max = timestamp
            self.rows[_KLASS_NAMES[klass]] += 1
            self.rows_by_origin[origin] += 1
            self.rows_fed += 1
            self._versions[klass].add_values(
                (src_ip, dst_ip, scids[0], dcids[0]),  # SessionStore.key_of
                versions[0],
            )
            self._mix.add_values(origin, types)
            if not klass:  # SCID/off-net features come from backscatter only
                self._scid_table.add_values(origin, types, scids)
                self._offnet.add_values(origin, src_ip, types, scids, payload_length)

    # -- reading ---------------------------------------------------------

    def matrix(self, origin: str) -> NybbleMatrix:
        stats = self.scids.get(origin)
        if stats is None:
            return NybbleMatrix(freq=[], sample_size=0)
        return stats.matrix()

    def offnet_counts(self) -> Tuple[int, int]:
        """(candidate servers, servers passing the low-host-ID test)."""
        return self._offnet.counts()

    @property
    def span_seconds(self) -> float:
        if self.ts_min is None or self.ts_max is None:
            return 0.0
        return self.ts_max - self.ts_min

    def snapshot(self) -> dict:
        """Plain-data view of every reducer (dashboard and test surface)."""
        span = self.span_seconds
        sessions = {}
        for code, side in ((1, "clients"), (0, "servers")):
            sessions[side] = {
                "total": len(self._session_keys[code]),
                "buckets": dict(self.session_buckets[code]),
            }
        scids = {}
        for origin, accumulator in self.scids.items():
            matrix = accumulator.matrix()
            scids[origin] = {
                "unique": accumulator.unique_count,
                "lengths": dict(accumulator.length_counts),
                "dominant_length": accumulator.dominant_length,
                "structured": is_structured(matrix),
                "max_chi2": max(chi_square_uniformity(matrix), default=0.0),
            }
        servers, low = self.offnet_counts()
        return {
            "rows": dict(self.rows),
            "rows_fed": self.rows_fed,
            "sessions": sessions,
            "packet_mix": {
                origin: dict(counter) for origin, counter in self.packet_mix.items()
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
