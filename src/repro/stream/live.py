"""Streaming ingestion of a growing pcap capture.

:class:`PcapFollower` is the live twin of
:func:`repro.capstore.load_or_build`: it polls a capture that another
process is still appending to, dissects only the records completed
since the previous poll (the walk stops in front of a torn record, so a
mid-append writer is never misread), and appends the rows into one
persistent :class:`~repro.capstore.CaptureTable`.  The
first poll seeds from the ``.capidx`` sidecar when one covers a valid
prefix — a ``repro live`` attached to an already-indexed capture starts
where the index ends instead of re-dissecting from byte zero — and
:meth:`PcapFollower.finish` persists the accumulated table back as the
sidecar, so the follow itself warms the batch plane's cache.

Because rows are append-only and classification is stateless per
record, the table a follower holds after consuming the whole file is
*equal* to the table one batch pass would build — the property the
``repro live`` final render and ``benchmarks/bench_stream.py`` assert.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.capstore.build import dissect_pcap
from repro.capstore.cache import DEFAULT_PIPELINE, load_or_build, write_sidecar
from repro.capstore.format import IndexPayload
from repro.capstore.table import CaptureTable, ClassifiedView
from repro.core.report import render_table
from repro.core.versions import TABLE2_ROWS
from repro.netstack.pcap import GLOBAL_HEADER_SIZE, PcapCursor
from repro.obs import NULL_OBS, Observability
from repro.telescope.classify import SanitizationStats


class PcapFollower:
    """Poll one growing pcap, appending new rows into a live table.

    The follower tolerates every state a capture-in-progress can be in:
    not created yet, shorter than the global header, ending in a torn
    record (all three: wait), or *shrunk* — a fresh run reusing the
    path — which resets the table and re-seeds (:attr:`resets` counts
    these so consumers know their fed-row cursors are void).  An
    in-place rewrite at equal-or-larger size is indistinguishable from
    growth without re-hashing the prefix every poll, so live mode
    detects rewrites only via shrinkage; the final batch-parity render
    in ``repro live`` re-validates everything.
    """

    def __init__(
        self,
        path: str,
        obs: Optional[Observability] = None,
        use_cache: bool = True,
    ) -> None:
        self.path = path
        self.obs = obs or NULL_OBS
        self.use_cache = use_cache
        self.table: Optional[CaptureTable] = None
        self.stats: Optional[SanitizationStats] = None
        #: Byte offset one past the last complete record absorbed.
        self.offset = 0
        self.resets = 0
        self.polls = 0

    @property
    def started(self) -> bool:
        return self.table is not None

    @property
    def num_rows(self) -> int:
        return self.table.num_rows if self.table is not None else 0

    def view(self) -> ClassifiedView:
        """The capture as the analysis plane sees it (requires started)."""
        return ClassifiedView(self.table, self.stats)

    def poll(self) -> int:
        """Absorb newly completed records; returns the rows appended."""
        self.polls += 1
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return 0  # not created yet (or deleted): keep waiting
        if self.table is not None and size < self.offset:
            self._reset()
        if self.table is None:
            return self._seed(size)
        if size <= self.offset:
            return 0
        return self._absorb()

    def _absorb(self) -> int:
        """Dissect what completed after :attr:`offset` into the table."""
        before = self.table.num_rows
        cursor = PcapCursor(self.offset)
        self.stats.add(dissect_pcap(self.path, cursor, self.table, obs=self.obs))
        self.offset = cursor.offset
        return self.table.num_rows - before

    def _seed(self, size: int) -> int:
        if size < GLOBAL_HEADER_SIZE:
            return 0  # the global header itself is still being written
        if self.use_cache:
            view, _hit = load_or_build(self.path, obs=self.obs)
            self.table = view.table
            self.stats = view.stats
            self.offset = view.indexed_bytes
            return self.table.num_rows
        self.table = CaptureTable()
        self.stats = SanitizationStats()
        return self._absorb()

    def _reset(self) -> None:
        self.table = None
        self.stats = None
        self.offset = 0
        self.resets += 1

    def finish(self) -> None:
        """Persist the accumulated table as the pcap's ``.capidx`` sidecar.

        The stored fingerprint covers exactly the prefix this follower
        absorbed, so a later batch ``repro analyze`` hits (or extends)
        the index the live session already paid for.  Failure to write
        (read-only directory) downgrades to a warning.
        """
        if not self.use_cache or self.table is None:
            return
        payload = IndexPayload(
            self.table, self.stats, source={}, pipeline=dict(DEFAULT_PIPELINE)
        )
        write_sidecar(self.path, payload, PcapCursor(self.offset))


def render_dashboard(
    followers: List[PcapFollower], analyses, polls: int
) -> str:
    """The ``repro live`` refresh: follower states plus reducer headline.

    ``analyses`` is a :class:`~repro.stream.reducers.StreamAnalyses`;
    only its :meth:`snapshot` is used, so tests can pass a stub.
    """
    snap = analyses.snapshot()
    parts: List[str] = []
    parts.append(
        render_table(
            ["capture", "state", "rows", "bytes", "resets"],
            [
                [
                    os.path.basename(follower.path) or follower.path,
                    "live" if follower.started else "waiting",
                    follower.num_rows,
                    follower.offset,
                    follower.resets,
                ]
                for follower in followers
            ],
            title="repro live — poll %d, %d rows fed" % (polls, snap["rows_fed"]),
        )
    )
    parts.append("")
    sessions = snap["sessions"]
    parts.append(
        render_table(
            ["QUIC version", "client sessions", "server sessions"],
            [
                [
                    bucket,
                    sessions["clients"]["buckets"].get(bucket, 0),
                    sessions["servers"]["buckets"].get(bucket, 0),
                ]
                for bucket in TABLE2_ROWS
            ]
            + [
                [
                    "total",
                    sessions["clients"]["total"],
                    sessions["servers"]["total"],
                ]
            ],
            title="Version mix (online)",
        )
    )
    parts.append("")
    origin_rows = []
    for origin in sorted(
        set(snap["packet_mix"]) | set(snap["scids"]) | set(snap["rows_per_sec"])
    ):
        mix = snap["packet_mix"].get(origin, {})
        total = sum(mix.values())
        coalesced = mix.get("Coalesced Initial & Handshake", 0)
        scids = snap["scids"].get(origin)
        origin_rows.append(
            [
                origin,
                total,
                "%.1f%%" % (100.0 * coalesced / total) if total else "-",
                scids["unique"] if scids else 0,
                scids["dominant_length"] or "-" if scids else "-",
                ("yes" if scids["structured"] else "no") if scids else "-",
                "%.1f" % snap["rows_per_sec"].get(origin, 0.0),
            ]
        )
    parts.append(
        render_table(
            [
                "origin",
                "datagrams",
                "coalesced",
                "SCIDs",
                "dom len",
                "structured",
                "rows/s",
            ],
            origin_rows,
            title="Per-origin mix (online)",
        )
    )
    parts.append("")
    offnet = snap["offnet"]
    parts.append(
        "rows: %d backscatter / %d scans | off-net servers: %d "
        "(low host-ID: %d) | capture span: %.1f s"
        % (
            snap["rows"].get("backscatter", 0),
            snap["rows"].get("scan", 0),
            offnet["servers"],
            offnet["low_host_id"],
            snap["span_seconds"],
        )
    )
    return "\n".join(parts)
