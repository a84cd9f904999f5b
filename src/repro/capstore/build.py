"""Build :class:`CaptureTable` from a pcap, or from records in memory.

Every build is one keep/drop verdict of :mod:`repro.capstore.dissect`
per record, appending the kept rows' columns, over one record source —
all producing bit-identical tables for the same records in the same
order, in this process:

* :func:`dissect_pcap` — one pass of :class:`~repro.netstack.pcap.PcapWalk`
  over a file, each record's bytes handed to the verdict in place;
* :func:`build_capture_table` — one pcap, cold: :func:`dissect_pcap`
  from its first record into a new table;
* :func:`build_from_records` — the same verdict over records already in
  memory (a scenario's telescope, a test's list) or streamed.

A sharded ``simulate`` merges its shards into one pcap before anything
reads them, so a capture on disk is always one file.

The read path has one pipeline: the CLI's AS database and
acknowledged-scanner registry (:func:`default_asdb`,
:func:`default_acknowledged`) with AEAD validation of scans.  Only
:func:`build_from_records` takes another, for the sanitiser ablation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from repro.capstore.dissect import record_verdict
from repro.capstore.table import CaptureTable
from repro.core.selectors import DROP_REASONS
from repro.inetdata.asdb import ISP_NETWORKS, AsDatabase, AsEntry
from repro.netstack.pcap import PcapCursor, PcapRecord, PcapWalk
from repro.obs import NULL_OBS, Observability
from repro.obs.trace import CAT_SANITIZE
from repro.telescope.acknowledged import RESEARCH_NETWORKS, AcknowledgedScanners
from repro.telescope.classify import SanitizationStats


def default_asdb() -> AsDatabase:
    """The CLI's AS database: hypergiants plus the scenario ISP networks."""
    asdb = AsDatabase.with_hypergiants()
    for asn, name, prefix in ISP_NETWORKS:
        asdb.register(prefix, AsEntry(asn, name, category="isp"))
    return asdb


def default_acknowledged() -> AcknowledgedScanners:
    """The CLI's acknowledged-scanner registry (paper's research scanners)."""
    scanners = AcknowledgedScanners()
    for prefix, name in RESEARCH_NETWORKS:
        scanners.register(prefix, name)
    return scanners


def _dissection(
    table: CaptureTable,
    asdb: Optional[AsDatabase],
    acknowledged: Optional[AcknowledgedScanners],
    validate_crypto_scans: bool,
    obs: Optional[Observability],
) -> Tuple[Callable[[float, bytes, int, int], None], Callable[[], SanitizationStats]]:
    """One dissection pass into ``table``: the verdict plus its bookkeeping.

    Returns ``(on_record, finish)``.  ``on_record(timestamp, buf, start,
    end)`` takes each record; ``finish()`` returns the pass's own
    :class:`SanitizationStats` and emits them as ``sanitize.packets``
    counters, once (the values are a pure function of the stats).  Each
    drop is a ``sanitize:drop`` trace event while a tracer is listening.
    """
    verdict = record_verdict(table, asdb, acknowledged, validate_crypto_scans)
    tracer = (obs or NULL_OBS).tracer
    rows_before = table.num_rows
    drops = dict.fromkeys(DROP_REASONS, 0)
    seen = 0

    def on_record(timestamp: float, buf: bytes, start: int, end: int) -> None:
        nonlocal seen
        seen += 1
        reason = verdict(timestamp, buf, start, end)
        if reason is not None:
            drops[reason] += 1
            if tracer.enabled:
                tracer.emit(
                    CAT_SANITIZE,
                    "drop",
                    time=timestamp,
                    reason=reason,
                    bytes=end - start,
                )

    def finish() -> SanitizationStats:
        kept = table.klass[rows_before:]
        scans = sum(kept)  # the klass codes are 0 (backscatter) and 1 (scan)
        stats = SanitizationStats(
            total_records=seen, backscatter=len(kept) - scans, scans=scans, **drops
        )
        emit_stats_counters(stats, obs)
        return stats

    return on_record, finish


def dissect_pcap(
    path: str,
    cursor: PcapCursor,
    table: CaptureTable,
    obs: Optional[Observability] = None,
) -> SanitizationStats:
    """Dissect the complete records after ``cursor`` into ``table``.

    The one file pass every build, extension and live poll is: the pcap
    is read once, in chunks, and each record goes from the chunk's bytes
    to column appends.  ``cursor`` ends one past the last record
    consumed — short of the file's end while a writer is mid-append, or
    where a record header stops making sense — with its digest, if it
    has one, fed exactly the bytes passed over.  Appending the records
    of a grown pcap's tail to the table built from its prefix yields
    exactly the table a full pass would build, because rows are
    append-only and the verdict is stateless per record.

    Returns the stats of this pass alone; see :func:`_dissection` for
    what ``obs`` receives.
    """
    on_record, finish = _dissection(
        table, default_asdb(), default_acknowledged(), True, obs
    )
    with PcapWalk(path, cursor) as walk:
        walk.run(on_record)
    return finish()


def build_from_records(
    records: Iterable[PcapRecord],
    asdb: Optional[AsDatabase] = None,
    acknowledged: Optional[AcknowledgedScanners] = None,
    validate_crypto_scans: bool = True,
    obs: Optional[Observability] = None,
) -> Tuple[CaptureTable, SanitizationStats]:
    """Dissect records already in memory: records in, columnar table out.

    The same verdict, counters and trace events as :func:`dissect_pcap`,
    for callers that hold :class:`PcapRecord` objects instead of a file.
    """
    table = CaptureTable()
    on_record, finish = _dissection(
        table, asdb, acknowledged, validate_crypto_scans, obs
    )
    for record in records:
        data = record.data
        on_record(record.timestamp, data, 0, len(data))
    return table, finish()


def emit_stats_counters(stats: SanitizationStats, obs: Optional[Observability]) -> None:
    """Emit ``sanitize.packets`` counter values from a pass's stats.

    The counter values are a pure function of the stats, so a dissection
    pass emits them once when it ends, and cache hits and extensions
    emit the same values from stored stats (per-drop trace events are the
    one thing only a dissection pass produces).
    """
    obs = obs or NULL_OBS
    if obs.metrics is None:
        return
    counter = obs.metrics.counter("sanitize.packets", ("stage",))
    for reason in DROP_REASONS:
        value = getattr(stats, reason)
        if value:
            counter.inc_key((reason,), value)
    if stats.backscatter:
        counter.inc_key(("kept_backscatter",), stats.backscatter)
    if stats.scans:
        counter.inc_key(("kept_scan",), stats.scans)


def build_capture_table(
    pcap_path: str,
    obs: Optional[Observability] = None,
    cursor: Optional[PcapCursor] = None,
) -> Tuple[CaptureTable, SanitizationStats]:
    """Build the columnar table for one pcap: one :func:`dissect_pcap` pass.

    The table covers the pcap's complete-record prefix — all of a
    finished capture, everything in front of the torn record of one still
    being appended to.  ``cursor``, if given, starts at 0 and ends where
    that prefix does, its digest fed exactly those bytes: what the
    sidecar's source fingerprint is made of.
    """
    table = CaptureTable()
    stats = dissect_pcap(pcap_path, cursor or PcapCursor(), table, obs=obs)
    return table, stats
