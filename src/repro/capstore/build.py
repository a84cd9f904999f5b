"""Build :class:`CaptureTable` from pcaps: streaming, parallel, sharded.

Every build is :func:`dissect_pcap` — one pass of
:class:`~repro.netstack.pcap.PcapWalk` over the file, each record's bytes
handed in place to the keep/drop verdict of :mod:`repro.capstore.dissect`,
which appends the kept rows' columns.  Around it, all producing
bit-identical tables for the same record multiset:

* :func:`build_capture_table` — one pcap, serially or with row-group
  parallelism: the parent walks the file once for the record offsets
  (and the content digest), splits them into contiguous groups, a worker
  pool dissects each group, and the parent concatenates the partial
  tables in file order.  The verdict is stateless per record, so
  concatenation *is* the serial result;
* :func:`build_from_shards` — per-shard pcaps (as written by
  ``repro simulate --workers N`` before its merge): each shard is
  dissected in parallel, then rows are interleaved by streaming a k-way
  merge over the shard *record* streams with the same
  :func:`~repro.netstack.pcap.record_sort_key` discipline the simulator
  uses, so the result equals indexing the merged pcap;
* :func:`build_from_records` — the same verdict over records already in
  memory (a scenario's telescope, a test's list).

Workers are handed *factory* callables for the AS database and the
acknowledged-scanner registry (must be module-level, hence picklable);
each worker builds its own instances instead of serializing them.
"""

from __future__ import annotations

import heapq
import os
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.capstore.dissect import record_verdict
from repro.capstore.table import CaptureTable
from repro.inetdata.asdb import ISP_NETWORKS, AsDatabase, AsEntry
from repro.netstack.pcap import (
    PcapCursor,
    PcapError,
    PcapRecord,
    PcapWalk,
    iter_pcap,
    record_sort_key,
)
from repro.obs import NULL_OBS, Observability
from repro.obs.trace import CAT_SANITIZE
from repro.pool import run_pool
from repro.telescope.acknowledged import RESEARCH_NETWORKS, AcknowledgedScanners
from repro.telescope.classify import DROP_REASONS, SanitizationStats


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
    kept_flags: Optional[bytearray] = None,
) -> Tuple[Callable[[float, bytes, int, int], None], Callable[[], SanitizationStats]]:
    """One dissection pass into ``table``: the verdict plus its bookkeeping.

    Returns ``(on_record, finish)``.  ``on_record(timestamp, buf, start,
    end)`` takes each record; ``finish()`` returns the pass's own
    :class:`SanitizationStats` and emits them as ``sanitize.packets``
    counters, once (the values are a pure function of the stats).  Each
    drop is a ``sanitize:drop`` trace event while a tracer is listening.
    ``kept_flags`` receives one byte per record (1 = kept as a row) — the
    alignment data :func:`build_from_shards` needs to interleave rows
    during its record-stream merge.
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
        if kept_flags is not None:
            kept_flags.append(reason is None)

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
    asdb: Optional[AsDatabase] = None,
    acknowledged: Optional[AcknowledgedScanners] = None,
    validate_crypto_scans: bool = True,
    obs: Optional[Observability] = None,
    limit: Optional[int] = None,
    kept_flags: Optional[bytearray] = None,
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

    Returns the stats of this pass alone (``limit`` caps its records);
    see :func:`_dissection` for ``kept_flags`` and what ``obs`` receives.
    With a profiler attached, each chunk is one ``index.records`` leaf stage.
    """
    on_record, finish = _dissection(
        table, asdb, acknowledged, validate_crypto_scans, obs, kept_flags
    )
    prof = (obs or NULL_OBS).prof
    with PcapWalk(path, cursor, limit) as walk:
        if prof is None:
            walk.run(on_record)
        else:
            while not walk.done:
                node, began = prof.leaf_begin("index.records")
                prof.leaf_end(node, began, packets=walk.step(on_record))
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


def _merge_stats(parts: Iterable[SanitizationStats]) -> SanitizationStats:
    total = SanitizationStats()
    for part in parts:
        total.add(part)
    return total


def emit_stats_counters(stats: SanitizationStats, obs: Optional[Observability]) -> None:
    """Emit ``sanitize.packets`` counter values from a pass's stats.

    The counter values are a pure function of the stats, so a dissection
    pass emits them once when it ends, and cache hits and the parent of
    parallel workers emit the same values from stored or merged stats
    (per-drop trace events are the one thing only an in-process pass
    produces).
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


def _worker_build(payload: tuple):
    """Pool target: dissect one row group of one pcap into a partial table.

    ``count`` records from byte ``offset`` — or, with ``count`` None, the
    whole of a finished file (a shard), which must then end on a record
    boundary and comes back with its per-record kept flags.  The partial
    table travels back over the pool's pipe: a worker writes no file.
    """
    path, offset, count, validate_crypto_scans, asdb_factory, ack_factory = payload
    kept_flags = bytearray() if count is None else None
    table = CaptureTable()
    cursor = PcapCursor(offset)
    stats = dissect_pcap(
        path,
        cursor,
        table,
        asdb=asdb_factory() if asdb_factory else None,
        acknowledged=ack_factory() if ack_factory else None,
        validate_crypto_scans=validate_crypto_scans,
        limit=count,
        kept_flags=kept_flags,
    )
    if count is None:
        if cursor.offset != os.path.getsize(path):
            raise PcapError(
                "%s: truncated pcap record at byte %d" % (path, cursor.offset)
            )
    elif stats.total_records < count:
        raise PcapError(
            "row group at offset %d ends before %d records" % (offset, count)
        )
    return table, stats, kept_flags


def _run_workers(payloads: list, unit: str) -> list:
    return [part for _index, part in sorted(run_pool(_worker_build, payloads, unit))]


def _row_groups(offsets: Sequence[int], workers: int) -> List[Tuple[int, int]]:
    """Split record offsets into ≤ ``workers`` contiguous (offset, count) groups."""
    total = len(offsets)
    groups: List[Tuple[int, int]] = []
    workers = max(1, min(workers, total))
    base, extra = divmod(total, workers)
    start = 0
    for index in range(workers):
        count = base + (1 if index < extra else 0)
        if count == 0:
            break
        groups.append((offsets[start], count))
        start += count
    return groups


def build_capture_table(
    pcap_path: str,
    workers: int = 1,
    validate_crypto_scans: bool = True,
    obs: Optional[Observability] = None,
    asdb_factory: Callable[[], AsDatabase] = default_asdb,
    ack_factory: Callable[[], AcknowledgedScanners] = default_acknowledged,
    cursor: Optional[PcapCursor] = None,
) -> Tuple[CaptureTable, SanitizationStats]:
    """Build the columnar table for one pcap, optionally in parallel.

    The table covers the pcap's complete-record prefix — all of a
    finished capture, everything in front of the torn record of one still
    being appended to.  ``cursor``, if given, starts at 0 and ends where
    that prefix does, its digest fed exactly those bytes: what the
    sidecar's source fingerprint is made of.

    ``workers > 1`` splits the file into contiguous row groups and
    dissects them in a process pool; the concatenated result is exactly
    the serial table.  Factories must be module-level callables so they
    pickle into workers by reference.
    """
    obs = obs or NULL_OBS
    if cursor is None:
        cursor = PcapCursor()
    limit = None
    if workers > 1:
        # The planning pass: where each record starts (and the digest).
        with PcapWalk(pcap_path, cursor) as walk:
            offsets = walk.record_offsets()
        groups = _row_groups(offsets, workers)
        if len(groups) > 1:
            how = (validate_crypto_scans, asdb_factory, ack_factory)
            parts = _run_workers(
                [(pcap_path, offset, count, *how) for offset, count in groups],
                "row group",
            )
            table = CaptureTable()
            for part_table, _stats, _flags in parts:
                table.extend(part_table)
            stats = _merge_stats(part_stats for _t, part_stats, _f in parts)
            emit_stats_counters(stats, obs)
            return table, stats
        # Too few records to split: dissect the ones the plan saw, here.
        cursor, limit = PcapCursor(), len(offsets)
    table = CaptureTable()
    stats = dissect_pcap(
        pcap_path,
        cursor,
        table,
        asdb=asdb_factory() if asdb_factory else None,
        acknowledged=ack_factory() if ack_factory else None,
        validate_crypto_scans=validate_crypto_scans,
        obs=obs,
        limit=limit,
    )
    return table, stats


def build_from_shards(
    shard_paths: Sequence[str],
    validate_crypto_scans: bool = True,
    obs: Optional[Observability] = None,
    asdb_factory: Callable[[], AsDatabase] = default_asdb,
    ack_factory: Callable[[], AcknowledgedScanners] = default_acknowledged,
) -> Tuple[CaptureTable, SanitizationStats]:
    """Index per-shard pcaps in parallel; equals indexing their merge.

    Each shard is dissected by its own worker.  Rows are then interleaved
    by k-way-merging the shard *record* streams under
    :func:`record_sort_key` — the identical discipline
    :func:`repro.netstack.pcap.merge_pcap_files` applies when ``simulate
    --workers`` merges shard captures — while per-record kept flags keep
    the row cursors aligned with the record cursors.
    """
    obs = obs or NULL_OBS
    how = (validate_crypto_scans, asdb_factory, ack_factory)
    parts = _run_workers([(path, 0, None, *how) for path in shard_paths], "shard")

    def shard_stream(shard_index: int):
        for record_index, record in enumerate(iter_pcap(shard_paths[shard_index])):
            yield record_sort_key(record), shard_index, record_index

    merged = heapq.merge(*(shard_stream(i) for i in range(len(shard_paths))))
    table = CaptureTable()
    row_cursors = [0] * len(shard_paths)
    for _key, shard_index, record_index in merged:
        if parts[shard_index][2][record_index]:
            table.append_row_from(parts[shard_index][0], row_cursors[shard_index])
            row_cursors[shard_index] += 1
    stats = _merge_stats(part_stats for _t, part_stats, _f in parts)
    emit_stats_counters(stats, obs)
    return table, stats
