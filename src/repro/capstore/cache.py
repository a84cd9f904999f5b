"""Transparent sidecar caching: dissect once, analyze many times.

:func:`load_or_build` is the analysis plane's single entry point.  On a
cache miss it streams the pcap once through the dissection pipeline
(:func:`~repro.capstore.build.build_capture_table`) and writes the ``.capidx``
sidecar next to the pcap; on a hit it deserializes columns straight from
disk — no UDP decoding, no QUIC dissection, no AEAD validation.

Validity is judged against a source fingerprint stored in the sidecar
header: file size first (cheapest), then mtime_ns (a match lets us skip
hashing the pcap), with a blake2b content hash as the authoritative
check when the mtime moved — so a rewritten capture invalidates even
with a back-dated timestamp, and a merely-touched file still hits.

The fingerprint also records the *prefix* the index covers —
``indexed_bytes`` (how far into the pcap the dissection ran),
``prefix_blake2b`` (content hash of exactly those bytes), and
``records`` (how many records they held).  A capture that *grew* —
the live-telescope case: a pcap being appended to while analyses run —
revalidates against the prefix hash and only the appended tail is
dissected (result ``extended``), instead of the former full rebuild on
any size change.  A rewritten or truncated pcap still fails the prefix
check and rebuilds from scratch.  The hash is a by-product of the
dissection pass, not a pass of its own: the build feeds one running
digest the bytes it walks over, an extension continues the digest the
prefix check just computed, and the whole-file hash is that digest
carried on through whatever the index does not cover.

Everything is wired through ``repro.obs``: ``index.load``/``index.build``
/``index.extend`` stage timers, a ``capstore.cache``
hit/extended/stale/miss counter, and ``capstore.rows`` row counts per
class.
"""

from __future__ import annotations

import hashlib
import os
import sys
from typing import TYPE_CHECKING, Optional, Tuple

from repro.capstore.format import (
    CapIndexError,
    IndexPayload,
    dump_index,
    load_index,
)
from repro.capstore.table import ClassifiedView
from repro.core.selectors import DROP_REASONS
from repro.obs import NULL_OBS, Observability
from repro.obs.trace import CAT_CAPSTORE

if TYPE_CHECKING:
    from repro.netstack.pcap import PcapCursor
    from repro.telescope.classify import SanitizationStats

#: Pipeline identity recorded in the sidecar; a cache entry built with a
#: different classification setup must not satisfy a default-pipeline read.
DEFAULT_PIPELINE = {"asdb": "default", "acknowledged": "default", "validate_crypto_scans": True}


def sidecar_path(pcap_path: str) -> str:
    return pcap_path + ".capidx"


def _new_digest():
    return hashlib.blake2b(digest_size=16)


def _hash_range(pcap_path: str, digest, start: int, end: Optional[int] = None) -> bool:
    """Feed ``digest`` the file's bytes ``start..end`` (``None``: to EOF).

    False if the file ends before ``end``.
    """
    remaining = float("inf") if end is None else end - start
    with open(pcap_path, "rb") as fileobj:
        fileobj.seek(start)
        while remaining > 0:
            chunk = fileobj.read(min(1 << 20, remaining))
            if not chunk:
                break
            digest.update(chunk)
            remaining -= len(chunk)
    return end is None or remaining == 0


def pcap_fingerprint(pcap_path: str, with_hash: bool = True) -> dict:
    """Identity of the source pcap: size, mtime_ns, blake2b content hash."""
    stat = os.stat(pcap_path)
    fingerprint = {"size": stat.st_size, "mtime_ns": stat.st_mtime_ns}
    if with_hash:
        digest = _new_digest()
        _hash_range(pcap_path, digest, 0)
        fingerprint["blake2b"] = digest.hexdigest()
    return fingerprint


def prefix_fingerprint(
    pcap_path: str,
    indexed_bytes: int,
    records: Optional[int] = None,
    digest=None,
) -> dict:
    """Source fingerprint extended with prefix coverage.

    Adds to :func:`pcap_fingerprint`'s size/mtime/full-hash triple:
    ``indexed_bytes`` (the byte offset the dissection covered — one past
    the last complete record at build time), ``prefix_blake2b`` (hash of
    exactly those bytes), and ``records`` (record count in the prefix).
    ``digest`` is the running hash of those ``indexed_bytes`` bytes when
    the caller's dissection pass kept one (a
    :class:`~repro.netstack.pcap.PcapCursor`'s); without it the prefix is
    read here.  Either way the whole-file hash is the same digest carried
    on through the bytes the index does not cover — none, for a finished
    capture.
    """
    if digest is None:
        digest = _new_digest()
        _hash_range(pcap_path, digest, 0, indexed_bytes)
    stat = os.stat(pcap_path)
    full_digest = digest.copy()
    if stat.st_size > indexed_bytes:
        _hash_range(pcap_path, full_digest, indexed_bytes)
    fingerprint = {
        "size": stat.st_size,
        "mtime_ns": stat.st_mtime_ns,
        "blake2b": full_digest.hexdigest(),
        "indexed_bytes": indexed_bytes,
        "prefix_blake2b": digest.hexdigest(),
    }
    if records is not None:
        fingerprint["records"] = records
    return fingerprint


def fingerprint_matches(stored: dict, pcap_path: str) -> bool:
    """Is a stored fingerprint still valid for the pcap on disk?"""
    if not stored:
        return False
    current = pcap_fingerprint(pcap_path, with_hash=False)
    if stored.get("size") != current["size"]:
        return False
    if stored.get("mtime_ns") == current["mtime_ns"]:
        return True  # unchanged inode metadata: trust without re-hashing
    return stored.get("blake2b") == pcap_fingerprint(pcap_path)["blake2b"]


def _indexed_prefix(stored: dict) -> Tuple[Optional[int], Optional[str]]:
    """``(indexed_bytes, prefix hash)`` of a stored fingerprint.

    Sidecars written before the prefix fields existed fall back to their
    whole-file values — the stored size and the full-content hash, which
    is exactly the prefix hash when the index covered the whole file.
    """
    return (
        stored.get("indexed_bytes", stored.get("size")),
        stored.get("prefix_blake2b", stored.get("blake2b")),
    )


def _matching_prefix_digest(stored: dict, pcap_path: str):
    """The running hash of the indexed prefix, if the pcap still starts with it.

    ``None`` when it does not (rewritten, truncated, or nothing stored);
    otherwise the digest of exactly the first ``indexed_bytes`` bytes,
    ready to be continued through whatever was appended since.
    """
    from repro.netstack.pcap import GLOBAL_HEADER_SIZE

    indexed, prefix_hash = _indexed_prefix(stored)
    if indexed is None or prefix_hash is None or indexed < GLOBAL_HEADER_SIZE:
        return None  # nothing stored, or not a record boundary to resume at
    digest = _new_digest()
    if not _hash_range(pcap_path, digest, 0, indexed):
        return None  # truncated below the indexed prefix
    return digest if digest.hexdigest() == prefix_hash else None


def prefix_matches(stored: dict, pcap_path: str) -> bool:
    """Does the pcap on disk still start with the indexed prefix?

    A *grown* capture passes (only the tail needs dissection); a
    rewritten or truncated one fails.
    """
    return _matching_prefix_digest(stored, pcap_path) is not None


def load_or_build(
    pcap_path: str,
    use_cache: bool = True,
    obs: Optional[Observability] = None,
) -> Tuple[ClassifiedView, bool]:
    """Return ``(view, cache_hit)`` for a pcap: hit, extend, or rebuild.

    With ``use_cache`` (the default) a valid ``.capidx`` sidecar is loaded
    instead of dissecting, and a freshly built index is persisted for the
    next run; ``use_cache=False`` both ignores and skips writing the
    sidecar (the ``--no-cache`` escape hatch).  ``cache_hit`` is True only
    for a pure hit; the ``capstore.cache`` counter tells a hit from an
    ``extended`` index (valid prefix, only the grown tail dissected) and
    a ``miss`` (full build, after a ``stale`` sidecar or none).

    The build (and extension) paths cover exactly the pcap's
    complete-record *prefix* — a capture still being appended to is
    indexed up to the last complete record, never through a torn tail
    (``view.indexed_bytes`` says where it ends) — and the stored
    fingerprint records that coverage, so the next call dissects only
    what arrived since.
    """
    obs = obs or NULL_OBS
    metrics = obs.metrics
    tracer = obs.tracer
    cache_counter = (
        metrics.counter("capstore.cache", ("result",)) if metrics is not None else None
    )
    index_path = sidecar_path(pcap_path)

    if use_cache and os.path.exists(index_path):
        payload = _load_payload(index_path, obs)
        if payload is not None:
            stored = payload.source
            indexed = _indexed_prefix(stored)[0]
            covers_whole_file = indexed == stored.get("size")
            if covers_whole_file and fingerprint_matches(stored, pcap_path):
                return _finish_hit(payload, index_path, indexed, obs, cache_counter)
            digest = _matching_prefix_digest(stored, pcap_path)
            if digest is not None:
                return _extend(
                    payload, pcap_path, index_path, indexed, digest, obs, cache_counter
                )
        if cache_counter is not None:
            cache_counter.inc_key(("stale",))

    if cache_counter is not None:
        cache_counter.inc_key(("miss",))
    # A hit loads columns only: the dissector is imported by the builds.
    from repro.capstore.build import build_capture_table
    from repro.netstack.pcap import PcapCursor

    # The digest is fed exactly the bytes the build walks over, so the
    # stored fingerprint describes what was indexed even if a writer
    # appends concurrently.
    cursor = PcapCursor(digest=_new_digest())
    with obs.span("index.build", local=True, path=pcap_path):
        table, stats = build_capture_table(pcap_path, obs=obs, cursor=cursor)
    payload = IndexPayload(
        table=table, stats=stats, source={}, pipeline=dict(DEFAULT_PIPELINE)
    )
    _count_rows(payload, metrics)
    if tracer.enabled:
        tracer.emit(
            CAT_CAPSTORE,
            "index_built",
            path=pcap_path,
            rows=table.num_rows,
        )
    if use_cache:
        write_sidecar(pcap_path, payload, cursor)
    return ClassifiedView(table, stats, cursor.offset), False


def _finish_hit(
    payload: IndexPayload,
    index_path: str,
    indexed: int,
    obs: Observability,
    cache_counter,
) -> Tuple[ClassifiedView, bool]:
    if cache_counter is not None:
        cache_counter.inc_key(("hit",))
    _count_rows(payload, obs.metrics)
    emit_stats_counters(payload.stats, obs)
    if obs.tracer.enabled:
        obs.tracer.emit(
            CAT_CAPSTORE,
            "index_hit",
            path=index_path,
            rows=payload.table.num_rows,
        )
    return ClassifiedView(payload.table, payload.stats, indexed), True


def _extend(
    payload: IndexPayload,
    pcap_path: str,
    index_path: str,
    indexed: int,
    digest,
    obs: Observability,
    cache_counter,
) -> Tuple[ClassifiedView, bool]:
    """Dissect whatever completed after the indexed prefix into its table.

    The walk starts at ``indexed`` with ``digest``, the prefix hash the
    check computed, so the grown file is read once from there.  Nothing
    complete there yet (a writer is mid-append, or the next record header
    is corrupt) is a plain hit: the prefix view is still the full truth.
    """
    from repro.capstore.build import dissect_pcap
    from repro.netstack.pcap import PcapCursor

    cursor = PcapCursor(indexed, digest)
    prefix_rows = payload.table.num_rows
    with obs.span("index.extend", local=True, path=pcap_path) as span:
        tail_stats = dissect_pcap(pcap_path, cursor, payload.table, obs=obs)
        span.note(records=tail_stats.total_records)
    if cursor.offset == indexed:
        return _finish_hit(payload, index_path, indexed, obs, cache_counter)
    if cache_counter is not None:
        cache_counter.inc_key(("extended",))
    # Counter parity with a full run: the tail pass emitted its own
    # counts, the prefix totals come from the stored stats.
    emit_stats_counters(payload.stats, obs)
    payload.stats.add(tail_stats)
    _count_rows(payload, obs.metrics)
    if obs.tracer.enabled:
        obs.tracer.emit(
            CAT_CAPSTORE,
            "index_extended",
            path=index_path,
            rows=payload.table.num_rows,
            new_rows=payload.table.num_rows - prefix_rows,
        )
    write_sidecar(pcap_path, payload, cursor)
    return ClassifiedView(payload.table, payload.stats, cursor.offset), False


def write_sidecar(pcap_path: str, payload: IndexPayload, cursor: PcapCursor) -> None:
    """Persist ``payload`` next to the pcap, fingerprinted up to ``cursor``.

    The stored fingerprint covers exactly the prefix the cursor passed
    (its digest, if it kept one, saves reading those bytes again).
    Failure to write (read-only directory) downgrades to a warning.
    """
    index_path = sidecar_path(pcap_path)
    payload.source = source = prefix_fingerprint(
        pcap_path,
        cursor.offset,
        records=payload.stats.total_records,
        digest=cursor.digest,
    )
    try:
        dump_index(
            index_path,
            payload.table,
            payload.stats,
            source=source,
            pipeline=payload.pipeline,
        )
    except OSError as exc:  # read-only dir: analysis still proceeds
        print(
            "warning: could not write %s: %s" % (index_path, exc),
            file=sys.stderr,
        )


def _load_payload(index_path: str, obs: Observability) -> Optional[IndexPayload]:
    """Load a sidecar + check pipeline identity; None on corruption/mismatch.

    Source-fingerprint classification (hit / extend / stale) happens in
    the caller, which needs the distinction; this helper only guarantees
    the payload is intact and was built by the same pipeline.
    """
    try:
        with obs.span("index.load", local=True, path=index_path):
            payload = load_index(index_path)
    except (CapIndexError, OSError):
        return None
    if payload.pipeline != DEFAULT_PIPELINE:
        return None
    return payload


def _count_rows(payload: IndexPayload, metrics) -> None:
    if metrics is None:
        return
    rows = metrics.counter("capstore.rows", ("klass",))
    if payload.stats.backscatter:
        rows.inc_key(("backscatter",), payload.stats.backscatter)
    if payload.stats.scans:
        rows.inc_key(("scan",), payload.stats.scans)


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
