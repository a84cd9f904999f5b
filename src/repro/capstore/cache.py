"""Transparent sidecar caching: dissect once, analyze many times.

:func:`load_or_build` is the analysis plane's single entry point.  On a
cache miss it streams the pcap once through the dissection pipeline
(:func:`~repro.capstore.build.build_capture_table`) and writes the ``.capidx``
sidecar next to the pcap; on a hit it deserializes columns straight from
disk — no UDP decoding, no QUIC dissection, no AEAD validation.

Validity is judged against a source fingerprint stored in the sidecar
header: the pcap's size and mtime_ns when the sidecar was written, and
the *prefix* the index covers — ``indexed_bytes`` (how far into the pcap
the dissection ran), ``prefix_sha256`` (content hash of exactly those
bytes) and ``records`` (how many records they held).  One rule,
:func:`check_sidecar`, reads it for every caller: an index of the whole
file hits while size and mtime are unchanged, without hashing; otherwise
the pcap must still start with the indexed prefix.  A capture that
*grew* — the live-telescope case: a pcap being appended to while
analyses run — then has only the appended tail dissected (result
``extended``); a merely-touched one still hits; a rewritten or truncated
one (even with a back-dated timestamp) fails the prefix check and
rebuilds from scratch.  The hash is a by-product of the dissection pass,
not a pass of its own: the build feeds one running digest the bytes it
walks over, and an extension continues the digest the prefix check just
computed.  The digest is SHA-256, truncated to 128 bits: CPUs with SHA
extensions (x86 ``sha_ni``, ARMv8 SHA2) hash it over twice as fast
as BLAKE2b — over a 48 MB pcap, 48 ms against 106 ms on a 2-CPU x86 box
with ``sha_ni`` — and a cold ``index`` reads every byte through it.  The
gain depends on the CPU: without SHA extensions OpenSSL's SHA-256 is
usually slower than BLAKE2b, and that case has not been measured.

Everything is wired through ``repro.obs``: ``index.load``/``index.build``
/``index.extend`` stage timers, a ``capstore.cache``
hit/extended/stale/miss counter, and ``capstore.rows`` row counts per
class.
"""

from __future__ import annotations

import hashlib
import os
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

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
    return hashlib.sha256()


def _prefix_hash(digest) -> str:
    """What a fingerprint stores of a prefix digest: 128 bits, in hex."""
    return digest.hexdigest()[:32]


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


def prefix_fingerprint(
    pcap_path: str,
    indexed_bytes: int,
    records: Optional[int] = None,
    digest=None,
) -> dict:
    """The source fingerprint a sidecar stores: what it indexed, of which file.

    The pcap's ``size`` and ``mtime_ns``; ``indexed_bytes``, the byte
    offset the dissection covered — one past the last complete record at
    build time; ``prefix_sha256``, the hash of exactly those bytes; and
    ``records``, the record count in the prefix.  ``digest`` is the
    running hash of those ``indexed_bytes`` bytes when the caller's
    dissection pass kept one (a :class:`~repro.netstack.pcap.PcapCursor`'s);
    without it the prefix is read here.
    """
    if digest is None:
        digest = _new_digest()
        _hash_range(pcap_path, digest, 0, indexed_bytes)
    stat = os.stat(pcap_path)
    fingerprint = {
        "size": stat.st_size,
        "mtime_ns": stat.st_mtime_ns,
        "indexed_bytes": indexed_bytes,
        "prefix_sha256": _prefix_hash(digest),
    }
    if records is not None:
        fingerprint["records"] = records
    return fingerprint


class SidecarCheck(NamedTuple):
    """What a stored fingerprint says of the pcap on disk: :func:`check_sidecar`."""

    result: str  # "hit", "extend" or "stale"
    grown: int = 0  # "extend": the bytes after the indexed prefix
    digest: object = None  # "extend": the running hash of the indexed prefix


def check_sidecar(stored: dict, pcap_path: str) -> SidecarCheck:
    """The one validity rule: is a stored fingerprint a hit, an extension, stale?

    An index of the whole file hits while the pcap's size and mtime are
    the stored ones, without hashing.  Otherwise the pcap must still
    start with the indexed prefix: then it is a hit if nothing follows
    it (the file was only touched), else the next build extends the
    index by the bytes after it, continuing the prefix's hash.  A pcap
    that does not start with the prefix (rewritten, truncated), or
    nothing stored, is stale — a file shorter than the prefix without
    being read.
    """
    stat = os.stat(pcap_path)
    size, indexed = stat.st_size, stored.get("indexed_bytes")
    if indexed == stored.get("size") == size and (
        stored.get("mtime_ns") == stat.st_mtime_ns
    ):
        return SidecarCheck("hit")
    from repro.netstack.pcap import GLOBAL_HEADER_SIZE

    prefix_hash = stored.get("prefix_sha256")
    if prefix_hash is None or not GLOBAL_HEADER_SIZE <= (indexed or 0) <= size:
        return SidecarCheck("stale")
    digest = _new_digest()
    intact = _hash_range(pcap_path, digest, 0, indexed)
    if not intact or _prefix_hash(digest) != prefix_hash:
        return SidecarCheck("stale")
    if size == indexed:
        return SidecarCheck("hit")
    return SidecarCheck("extend", size - indexed, digest)


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
            check = check_sidecar(payload.source, pcap_path)
            indexed = payload.source.get("indexed_bytes")
            if check.result == "hit":
                return _finish_hit(payload, index_path, indexed, obs, cache_counter)
            if check.result == "extend":
                return _extend(
                    payload,
                    pcap_path,
                    index_path,
                    indexed,
                    check.digest,
                    obs,
                    cache_counter,
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
