"""Versioned on-disk format for :class:`CaptureTable` (`.capidx` sidecar).

Layout (all integers little-endian):

=========  =====================================================
bytes      contents
=========  =====================================================
0..7       magic ``b"RQCAPIDX"``
8..11      schema version (u32)
12..15     header length (u32)
16..       header: UTF-8 JSON (source fingerprint, stats, origins,
           column descriptors, blake2b of the payload)
..         payload: column bytes concatenated in descriptor order
=========  =====================================================

The header carries everything needed to validate before touching the
payload: a schema version for forward evolution, the source pcap
fingerprint (size + mtime_ns + content hash) for cache invalidation, and
a blake2b checksum of the payload against torn writes.  Writes go
through :func:`repro.atomic.atomic_output` so a crashed build never
leaves a half-written sidecar that a later run would trust.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from array import array
from dataclasses import dataclass
from typing import Optional

from repro.atomic import atomic_output
from repro.capstore.table import (
    KLASS_CODES,
    KLASS_VALUES,
    OFFSET_COLUMNS,
    PACKET_COLUMNS,
    ROW_COLUMNS,
    CaptureTable,
)
from repro.errors import InputFileError
from repro.quic.packet import PacketType
from repro.telescope.classify import PacketClass, SanitizationStats

MAGIC = b"RQCAPIDX"
SCHEMA_VERSION = 1

#: Fields of SanitizationStats persisted in the header (the derived
#: ``removed``/``removed_share`` properties are recomputed on load).
STATS_FIELDS = (
    "total_records",
    "non_udp",
    "non_port_443",
    "failed_dissection",
    "acknowledged_scanner",
    "backscatter",
    "scans",
)


class CapIndexError(InputFileError):
    """Raised on malformed, truncated, or checksum-failing .capidx files."""


@dataclass
class IndexPayload:
    """A deserialized sidecar: the table plus its provenance."""

    table: CaptureTable
    stats: SanitizationStats
    source: dict
    pipeline: dict
    schema_version: int = SCHEMA_VERSION


def _columns(table: CaptureTable) -> list:
    """(name, array) pairs in canonical serialization order."""
    named = [
        (name, getattr(table, name))
        for name, _ in ROW_COLUMNS + PACKET_COLUMNS + OFFSET_COLUMNS
    ]
    named.append(("sv_values", table.sv_values))
    return named


def dumps_index(
    table: CaptureTable,
    stats: SanitizationStats,
    source: Optional[dict] = None,
    pipeline: Optional[dict] = None,
) -> bytes:
    """Serialize a table (+stats, +source fingerprint) to .capidx bytes."""
    columns = _columns(table)
    payload_parts = [column.tobytes() for _name, column in columns]
    payload_parts.append(bytes(table.blob))
    payload = b"".join(payload_parts)
    header = {
        "byteorder": sys.byteorder,
        "rows": table.num_rows,
        "packets": table.num_packets,
        "origins": table.origins,
        "stats": {field: getattr(stats, field) for field in STATS_FIELDS},
        "source": source or {},
        "pipeline": pipeline or {},
        "columns": [
            {"name": name, "typecode": column.typecode, "count": len(column)}
            for name, column in columns
        ]
        + [{"name": "blob", "typecode": "B", "count": len(table.blob)}],
        "payload_blake2b": hashlib.blake2b(payload, digest_size=16).hexdigest(),
    }
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    return b"".join(
        (
            MAGIC,
            SCHEMA_VERSION.to_bytes(4, "little"),
            len(header_bytes).to_bytes(4, "little"),
            header_bytes,
            payload,
        )
    )


def dump_index(
    path: str,
    table: CaptureTable,
    stats: SanitizationStats,
    source: Optional[dict] = None,
    pipeline: Optional[dict] = None,
) -> None:
    """Write the sidecar whole or not at all (:func:`atomic_output`)."""
    blob = dumps_index(table, stats, source=source, pipeline=pipeline)
    with atomic_output(path, "wb") as fileobj:
        fileobj.write(blob)


def _read_header(fileobj, path: str) -> dict:
    """The JSON header at the front of an open sidecar, fully checked."""
    prefix = fileobj.read(16)
    if len(prefix) < 16 or prefix[:8] != MAGIC:
        raise CapIndexError("%s: not a .capidx file (bad magic)" % path)
    schema = int.from_bytes(prefix[8:12], "little")
    if schema != SCHEMA_VERSION:
        raise CapIndexError(
            "%s: unsupported schema version %d (expected %d)"
            % (path, schema, SCHEMA_VERSION)
        )
    header_len = int.from_bytes(prefix[12:16], "little")
    # Asked of the file, not of ``read``: a lying length must not size a buffer.
    if header_len > os.fstat(fileobj.fileno()).st_size - len(prefix):
        raise CapIndexError("%s: truncated header" % path)
    try:
        header = json.loads(fileobj.read(header_len))
    except ValueError as exc:
        raise CapIndexError("%s: corrupt header (%s)" % (path, exc)) from exc
    if type(header) is not dict:
        raise CapIndexError("%s: corrupt header (not an object)" % path)
    header["_schema_version"] = schema
    return header


def read_header(path: str) -> dict:
    """Parse only the JSON header (cheap inspection, no payload read)."""
    with open(path, "rb") as fileobj:
        return _read_header(fileobj, path)


def load_index(path: str) -> IndexPayload:
    """Read, checksum-verify, and deserialize a sidecar.

    The checksum covers the payload, not the header that says how to cut
    it, so the header is held to the schema it declares before a column
    is trusted: a sidecar that does not describe a table this version
    can have written raises :class:`CapIndexError` like a torn one.
    """
    with open(path, "rb") as fileobj:
        header = _read_header(fileobj, path)
        payload = fileobj.read()
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    if digest != header.get("payload_blake2b"):
        raise CapIndexError("%s: payload checksum mismatch" % path)
    try:
        return _deserialize(header, payload)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        # Whatever a wrong-shaped header throws on the way is the same
        # answer as a check it fails: not a sidecar to trust.
        raise CapIndexError(
            "%s: malformed header (%s: %s)" % (path, type(exc).__name__, exc)
        ) from exc


def _require(held: bool, what: str) -> None:
    if not held:
        raise ValueError(what)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # JSON ``true`` is not a count


def _deserialize(header: dict, payload: bytes) -> IndexPayload:
    """Cut ``payload`` into the table ``header`` describes.

    Raises ``ValueError`` for a header outside the schema; one of the
    wrong shape altogether may raise anything :func:`load_index` catches.
    The value checks run as C-level passes over whole columns, so
    readers can index ``origins``, the packet-type tables and the offset
    columns without a bounds check per row.
    """
    rows, packets = header["rows"], header["packets"]
    origins, stats = header["origins"], header["stats"]
    source, pipeline = header.get("source", {}), header.get("pipeline", {})
    _require(_is_count(rows) and _is_count(packets), "rows/packets are not counts")
    _require(header["byteorder"] in ("little", "big"), "unknown byteorder")
    _require(
        type(origins) is list and all(type(name) is str for name in origins),
        "origins is not a list of names",
    )
    _require(
        sorted(stats) == sorted(STATS_FIELDS) and all(map(_is_count, stats.values())),
        "stats are not the %d sanitisation counts" % len(STATS_FIELDS),
    )
    _require(
        stats["backscatter"] + stats["scans"] == rows, "stats disagree with rows"
    )
    _require(
        type(source) is dict and type(pipeline) is dict,
        "source/pipeline are not objects",
    )

    # Names, typecodes and order are the schema's; so is every length
    # but the last two, which the offset columns are checked against.
    described = [(d["name"], d["typecode"], d["count"]) for d in header["columns"]]
    sv_count, blob_count = described[-2][2], described[-1][2]
    schema = (
        [(name, typecode, rows) for name, typecode in ROW_COLUMNS]
        + [(name, typecode, packets) for name, typecode in PACKET_COLUMNS]
        + [
            (name, typecode, parent + 1)
            for (name, typecode), parent in zip(OFFSET_COLUMNS, (rows, packets, packets))
        ]
        + [("sv_values", "I", sv_count), ("blob", "B", blob_count)]
    )
    _require(
        described == schema and _is_count(sv_count) and _is_count(blob_count),
        "columns are not the schema's",
    )

    table = CaptureTable()
    swap = header["byteorder"] != sys.byteorder
    cursor = 0
    for name, typecode, count in schema:
        if name == "blob":
            table.blob = bytearray(payload[cursor : cursor + count])
            cursor += count
            continue
        column = array(typecode)
        nbytes = count * column.itemsize
        column.frombytes(payload[cursor : cursor + nbytes])
        if swap:
            column.byteswap()
        cursor += nbytes
        setattr(table, name, column)
    _require(cursor == len(payload), "columns do not add up to the payload")

    # A row has at least one packet; a packet may own no bytes.
    for name, child, strictly in (
        ("pkt_start", packets, True),
        ("bytes_start", len(table.blob), False),
        ("sv_start", len(table.sv_values), False),
    ):
        offsets = getattr(table, name).tolist()
        _require(
            offsets[0] == 0
            and offsets[-1] == child
            and sorted(set(offsets) if strictly else offsets) == offsets,
            "%s does not partition its %d entries" % (name, child),
        )
    # One-byte codes: delete the valid ones and nothing may be left.
    klass, pkt_type = table.klass.tobytes(), table.pkt_type.tobytes()
    _require(
        max(table.origin_id, default=-1) < len(origins)
        and not klass.translate(None, bytes(range(len(KLASS_VALUES))))
        and not pkt_type.translate(None, bytes(range(len(PacketType)))),
        "a code column points outside its table",
    )
    _require(
        klass.count(KLASS_CODES[PacketClass.SCAN]) == stats["scans"],
        "stats disagree with klass",
    )

    table.origins = list(origins)
    table.rebuild_origin_index()
    return IndexPayload(
        table=table,
        stats=SanitizationStats(**stats),
        source=source,
        pipeline=pipeline,
        schema_version=header["_schema_version"],
    )
