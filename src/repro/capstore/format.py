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
through a temp file + ``os.replace`` so a crashed build never leaves a
half-written sidecar that a later run would trust.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from array import array
from dataclasses import dataclass
from typing import Optional

from repro.capstore.table import (
    OFFSET_COLUMNS,
    PACKET_COLUMNS,
    ROW_COLUMNS,
    CaptureTable,
)
from repro.errors import InputFileError
from repro.telescope.classify import SanitizationStats

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
    """Atomically write the sidecar: temp file in the same dir + rename."""
    blob = dumps_index(table, stats, source=source, pipeline=pipeline)
    tmp_path = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp_path, "wb") as fileobj:
        fileobj.write(blob)
    os.replace(tmp_path, path)


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
    header_bytes = fileobj.read(header_len)
    if len(header_bytes) < header_len:
        raise CapIndexError("%s: truncated header" % path)
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise CapIndexError("%s: corrupt header (%s)" % (path, exc)) from exc
    header["_schema_version"] = schema
    return header


def read_header(path: str) -> dict:
    """Parse only the JSON header (cheap inspection, no payload read)."""
    with open(path, "rb") as fileobj:
        return _read_header(fileobj, path)


def load_index(path: str) -> IndexPayload:
    """Read, checksum-verify, and deserialize a sidecar."""
    with open(path, "rb") as fileobj:
        header = _read_header(fileobj, path)
        payload = fileobj.read()
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    if digest != header.get("payload_blake2b"):
        raise CapIndexError("%s: payload checksum mismatch" % path)

    table = CaptureTable()
    swap = header.get("byteorder", sys.byteorder) != sys.byteorder
    cursor = 0
    for descriptor in header["columns"]:
        name = descriptor["name"]
        count = descriptor["count"]
        if name == "blob":
            table.blob = bytearray(payload[cursor : cursor + count])
            cursor += count
            continue
        column = array(descriptor["typecode"])
        nbytes = count * column.itemsize
        if cursor + nbytes > len(payload):
            raise CapIndexError("%s: truncated column %s" % (path, name))
        column.frombytes(payload[cursor : cursor + nbytes])
        if swap:
            column.byteswap()
        cursor += nbytes
        setattr(table, name, column)
    table.origins = list(header["origins"])
    table.rebuild_origin_index()
    if table.num_rows != header["rows"] or table.num_packets != header["packets"]:
        raise CapIndexError("%s: column counts disagree with header" % path)
    stats = SanitizationStats(**header["stats"])
    return IndexPayload(
        table=table,
        stats=stats,
        source=header.get("source", {}),
        pipeline=header.get("pipeline", {}),
        schema_version=header["_schema_version"],
    )
