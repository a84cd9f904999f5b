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

Both directions move the payload column by column, so each holds the
table's bytes once: the writer hashes and writes every column straight
from its array's buffer, and the loader sizes nothing from the header
before the columns' sizes add up to what the file holds, then reads each
column straight into its array and checks the payload's checksum before
any value in it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from array import array
from dataclasses import dataclass
from operator import le, lt
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


def _write_index(
    fileobj,
    table: CaptureTable,
    stats: SanitizationStats,
    source: Optional[dict],
    pipeline: Optional[dict],
) -> None:
    """Serialize a table (+stats, +source fingerprint) into ``fileobj``.

    The columns are hashed and written through ``memoryview``s of their
    own buffers, so nothing but the header is copied on the way out.
    """
    buffers = [(name, memoryview(column)) for name, column in _columns(table)]
    buffers.append(("blob", memoryview(table.blob)))
    digest = hashlib.blake2b(digest_size=16)
    for _name, buffer in buffers:
        digest.update(buffer)
    header = {
        "byteorder": sys.byteorder,
        "rows": table.num_rows,
        "packets": table.num_packets,
        "origins": table.origins,
        "stats": {field: getattr(stats, field) for field in STATS_FIELDS},
        "source": source or {},
        "pipeline": pipeline or {},
        "columns": [
            {"name": name, "typecode": buffer.format, "count": len(buffer)}
            for name, buffer in buffers
        ],
        "payload_blake2b": digest.hexdigest(),
    }
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    fileobj.write(MAGIC + SCHEMA_VERSION.to_bytes(4, "little"))
    fileobj.write(len(header_bytes).to_bytes(4, "little") + header_bytes)
    for _name, buffer in buffers:
        fileobj.write(buffer)


def dumps_index(
    table: CaptureTable,
    stats: SanitizationStats,
    source: Optional[dict] = None,
    pipeline: Optional[dict] = None,
) -> bytes:
    """The .capidx bytes :func:`dump_index` writes, in memory."""
    out = io.BytesIO()
    _write_index(out, table, stats, source, pipeline)
    return out.getvalue()


def dump_index(
    path: str,
    table: CaptureTable,
    stats: SanitizationStats,
    source: Optional[dict] = None,
    pipeline: Optional[dict] = None,
) -> None:
    """Write the sidecar whole or not at all (:func:`atomic_output`)."""
    with atomic_output(path, "wb") as fileobj:
        _write_index(fileobj, table, stats, source, pipeline)


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
    """Read, checksum-verify, and deserialize a sidecar, column by column.

    The checksum covers the payload, not the header that says how to cut
    it, so the header is held to the schema it declares before a column
    is read, and the columns' sizes to what the file holds before a
    buffer is sized: a sidecar that does not describe a table this
    version can have written raises :class:`CapIndexError` like a torn
    one.  Each column is read straight into its own array, feeding the
    checksum as it goes, so the payload is held once; the checksum is
    verified before any value in it is checked or returned.
    """
    with open(path, "rb") as fileobj:
        header = _read_header(fileobj, path)
        try:
            schema = _schema(header)
        except _MALFORMED as exc:
            raise _malformed(path, exc) from exc
        want = sum(count * array(typecode).itemsize for _, typecode, count in schema)
        held = os.fstat(fileobj.fileno()).st_size - fileobj.tell()
        if want != held:
            raise CapIndexError(
                "%s: the columns take %d bytes, the payload is %d" % (path, want, held)
            )
        table = CaptureTable()
        digest = hashlib.blake2b(digest_size=16)
        for name, typecode, count in schema:
            column = bytearray(count) if name == "blob" else array(typecode, [0]) * count
            with memoryview(column) as view:
                if fileobj.readinto(view) != view.nbytes:
                    raise CapIndexError("%s: truncated payload" % path)
                digest.update(view)
            setattr(table, name, column)
    if digest.hexdigest() != header.get("payload_blake2b"):
        raise CapIndexError("%s: payload checksum mismatch" % path)
    try:
        return _checked(header, table)
    except _MALFORMED as exc:
        raise _malformed(path, exc) from exc


#: What a wrong-shaped header throws on the way is the same answer as a
#: check it fails: not a sidecar to trust.
_MALFORMED = (LookupError, TypeError, ValueError, AttributeError)


def _malformed(path: str, exc: Exception) -> CapIndexError:
    return CapIndexError(
        "%s: malformed header (%s: %s)" % (path, type(exc).__name__, exc)
    )


def _require(held: bool, what: str) -> None:
    if not held:
        raise ValueError(what)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # JSON ``true`` is not a count


def _schema(header: dict) -> list:
    """``(name, typecode, count)`` of each column ``header`` describes.

    Raises ``ValueError`` for a header outside the schema; one of the
    wrong shape altogether may raise anything :data:`_MALFORMED` names.
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
    return schema


def _checked(header: dict, table: CaptureTable) -> IndexPayload:
    """The payload of a table read as ``header`` describes, its values held
    to the schema.

    Raises ``ValueError`` for a value outside it.  The checks run as
    C-level passes over the columns themselves, copying none, so readers
    can index ``origins``, the packet-type tables and the offset columns
    without a bounds check per row.
    """
    origins, stats = header["origins"], header["stats"]
    if header["byteorder"] != sys.byteorder:
        for name, _ in ROW_COLUMNS + PACKET_COLUMNS + OFFSET_COLUMNS:
            getattr(table, name).byteswap()
        table.sv_values.byteswap()

    # A row has at least one packet; a packet may own no bytes.
    for name, child, follows in (
        ("pkt_start", table.num_packets, lt),
        ("bytes_start", len(table.blob), le),
        ("sv_start", len(table.sv_values), le),
    ):
        with memoryview(getattr(table, name)) as offsets:
            _require(
                offsets[0] == 0
                and offsets[-1] == child
                and all(map(follows, offsets[:-1], offsets[1:])),
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
        source=header.get("source", {}),
        pipeline=header.get("pipeline", {}),
        schema_version=header["_schema_version"],
    )
