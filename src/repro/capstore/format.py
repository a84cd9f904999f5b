"""Versioned on-disk format for :class:`CaptureTable` (`.capidx` sidecar).

Layout (all integers little-endian):

=========  =====================================================
bytes      contents
=========  =====================================================
0..7       magic ``b"RQCAPIDX"``
8..11      schema version (u32)
12..15     header length (u32)
16..31     blake2b-128 of the header bytes
32..       header: UTF-8 JSON (source fingerprint, stats, origins,
           column descriptors, blake2b of the payload)
..         payload: column bytes concatenated in descriptor order
=========  =====================================================

The payload holds, in order (:func:`_schema`, schema 3):

* the row columns (``rows`` entries): timestamp, addresses, the port of
  the side that is not 443, payload length, class and origin ids;
* the packet columns (``packets``): type, version, packet-number offset,
  length, the id of the packet's (DCID, SCID) pair and its token length;
* the pair columns (``pairs``): the two CID lengths of each distinct
  pair, in first-seen order;
* the packets of each row (``rows``);
* the version count of each Version Negotiation packet, the supported
  versions, the pairs' CID bytes and the tokens (an Initial's or a
  Retry's; no packet has both), each as long as its own content.

Each fact is stored once and nothing a load can recompute is stored: a
repeated pair is one id, not its bytes again; the offset columns are
rebuilt from the packet counts and the pair lengths
(:meth:`CaptureTable.restore_offsets`), the token and version offsets
from ``token_len`` and the counts when a reader first asks; a packet's
payload length is its length less its packet-number offset; and the
port on the 443 side is the class's.  Every length inside one datagram
is held in 16 bits.

The header carries everything needed to validate before touching the
payload: a schema version for forward evolution, the source pcap
fingerprint (size + mtime_ns + content hash) for cache invalidation, and
a blake2b checksum of the payload against torn writes.  The header's own
checksum sits in front of it, so a flipped byte anywhere past the schema
version raises :class:`SidecarCorrupt`; a file of another schema raises
a plain :class:`CapIndexError`, and the cache rebuilds on either.
Writes go through :func:`repro.atomic.atomic_output` so a crashed build
never leaves a half-written sidecar that a later run would trust.

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
from itertools import chain
from operator import gt
from typing import Optional

from repro.atomic import atomic_output
from repro.capstore.table import (
    BLOB_COLUMNS,
    COUNT_COLUMNS,
    PACKET_COLUMNS,
    PAIR_COLUMNS,
    ROW_COLUMNS,
    VARIABLE_COLUMNS,
    CaptureTable,
)
from repro.errors import InputFileError
from repro.quic.packet_type import PacketType
from repro.telescope.classify import (
    KLASS_CODES,
    KLASS_VALUES,
    PacketClass,
    SanitizationStats,
)

MAGIC = b"RQCAPIDX"
SCHEMA_VERSION = 3
#: Magic, schema version, header length and the header's checksum.
PREFIX_SIZE = 32

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
    """Raised on a file that is not a .capidx sidecar this version can load."""


class SidecarCorrupt(CapIndexError):
    """Raised on a sidecar whose bytes fail a checksum or are cut short."""


@dataclass
class IndexPayload:
    """A deserialized sidecar: the table plus its provenance."""

    table: CaptureTable
    stats: SanitizationStats
    source: dict
    pipeline: dict
    schema_version: int = SCHEMA_VERSION


def _columns(table: CaptureTable) -> list:
    """``(name, buffer)`` of each payload column, in the schema's order."""
    named = [
        (name, getattr(table, name))
        for name, _ in ROW_COLUMNS + PACKET_COLUMNS + PAIR_COLUMNS
    ]
    named.append(("pkt_count", table.packet_counts()))
    named += [(name, getattr(table, name)) for name, _ in VARIABLE_COLUMNS]
    return [(name, memoryview(column)) for name, column in named]


def _write_index(
    fileobj,
    table: CaptureTable,
    stats: SanitizationStats,
    source: Optional[dict],
    pipeline: Optional[dict],
) -> None:
    """Serialize a table (+stats, +source fingerprint) into ``fileobj``.

    The columns are hashed and written through ``memoryview``s of their
    own buffers, so nothing but the header and the packet counts is
    made on the way out.
    """
    buffers = _columns(table)
    digest = hashlib.blake2b(digest_size=16)
    for _name, buffer in buffers:
        digest.update(buffer)
    header = {
        "byteorder": sys.byteorder,
        "rows": table.num_rows,
        "packets": table.num_packets,
        "pairs": table.num_pairs,
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
    header_digest = hashlib.blake2b(header_bytes, digest_size=16).digest()
    fileobj.write(MAGIC + SCHEMA_VERSION.to_bytes(4, "little"))
    fileobj.write(len(header_bytes).to_bytes(4, "little") + header_digest)
    fileobj.write(header_bytes)
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
    prefix = fileobj.read(PREFIX_SIZE)
    if len(prefix) < 12 or prefix[:8] != MAGIC:
        raise CapIndexError("%s: not a .capidx file (bad magic)" % path)
    schema = int.from_bytes(prefix[8:12], "little")
    if schema != SCHEMA_VERSION:
        raise CapIndexError(
            "%s: unsupported schema version %d (expected %d)"
            % (path, schema, SCHEMA_VERSION)
        )
    header_len = int.from_bytes(prefix[12:16], "little")
    # Asked of the file, not of ``read``: a lying length must not size a buffer.
    if (
        len(prefix) < PREFIX_SIZE
        or header_len > os.fstat(fileobj.fileno()).st_size - PREFIX_SIZE
    ):
        raise SidecarCorrupt("%s: truncated header" % path)
    header_bytes = fileobj.read(header_len)
    if hashlib.blake2b(header_bytes, digest_size=16).digest() != prefix[16:]:
        raise SidecarCorrupt("%s: header checksum mismatch" % path)
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise _malformed(path, exc) from exc
    if type(header) is not dict:
        raise CapIndexError("%s: malformed header (not an object)" % path)
    header["_schema_version"] = schema
    return header


def read_header(path: str) -> dict:
    """Parse only the JSON header (cheap inspection, no payload read)."""
    with open(path, "rb") as fileobj:
        return _read_header(fileobj, path)


def load_index(path: str) -> IndexPayload:
    """Read, checksum-verify, and deserialize a sidecar, column by column.

    The header's checksum is verified before it is parsed, and the
    header is held to the schema it declares before a column is read,
    and the columns' sizes to what the file holds before a buffer is
    sized: a sidecar that does not describe a table this version can
    have written raises :class:`CapIndexError`, one whose bytes are torn
    or flipped :class:`SidecarCorrupt`.  Each column is read straight
    into its own array, feeding the payload checksum as it goes, so the
    payload is held once; the checksum is verified before any value in
    it is checked or returned.
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
            raise SidecarCorrupt(
                "%s: the columns take %d bytes, the payload is %d" % (path, want, held)
            )
        columns = {}
        digest = hashlib.blake2b(digest_size=16)
        for name, typecode, count in schema:
            if name in BLOB_COLUMNS:  # read-only bytes: see CaptureTable.pair_index
                column = fileobj.read(count)
                if len(column) != count:
                    raise SidecarCorrupt("%s: truncated payload" % path)
                digest.update(column)
            else:
                column = array(typecode, [0]) * count
                with memoryview(column) as view:
                    if fileobj.readinto(view) != view.nbytes:
                        raise SidecarCorrupt("%s: truncated payload" % path)
                    digest.update(view)
            columns[name] = column
    if digest.hexdigest() != header.get("payload_blake2b"):
        raise SidecarCorrupt("%s: payload checksum mismatch" % path)
    try:
        return _checked(header, columns)
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
    rows, packets, pairs = header["rows"], header["packets"], header["pairs"]
    origins, stats = header["origins"], header["stats"]
    source, pipeline = header.get("source", {}), header.get("pipeline", {})
    _require(
        _is_count(rows) and _is_count(packets) and _is_count(pairs),
        "rows/packets/pairs are not counts",
    )
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
    # but those of the variable columns, which the loaded values are
    # checked against.
    described = [(d["name"], d["typecode"], d["count"]) for d in header["columns"]]
    variable = [count for _, _, count in described[-len(VARIABLE_COLUMNS) :]]
    schema = (
        [(name, typecode, rows) for name, typecode in ROW_COLUMNS]
        + [(name, typecode, packets) for name, typecode in PACKET_COLUMNS]
        + [(name, typecode, pairs) for name, typecode in PAIR_COLUMNS]
        + [(name, typecode, rows) for name, typecode in COUNT_COLUMNS]
        + [
            (name, typecode, count)
            for (name, typecode), count in zip(VARIABLE_COLUMNS, variable)
        ]
    )
    _require(
        described == schema and all(map(_is_count, variable)),
        "columns are not the schema's",
    )
    return schema


def _checked(header: dict, columns: dict) -> IndexPayload:
    """The table ``columns``, read as ``header`` describes, held to the schema.

    Raises ``ValueError`` for a value outside it.  The checks run as
    C-level passes over the columns themselves, copying none, so readers
    can index ``origins``, the packet-type tables, the pairs and the
    offset columns without a bounds check per row.
    """
    origins, stats = header["origins"], header["stats"]
    blobs = [(name, columns.pop(name)) for name in BLOB_COLUMNS]
    if header["byteorder"] != sys.byteorder:
        for column in columns.values():
            column.byteswap()
    pkt_count = columns.pop("pkt_count")
    table = CaptureTable()
    for name, column in chain(columns.items(), blobs):
        setattr(table, name, column)

    # A row has at least one packet; a packet may own no bytes.
    _require(0 not in pkt_count, "a row without packets")
    table.restore_offsets(pkt_count)
    for name, end, child in (
        ("pkt_start", table.pkt_start[-1], table.num_packets),
        ("cid_start", table.cid_start[-1], len(table.cid_blob)),
        ("token_start", sum(table.token_len), len(table.token_blob)),
        ("sv_start", sum(table.sv_count), len(table.sv_values)),
    ):
        _require(end == child, "%s does not partition its %d entries" % (name, child))
    # One-byte codes: delete the valid ones and nothing may be left.
    klass, pkt_type = table.klass.tobytes(), table.pkt_type.tobytes()
    _require(
        max(table.origin_id, default=-1) < len(origins)
        and not klass.translate(None, bytes(range(len(KLASS_VALUES))))
        and not pkt_type.translate(None, bytes(range(len(PacketType)))),
        "a code column points outside its table",
    )
    _require(
        max(table.cid, default=-1) < table.num_pairs,
        "a cid points outside the %d pairs" % table.num_pairs,
    )
    _require(
        pkt_type.count(PacketType.VERSION_NEGOTIATION.value) == len(table.sv_count),
        "sv_count is not one count per Version Negotiation packet",
    )
    _require(
        not any(map(gt, table.pkt_pn_offset, table.pkt_length)),
        "a packet-number offset lies past its packet's end",
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
