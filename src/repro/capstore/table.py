"""Columnar storage for sanitized telescope captures.

A :class:`CaptureTable` holds one sanitized datagram per *row* in parallel
typed arrays (``array`` module — compact, picklable, serializable with a
single ``tobytes()`` per column), and one parsed long header per *packet*
entry.  Rows reference their packets through a prefix-offset array, and
variable-length packet fields (DCID/SCID/token/retry token) live as slices
of one shared byte blob — the layout the paper's "dissect once, analyze
many times" pipeline wants: dense, order-preserving, and cheap to
concatenate across row groups built by parallel workers.

Rows are written by :func:`repro.capstore.dissect.record_verdict`, straight
from record bytes, and read back two ways.  The analyses fold over
:meth:`CaptureTable.datagrams`, which cuts the columns into one tuple of
plain values per row and builds no object; a test, bench or example
that asks for objects gets real
:class:`~repro.telescope.classify.CapturedPacket` instances from
:meth:`CaptureTable.materialize`.  There is no shape in between.
"""

from __future__ import annotations

from array import array
from operator import add
from typing import Iterator, List, Optional, Tuple

from repro.quic.packet import PacketType, ParsedLongHeader
from repro.telescope.classify import (
    CapturedPacket,
    ClassifiedCapture,
    PacketClass,
    SanitizationStats,
    type_codes,
)

#: Row-level columns, in serialization order: (attribute, array typecode).
ROW_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("ts", "d"),
    ("src_ip", "I"),
    ("dst_ip", "I"),
    ("src_port", "H"),
    ("dst_port", "H"),
    ("payload_len", "I"),
    ("klass", "B"),
    ("origin_id", "I"),
)

#: Packet-level columns, in serialization order.
PACKET_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pkt_type", "B"),
    ("pkt_version", "I"),
    ("pkt_pn_offset", "I"),
    ("pkt_length", "I"),
    ("pkt_payload_length", "I"),
    ("dcid_len", "B"),
    ("scid_len", "B"),
    ("token_len", "I"),
    ("retry_token_len", "I"),
)

#: Prefix-offset columns: one more entry than their parent dimension.
OFFSET_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pkt_start", "I"),  # row -> first packet index
    ("bytes_start", "Q"),  # packet -> first blob byte
    ("sv_start", "I"),  # packet -> first supported-version entry
)

#: The ``klass`` column's codes (``KLASS_VALUES`` is the way back).
KLASS_CODES = {PacketClass.BACKSCATTER: 0, PacketClass.SCAN: 1}
KLASS_VALUES = (PacketClass.BACKSCATTER, PacketClass.SCAN)

#: One sanitized datagram as the analyses read it: a tuple of plain
#: values, the last five parallel over its coalesced packets.  Both row
#: sources yield this shape — :meth:`CaptureTable.datagrams` from the
#: columns, :func:`datagram_values` from a ``CapturedPacket``.
DATAGRAM_FIELDS = (
    "timestamp",
    "src_ip",
    "dst_ip",
    "klass",  # KLASS_CODES: 0 backscatter, 1 scan
    "origin",
    "udp_payload_length",
    "types",  # bytes: one PacketType value per packet
    "versions",
    "dcids",
    "scids",
    "packet_lengths",
)


def datagram_values(packet) -> tuple:
    """A ``CapturedPacket``-shaped object in :data:`DATAGRAM_FIELDS` order."""
    packets = packet.packets
    return (
        packet.timestamp,
        packet.src_ip,
        packet.dst_ip,
        KLASS_CODES[packet.klass],
        packet.origin,
        packet.udp_payload_length,
        type_codes(packet),
        tuple(p.version for p in packets),
        tuple(p.dcid for p in packets),
        tuple(p.scid for p in packets),
        tuple(p.packet_length for p in packets),
    )


class CaptureTable:
    """Sanitized capture as parallel columns; append-only."""

    __slots__ = (
        [name for name, _ in ROW_COLUMNS]
        + [name for name, _ in PACKET_COLUMNS]
        + [name for name, _ in OFFSET_COLUMNS]
        + ["sv_values", "blob", "origins", "_origin_ids"]
    )

    def __init__(self) -> None:
        for name, typecode in ROW_COLUMNS + PACKET_COLUMNS:
            setattr(self, name, array(typecode))
        for name, typecode in OFFSET_COLUMNS:
            setattr(self, name, array(typecode, [0]))
        self.sv_values = array("I")
        self.blob = bytearray()
        #: Origin string table, in first-seen order (deterministic for a
        #: fixed row order, which makes serial and parallel builds agree).
        self.origins: List[str] = []
        self._origin_ids: dict = {}

    # -- dimensions ------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.ts)

    @property
    def num_packets(self) -> int:
        return len(self.pkt_type)

    def __len__(self) -> int:
        return self.num_rows

    # -- building --------------------------------------------------------

    def origin_index(self, origin: str) -> int:
        """Id of ``origin`` in the origin table, added on first sight."""
        index = self._origin_ids.get(origin)
        if index is None:
            index = len(self.origins)
            self.origins.append(origin)
            self._origin_ids[origin] = index
        return index

    def extend(self, other: "CaptureTable") -> None:
        """Append all rows of ``other``, remapping its origin table.

        Concatenating row-group tables in record order reproduces exactly
        the table a serial pass would build: per-row columns concatenate,
        offsets shift by this table's totals, and the merged origin table
        is still in global first-seen order.
        """
        origin_map = [self.origin_index(name) for name in other.origins]
        for name, _ in ROW_COLUMNS:
            if name == "origin_id":
                continue
            getattr(self, name).extend(getattr(other, name))
        self.origin_id.extend(origin_map[i] for i in other.origin_id)
        packet_base = self.num_packets
        self.pkt_start.extend(packet_base + v for v in other.pkt_start[1:])
        for name, _ in PACKET_COLUMNS:
            getattr(self, name).extend(getattr(other, name))
        blob_base = self.bytes_start[-1]
        self.bytes_start.extend(blob_base + v for v in other.bytes_start[1:])
        sv_base = self.sv_start[-1]
        self.sv_start.extend(sv_base + v for v in other.sv_start[1:])
        self.sv_values.extend(other.sv_values)
        self.blob += other.blob

    def rebuild_origin_index(self) -> None:
        """Recompute the name→id map after deserialization."""
        self._origin_ids = {name: i for i, name in enumerate(self.origins)}

    # -- reading ---------------------------------------------------------

    def datagrams(self, start: int = 0, end: Optional[int] = None) -> Iterator[tuple]:
        """Rows ``[start, end)`` as plain values, in :data:`DATAGRAM_FIELDS` order.

        The per-packet fields are parallel sequences, one entry per
        coalesced packet: ``types`` is a ``bytes`` of type codes, the
        others are tuples, each DCID/SCID one slice of the blob.  The
        columns are cut with C-level passes and the rows come out of a
        ``zip``, so nothing runs per row but the consumer.
        """
        end = self.num_rows if end is None else end
        first, last = self.pkt_start[start], self.pkt_start[end]
        base = self.bytes_start[first]
        blob = bytes(memoryview(self.blob)[base : self.bytes_start[last]])
        dcid_at = [at - base for at in self.bytes_start[first:last]]
        scid_at = list(map(add, dcid_at, self.dcid_len[first:last]))
        scid_end = map(add, scid_at, self.scid_len[first:last])
        bounds = [at - first for at in self.pkt_start[start : end + 1]]
        of_row = list(map(slice, bounds, bounds[1:]))
        per_packet = (
            self.pkt_type[first:last].tobytes(),
            tuple(self.pkt_version[first:last]),
            tuple(map(blob.__getitem__, map(slice, dcid_at, scid_at))),
            tuple(map(blob.__getitem__, map(slice, scid_at, scid_end))),
            tuple(self.pkt_length[first:last]),
        )
        return zip(
            self.ts[start:end],
            self.src_ip[start:end],
            self.dst_ip[start:end],
            self.klass[start:end],
            map(self.origins.__getitem__, self.origin_id[start:end]),
            self.payload_len[start:end],
            *(map(column.__getitem__, of_row) for column in per_packet),
        )

    def packets_of(self, row: int) -> List[ParsedLongHeader]:
        """Materialize the parsed long headers of one row."""
        out: List[ParsedLongHeader] = []
        for j in range(self.pkt_start[row], self.pkt_start[row + 1]):
            cursor = self.bytes_start[j]
            dcid_end = cursor + self.dcid_len[j]
            scid_end = dcid_end + self.scid_len[j]
            token_end = scid_end + self.token_len[j]
            retry_end = token_end + self.retry_token_len[j]
            out.append(
                ParsedLongHeader(
                    packet_type=PacketType(self.pkt_type[j]),
                    version=self.pkt_version[j],
                    dcid=bytes(self.blob[cursor:dcid_end]),
                    scid=bytes(self.blob[dcid_end:scid_end]),
                    token=bytes(self.blob[scid_end:token_end]),
                    pn_offset=self.pkt_pn_offset[j],
                    packet_length=self.pkt_length[j],
                    payload_length=self.pkt_payload_length[j],
                    supported_versions=tuple(
                        self.sv_values[self.sv_start[j] : self.sv_start[j + 1]]
                    ),
                    retry_token=bytes(self.blob[token_end:retry_end]),
                )
            )
        return out

    def materialize(self, row: int) -> CapturedPacket:
        """Build a real :class:`CapturedPacket` for one row."""
        return CapturedPacket(
            timestamp=self.ts[row],
            src_ip=self.src_ip[row],
            dst_ip=self.dst_ip[row],
            src_port=self.src_port[row],
            dst_port=self.dst_port[row],
            udp_payload_length=self.payload_len[row],
            packets=self.packets_of(row),
            klass=KLASS_VALUES[self.klass[row]],
            origin=self.origins[self.origin_id[row]],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaptureTable):
            return NotImplemented
        if self.origins != other.origins or self.blob != other.blob:
            return False
        return all(
            getattr(self, name) == getattr(other, name)
            for name, _ in ROW_COLUMNS + PACKET_COLUMNS + OFFSET_COLUMNS
        ) and self.sv_values == other.sv_values

    __hash__ = None  # mutable container


class ClassifiedView:
    """:class:`ClassifiedCapture`-compatible facade over a CaptureTable.

    Exposes ``backscatter`` / ``scans`` / ``stats`` / ``__len__`` /
    ``datagrams()`` exactly like the object pipeline's output.  The
    analyses read ``datagrams()``, which builds no object; the split
    lists are those of :meth:`to_classified_capture`, materialized when
    a caller first asks for them.  ``indexed_bytes``, when the table was
    built from a pcap, is how far into that file it covers (one past the
    last complete record).
    """

    def __init__(
        self,
        table: CaptureTable,
        stats: SanitizationStats,
        indexed_bytes: Optional[int] = None,
    ) -> None:
        self.table = table
        self.stats = stats
        self.indexed_bytes = indexed_bytes
        self._capture: Optional[ClassifiedCapture] = None

    def _split(self) -> None:
        capture = ClassifiedCapture(stats=self.stats)
        sides = (capture.backscatter, capture.scans)  # by KLASS_CODES
        materialize = self.table.materialize
        for row, klass in enumerate(self.table.klass):
            sides[klass].append(materialize(row))
        self._capture = capture

    @property
    def backscatter(self) -> List[CapturedPacket]:
        return self.to_classified_capture().backscatter

    @property
    def scans(self) -> List[CapturedPacket]:
        return self.to_classified_capture().scans

    def __len__(self) -> int:
        return self.table.num_rows

    def datagrams(self) -> Iterator[tuple]:
        """Every row as plain values (:data:`DATAGRAM_FIELDS`), in table order."""
        return self.table.datagrams()

    def to_classified_capture(self) -> ClassifiedCapture:
        """The legacy object representation, every row materialized (once)."""
        if self._capture is None:
            self._split()
        return self._capture
