"""Columnar storage for sanitized telescope captures.

A :class:`CaptureTable` holds one sanitized datagram per *row* in parallel
typed arrays (``array`` module — compact, picklable, and written to or
read from a sidecar straight through each column's buffer), and one
parsed long header per *packet* entry.  Rows reference their packets
through a prefix-offset array.  Each fact is held once: a packet names
its (DCID, SCID) pair by an id into the table of distinct *pairs*, kept
in first-seen order with their bytes in one blob; an Initial's token or
a Retry's token (no packet has both) is one slice of a second blob; a
version count is kept only for Version Negotiation packets; and what a
reader can recompute — a packet's payload length, the 443 side's port,
every offset — is not kept at all.  That is the layout the paper's
"dissect once, analyze many times" pipeline wants: dense,
order-preserving, and append-only, so a grown capture's tail extends the
table its prefix built.

Rows are written by :func:`repro.capstore.dissect.record_verdict`, straight
from record bytes, and read back two ways.  The analyses fold the
columns themselves: :meth:`repro.core.render.CaptureFold.feed` slices a
window of rows at a time and counts over the slices, so no value is
built per row, and a (DCID, SCID) is cut from the blob
(:meth:`CaptureTable.pair_cids`) only for a pair a count needs in bytes.
A test, bench or example that asks for objects gets real
:class:`~repro.telescope.classify.CapturedPacket` instances from
:meth:`CaptureTable.materialize`.  There is no shape in between.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, islice
from operator import add, sub
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.quic.packet_type import PacketType
from repro.telescope.classify import (
    KLASS_VALUES,
    CapturedPacket,
    PacketClass,
    SanitizationStats,
)

if TYPE_CHECKING:
    from repro.quic.packet import ParsedLongHeader

#: Row-level columns, in serialization order: (attribute, array typecode).
#: A length or offset inside one datagram is capped by UDP's 16-bit
#: length field, so it is held in 16 bits, here and in the packet columns.
#: Every kept row has port 443 on the side its class names (the source
#: of backscatter, the destination of a scan), so only the other side's
#: port is held.
ROW_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("ts", "d"),
    ("src_ip", "I"),
    ("dst_ip", "I"),
    ("peer_port", "H"),
    ("payload_len", "H"),
    ("klass", "B"),
    ("origin_id", "H"),
)

#: Packet-level columns, in serialization order.  ``cid`` is the id of
#: the packet's (DCID, SCID) pair; ``token_len`` the length of its
#: Initial token or, for a Retry, its retry token.  The payload length is
#: ``pkt_length - pkt_pn_offset`` for every kind, so it is not held.
PACKET_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pkt_type", "B"),
    ("pkt_version", "I"),
    ("pkt_pn_offset", "H"),
    ("pkt_length", "H"),
    ("cid", "I"),
    ("token_len", "H"),
)

#: Pair-level columns: the lengths of each distinct pair's two CIDs,
#: whose bytes sit back to back in ``cid_blob``.  A CID is at most 20 bytes.
PAIR_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("dcid_len", "B"),
    ("scid_len", "B"),
)

#: Columns whose length no dimension fixes: one version count per
#: Version Negotiation packet, the versions they count, and the two byte
#: blobs — the pairs' CIDs (cut by :data:`PAIR_COLUMNS`) and the tokens
#: (cut by ``token_len``).  A table a build appends to holds the blobs
#: as ``bytearray`` s, a loaded one as ``bytes`` (:meth:`CaptureTable.pair_index`).
VARIABLE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("sv_count", "H"),
    ("sv_values", "I"),
    ("cid_blob", "B"),
    ("token_blob", "B"),
)
BLOB_COLUMNS = ("cid_blob", "token_blob")

#: Prefix-offset columns: one more entry than their parent dimension.
#: Held in memory only; a sidecar stores what they are rebuilt from
#: (:meth:`CaptureTable.restore_offsets`).
OFFSET_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pkt_start", "I"),  # row -> first packet index
    ("cid_start", "Q"),  # pair -> first byte of its DCID in cid_blob
)

#: What a sidecar stores instead of ``pkt_start``: the packets of each
#: row, in 16 bits, as a datagram holds at most 65,527 bytes.
COUNT_COLUMNS: Tuple[Tuple[str, str], ...] = (("pkt_count", "H"),)

_RETRY = PacketType.RETRY.value
_VERSION_NEGOTIATION = PacketType.VERSION_NEGOTIATION.value

class CaptureTable:
    """Sanitized capture as parallel columns; append-only."""

    __slots__ = [
        name
        for name, _ in ROW_COLUMNS
        + PACKET_COLUMNS
        + PAIR_COLUMNS
        + VARIABLE_COLUMNS
        + OFFSET_COLUMNS
    ] + ["origins", "_origin_ids", "_pair_ids", "_token_start", "_sv_start"]

    def __init__(self) -> None:
        for name, typecode in ROW_COLUMNS + PACKET_COLUMNS + PAIR_COLUMNS:
            setattr(self, name, array(typecode))
        self.sv_count = array("H")
        self.sv_values = array("I")
        self.cid_blob = bytearray()
        self.token_blob = bytearray()
        for name, typecode in OFFSET_COLUMNS:
            setattr(self, name, array(typecode, [0]))
        #: Origin string table, in first-seen order (deterministic for a
        #: fixed row order, which makes serial and parallel builds agree).
        self.origins: List[str] = []
        self._origin_ids: dict = {}
        #: The intern map; ``None`` in a loaded table, whose blobs are ``bytes``.
        self._pair_ids: Optional[dict] = {}
        self._token_start = array("Q")
        self._sv_start = array("I")

    # -- dimensions ------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.ts)

    @property
    def num_packets(self) -> int:
        return len(self.pkt_type)

    @property
    def num_pairs(self) -> int:
        return len(self.dcid_len)

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

    def rebuild_origin_index(self) -> None:
        """Recompute the name→id map after deserialization."""
        self._origin_ids = {name: i for i, name in enumerate(self.origins)}

    def pair_index(self) -> dict:
        """The intern map a build appends through: pair bytes → pair id.

        A pair's key is its bytes as the long header spells them,
        ``[dcid_len][dcid][scid_len][scid]``.  Only a build or an extension
        asks for the map.  A loaded table holds none, and its blobs are
        read-only ``bytes`` that readers slice straight into values; the
        first build or extension that asks rebuilds the map from the
        stored pairs, so the ids of a grown capture's tail continue
        exactly where a full build's would, and makes the blobs growable.
        """
        if self._pair_ids is None:
            blob, starts = self.cid_blob, self.cid_start
            self._pair_ids = {
                b"".join(
                    (
                        bytes((dcid_len,)),
                        blob[at : at + dcid_len],
                        bytes((scid_len,)),
                        blob[at + dcid_len : end],
                    )
                ): pair
                for pair, (dcid_len, scid_len, at, end) in enumerate(
                    zip(self.dcid_len, self.scid_len, starts, islice(starts, 1, None))
                )
            }
            self.cid_blob = bytearray(blob)
            self.token_blob = bytearray(self.token_blob)
        return self._pair_ids

    # -- persisting --------------------------------------------------------

    def packet_counts(self) -> array:
        """The packets of each row: the :data:`COUNT_COLUMNS` a sidecar stores."""
        starts = self.pkt_start
        return array("H", map(sub, islice(starts, 1, None), starts))

    def restore_offsets(self, pkt_count: array) -> None:
        """Rebuild :data:`OFFSET_COLUMNS` at load, from ``pkt_count`` and the pairs.

        The blob holds each pair's DCID and SCID back to back, so
        ``cid_start`` is the running sum of their lengths.  The caller
        checks that each offset column ends where its child dimension does.
        The intern map is not rebuilt: only a build asks for it
        (:meth:`pair_index`).
        """
        self._pair_ids = None
        self.pkt_start = array("I", accumulate(pkt_count, initial=0))
        self.cid_start = array(
            "Q", accumulate(map(add, self.dcid_len, self.scid_len), initial=0)
        )

    # -- reading ---------------------------------------------------------

    def pair_cids(self, pairs: Sequence[int]) -> List[Tuple[bytes, bytes]]:
        """``(dcid, scid)`` of each pair id in ``pairs``, cut from the blob
        by ``map`` over the pair columns: no Python-level work per pair."""
        blob, starts = self.cid_blob, self.cid_start
        begins = list(map(starts.__getitem__, pairs))
        mids = list(map(add, begins, map(self.dcid_len.__getitem__, pairs)))
        ends = map(starts.__getitem__, map((1).__add__, pairs))
        dcids = map(blob.__getitem__, map(slice, begins, mids))
        scids = map(blob.__getitem__, map(slice, mids, ends))
        if type(blob) is not bytes:  # a table being built: its blob still grows
            dcids, scids = map(bytes, dcids), map(bytes, scids)
        return list(zip(dcids, scids))

    def _packet_offsets(self) -> Tuple[array, array]:
        """``(token_start, sv_start)``: where each packet's token and versions start.

        Only :meth:`packets_of` reads them, so a table holds them only
        once it has been asked, and rebuilds them when it has grown since.
        """
        if len(self._token_start) != self.num_packets + 1:
            self._token_start = array("Q", accumulate(self.token_len, initial=0))
            # A packet's versions follow those of every VN packet before it.
            vn_start = array("I", accumulate(self.sv_count, initial=0))
            vn_before = accumulate(
                map(_VERSION_NEGOTIATION.__eq__, self.pkt_type), initial=0
            )
            self._sv_start = array("I", map(vn_start.__getitem__, vn_before))
        return self._token_start, self._sv_start

    def packets_of(self, row: int) -> List[ParsedLongHeader]:
        """Materialize the parsed long headers of one row."""
        # The codec is loaded only by those who ask for packet objects.
        from repro.quic.packet import ParsedLongHeader

        token_start, sv_start = self._packet_offsets()
        first, last = self.pkt_start[row], self.pkt_start[row + 1]
        cids = self.pair_cids(self.cid[first:last])
        out: List[ParsedLongHeader] = []
        for j, (dcid, scid) in zip(range(first, last), cids):
            kind = self.pkt_type[j]
            token = bytes(self.token_blob[token_start[j] : token_start[j + 1]])
            pn_offset, length = self.pkt_pn_offset[j], self.pkt_length[j]
            out.append(
                ParsedLongHeader(
                    packet_type=PacketType(kind),
                    version=self.pkt_version[j],
                    dcid=dcid,
                    scid=scid,
                    token=b"" if kind == _RETRY else token,
                    pn_offset=pn_offset,
                    packet_length=length,
                    payload_length=length - pn_offset,
                    supported_versions=tuple(
                        self.sv_values[sv_start[j] : sv_start[j + 1]]
                    ),
                    retry_token=token if kind == _RETRY else b"",
                )
            )
        return out

    def materialize(self, row: int) -> CapturedPacket:
        """Build a real :class:`CapturedPacket` for one row."""
        from repro.netstack.udp import QUIC_PORT

        klass = KLASS_VALUES[self.klass[row]]
        peer = self.peer_port[row]
        return CapturedPacket(
            timestamp=self.ts[row],
            src_ip=self.src_ip[row],
            dst_ip=self.dst_ip[row],
            src_port=QUIC_PORT if klass is PacketClass.BACKSCATTER else peer,
            dst_port=peer if klass is PacketClass.BACKSCATTER else QUIC_PORT,
            udp_payload_length=self.payload_len[row],
            packets=self.packets_of(row),
            klass=klass,
            origin=self.origins[self.origin_id[row]],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaptureTable):
            return NotImplemented
        return self.origins == other.origins and all(
            getattr(self, name) == getattr(other, name)
            for name, _ in ROW_COLUMNS
            + PACKET_COLUMNS
            + PAIR_COLUMNS
            + VARIABLE_COLUMNS
            + OFFSET_COLUMNS
        )

    __hash__ = None  # mutable container


class ClassifiedView:
    """A classified capture: a CaptureTable and the stats of its build.

    The analyses fold ``table``'s columns and build no object; the
    ``backscatter`` / ``scans`` lists of real
    :class:`~repro.telescope.classify.CapturedPacket` s are materialized
    when a caller first asks for them.  ``indexed_bytes``, when the table
    was built from a pcap, is how far into that file it covers (one past
    the last complete record).
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
        self._sides: Optional[tuple] = None

    def _split(self) -> Tuple[List[CapturedPacket], List[CapturedPacket]]:
        """Every row materialized, by class (``KLASS_CODES`` order), once."""
        if self._sides is None:
            self._sides = ([], [])
            materialize = self.table.materialize
            for row, klass in enumerate(self.table.klass):
                self._sides[klass].append(materialize(row))
        return self._sides

    @property
    def backscatter(self) -> List[CapturedPacket]:
        return self._split()[0]

    @property
    def scans(self) -> List[CapturedPacket]:
        return self._split()[1]

    def __len__(self) -> int:
        return self.table.num_rows

