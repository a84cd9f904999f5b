"""QUIC packet headers (RFC 8999/9000 §17) and datagram coalescence.

Two representations are used throughout the library:

* :class:`LongHeaderPacket` / :class:`ShortHeaderPacket` — *logical* packets
  with plaintext frame payloads, produced by endpoints and consumed by
  :func:`encode_datagram`.
* :class:`ParsedLongHeader` — the *observable* header fields of a protected
  packet on the wire, produced by :func:`parse_long_header` without any key
  material.  This is the telescope's view: type bits, version, DCID, SCID,
  token and length are all in the clear for long-header packets.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.buffer import Writer
from repro.lru import LruCache
# repro: allow(IMP001) -- the codec re-exports the packet vocabulary with
# PacketType; tests/integration/test_lazy_reexports.py pins it
from repro.quic.packet_type import PACKET_LABELS, PacketType
from repro.quic.varint import VALUE_MASK, encode_varint, varint_length
from repro.quic.version import VERSION_NEGOTIATION

#: RFC 9000 §14.1: a client Initial must be carried in a datagram of at
#: least 1200 bytes.
MIN_INITIAL_DATAGRAM = 1200

FORM_BIT = 0x80
FIXED_BIT = 0x40

#: ``repro.quic.crypto.suites.TAG_LENGTH`` (RFC 9001 §5.3), without loading it.
TAG_LENGTH = 16

if TYPE_CHECKING:
    from repro.quic.crypto.suites import PacketProtection


class PacketParseError(ValueError):
    """Raised when bytes cannot be parsed as a QUIC packet."""


#: Indexed by :class:`PacketType` value; the first four are also the
#: two long-packet-type bits of the first byte.
_PACKET_TYPES = tuple(PacketType)
#: First byte, version, DCID length: the fixed start of every long header.
_FIXED_PREFIX = struct.Struct("!BIB")
#: Where the DCID starts, counted from a long header's first byte.
DCID_AT = _FIXED_PREFIX.size


@dataclass
class LongHeaderPacket:
    """A logical long-header packet with a plaintext payload."""

    packet_type: PacketType
    version: int
    dcid: bytes
    scid: bytes
    packet_number: int = 0
    payload: bytes = b""
    token: bytes = b""  # Initial only
    pn_length: int = 1

    def __post_init__(self) -> None:
        if self.packet_type not in (
            PacketType.INITIAL,
            PacketType.ZERO_RTT,
            PacketType.HANDSHAKE,
        ):
            raise PacketParseError(
                "LongHeaderPacket only represents Initial/0-RTT/Handshake"
            )
        if not 1 <= self.pn_length <= 4:
            raise PacketParseError("packet number length must be 1..4")


@dataclass
class ShortHeaderPacket:
    """A logical 1-RTT packet.

    Short headers carry no CID length on the wire: the receiver must know
    the length of the CIDs it issued (RFC 8999 §5.2) — which is exactly why
    load balancers need a fixed, configured CID length to route 1-RTT
    traffic (paper §2.2).
    """

    dcid: bytes
    packet_number: int = 0
    payload: bytes = b""
    pn_length: int = 1
    spin_bit: bool = False


@dataclass
class RetryPacket:
    """A Retry packet; carries a token and a 16-byte integrity tag."""

    version: int
    dcid: bytes
    scid: bytes
    retry_token: bytes


@dataclass
class VersionNegotiationPacket:
    """Server's answer to an unsupported version (RFC 8999 §6)."""

    dcid: bytes
    scid: bytes
    supported_versions: tuple[int, ...]


@dataclass
class ParsedLongHeader:
    """Cleartext header fields of one protected packet inside a datagram."""

    packet_type: PacketType
    version: int
    dcid: bytes
    scid: bytes
    token: bytes
    #: Offset of the packet-number field relative to the packet start.
    pn_offset: int
    #: Total length of this packet inside the datagram.
    packet_length: int
    #: Value of the Length field (packet number + protected payload).
    payload_length: int
    #: For Retry: token; for VN: supported versions.
    supported_versions: tuple[int, ...] = ()
    retry_token: bytes = b""


# ---------------------------------------------------------------------------
# Encoding — header templates
# ---------------------------------------------------------------------------


class PacketTemplate:
    """Precomputed long-header skeleton for one packet *shape*.

    A shape is everything that determines header bytes except the CID,
    token and packet-number *values*: type, version, field lengths.  The
    skeleton is built once per shape (engine flights reuse a handful of
    shapes per profile for a whole month) and rendering reduces to a
    ``bytearray`` copy plus three or four slice splices — no
    :class:`~repro.buffer.Writer`, no varint re-encoding.  The bytes are
    pinned by RFC 9001 Appendix A.3, by the recorded flights in
    ``tests/server/flight_vectors.json`` and by the field-by-field
    encoder kept in ``tests/quic/reference.py``.
    """

    __slots__ = (
        "skeleton",
        "dcid_off",
        "scid_off",
        "token_off",
        "pn_off",
        "pn_length",
    )

    def __init__(
        self,
        packet_type: PacketType,
        version: int,
        dcid_len: int,
        scid_len: int,
        token_len: int,
        payload_len: int,
        pn_length: int,
    ) -> None:
        if dcid_len > 20 or scid_len > 20:
            raise PacketParseError("connection IDs are at most 20 bytes")
        if not 1 <= pn_length <= 4:
            raise PacketParseError("packet number length must be 1..4")
        skeleton = bytearray()
        skeleton.append(
            FORM_BIT | FIXED_BIT | (packet_type.value << 4) | (pn_length - 1)
        )
        skeleton += version.to_bytes(4, "big")
        skeleton.append(dcid_len)
        self.dcid_off = len(skeleton)
        skeleton += bytes(dcid_len)
        skeleton.append(scid_len)
        self.scid_off = len(skeleton)
        skeleton += bytes(scid_len)
        if packet_type is PacketType.INITIAL:
            skeleton += encode_varint(token_len)
            self.token_off = len(skeleton)
            skeleton += bytes(token_len)
        else:
            self.token_off = len(skeleton)
        length = pn_length + payload_len + TAG_LENGTH
        # Always at least a 2-byte Length varint, so headers have a stable
        # size (common stack behaviour, and it keeps padding math simple).
        skeleton += encode_varint(length, width=max(2, varint_length(length)))
        self.pn_off = len(skeleton)
        skeleton += bytes(pn_length)
        self.skeleton = skeleton
        self.pn_length = pn_length

    def render(
        self, dcid: bytes, scid: bytes, packet_number: int, token: bytes = b""
    ) -> bytes:
        """Splice the per-packet fields into a copy of the skeleton."""
        header = self.skeleton.copy()
        header[self.dcid_off : self.dcid_off + len(dcid)] = dcid
        header[self.scid_off : self.scid_off + len(scid)] = scid
        if token:
            header[self.token_off : self.token_off + len(token)] = token
        pn_length = self.pn_length
        header[self.pn_off :] = (
            packet_number & ((1 << (8 * pn_length)) - 1)
        ).to_bytes(pn_length, "big")
        return bytes(header)


class ShortPacketTemplate:
    """Short-header analogue of :class:`PacketTemplate` (1-RTT packets)."""

    __slots__ = ("first", "pn_length")

    def __init__(self, pn_length: int, spin_bit: bool) -> None:
        if not 1 <= pn_length <= 4:
            raise PacketParseError("packet number length must be 1..4")
        first = FIXED_BIT | (pn_length - 1)
        if spin_bit:
            first |= 0x20
        self.first = bytes([first])
        self.pn_length = pn_length

    def render(self, dcid: bytes, packet_number: int) -> bytes:
        pn_length = self.pn_length
        return (
            self.first
            + dcid
            + ((packet_number & ((1 << (8 * pn_length)) - 1)).to_bytes(pn_length, "big"))
        )


_PACKET_TEMPLATES = LruCache(1024)
_SHORT_TEMPLATES = LruCache(64)


def packet_template(
    packet_type: PacketType,
    version: int,
    dcid_len: int,
    scid_len: int,
    token_len: int,
    payload_len: int,
    pn_length: int,
) -> PacketTemplate:
    """Fetch (or build) the cached template for one long-header shape."""
    key = (packet_type, version, dcid_len, scid_len, token_len, payload_len, pn_length)
    return _PACKET_TEMPLATES.get_or_build(key, PacketTemplate, *key)


def short_packet_template(pn_length: int, spin_bit: bool) -> ShortPacketTemplate:
    return _SHORT_TEMPLATES.get_or_build(
        (pn_length, spin_bit), ShortPacketTemplate, pn_length, spin_bit
    )


def header_length(
    packet_type: PacketType,
    dcid_len: int,
    scid_len: int,
    token_len: int,
    payload_len: int,
    pn_length: int,
) -> int:
    """Length of the unprotected header for one long-header shape."""
    length = 1 + 4 + 1 + dcid_len + 1 + scid_len
    if packet_type is PacketType.INITIAL:
        length += varint_length(token_len) + token_len
    body = pn_length + payload_len + TAG_LENGTH
    return length + max(2, varint_length(body)) + pn_length


def encoded_packet_length(packet: LongHeaderPacket) -> int:
    """On-wire length of ``packet`` once protected (header + payload + tag)."""
    payload_len = len(packet.payload)
    return (
        header_length(
            packet.packet_type,
            len(packet.dcid),
            len(packet.scid),
            len(packet.token),
            payload_len,
            packet.pn_length,
        )
        + payload_len
        + TAG_LENGTH
    )


def _encode(
    packet: LongHeaderPacket,
    payload: bytes,
    protection: PacketProtection,
    is_server: bool,
) -> bytes:
    """Template fetch, render, protect: ``packet`` carrying ``payload``."""
    template = packet_template(
        packet.packet_type,
        packet.version,
        len(packet.dcid),
        len(packet.scid),
        len(packet.token),
        len(payload),
        packet.pn_length,
    )
    header = template.render(
        packet.dcid, packet.scid, packet.packet_number, packet.token
    )
    return protection.protect(is_server, header, packet.packet_number, payload)


def encode_packet(
    packet: LongHeaderPacket,
    protection: PacketProtection,
    is_server: bool,
) -> bytes:
    """Serialize and protect one long-header packet."""
    return _encode(packet, packet.payload, protection, is_server)


def encode_retry(packet: RetryPacket) -> bytes:
    """Serialize a Retry packet.

    The 16-byte Retry integrity tag is modelled as a SHA-256 truncation of
    the pseudo-packet; real stacks use AES-GCM with a fixed key (RFC 9001
    §5.8).  Telescope analyses never validate this tag, only observe it.
    """
    writer = Writer()
    writer.write_u8(FORM_BIT | FIXED_BIT | (PacketType.RETRY.value << 4))
    writer.write_u32(packet.version)
    _write_cid(writer, packet.dcid)
    _write_cid(writer, packet.scid)
    writer.write(packet.retry_token)
    tag = hashlib.sha256(b"quic-retry" + writer.getvalue()).digest()[:16]
    writer.write(tag)
    return writer.getvalue()


def encode_version_negotiation(packet: VersionNegotiationPacket) -> bytes:
    """Serialize a Version Negotiation packet (version field zero)."""
    writer = Writer()
    writer.write_u8(FORM_BIT | 0x2A)  # unused bits can be arbitrary; be stable
    writer.write_u32(VERSION_NEGOTIATION)
    _write_cid(writer, packet.dcid)
    _write_cid(writer, packet.scid)
    for version in packet.supported_versions:
        writer.write_u32(version)
    return writer.getvalue()


def _write_cid(writer: Writer, cid: bytes) -> None:
    if len(cid) > 20:
        raise PacketParseError("connection IDs are at most 20 bytes")
    writer.write_u8(len(cid))
    writer.write(cid)


@dataclass
class CoalescedDatagram:
    """Builder for a UDP datagram carrying one or more QUIC packets."""

    packets: list[bytes] = field(default_factory=list)

    def add(self, encoded_packet: bytes) -> "CoalescedDatagram":
        self.packets.append(encoded_packet)
        return self

    def build(self) -> bytes:
        return b"".join(self.packets)


def encode_datagram(
    packets: list[LongHeaderPacket],
    protection: PacketProtection,
    is_server: bool,
    pad_to: int = 0,
) -> bytes:
    """Protect and coalesce ``packets`` into one datagram.

    If ``pad_to`` is non-zero and the datagram would be shorter, the *last*
    packet's payload is extended with PADDING frames (0x00 bytes) so the
    datagram reaches the target size — the standard way stacks satisfy the
    1200-byte Initial minimum.

    The padding deficit is computed analytically from
    :func:`encoded_packet_length`, so every packet — padded last one
    included — is sealed exactly once.
    """
    if not packets:
        raise PacketParseError("cannot encode an empty datagram")
    pad = 0
    if pad_to:
        total = sum(encoded_packet_length(p) for p in packets)
        if total < pad_to:
            pad = pad_to - total
    parts = [_encode(p, p.payload, protection, is_server) for p in packets[:-1]]
    last = packets[-1]
    # One-shot pad of the tail packet, not an accumulation.
    parts.append(_encode(last, last.payload + b"\x00" * pad, protection, is_server))
    return b"".join(parts)


@dataclass
class ParsedShortHeader:
    """Cleartext fields of a 1-RTT packet (given a known CID length)."""

    dcid: bytes
    pn_offset: int
    spin_bit: bool


def encode_short_packet(
    packet: ShortHeaderPacket,
    protection: PacketProtection,
    is_server: bool,
) -> bytes:
    """Serialize and protect one 1-RTT packet.

    The library reuses the connection's Initial-derived suite for 1-RTT
    protection (a documented simplification — real stacks switch to
    handshake-derived keys, which changes no observable header byte).
    """
    if not 1 <= packet.pn_length <= 4:
        raise PacketParseError("packet number length must be 1..4")
    header = short_packet_template(packet.pn_length, packet.spin_bit).render(
        packet.dcid, packet.packet_number
    )
    return protection.protect(is_server, header, packet.packet_number, packet.payload)


def parse_short_header(
    data: bytes, cid_length: int, offset: int = 0
) -> ParsedShortHeader:
    """Parse a 1-RTT header; the receiver supplies its own CID length."""
    if offset >= len(data):
        raise PacketParseError("empty packet")
    first = data[offset]
    if first & FORM_BIT:
        raise PacketParseError("long-header packet, not 1-RTT")
    if not first & FIXED_BIT:
        raise PacketParseError("fixed bit is zero")
    if offset + 1 + cid_length > len(data):
        raise PacketParseError("packet shorter than the configured CID length")
    return ParsedShortHeader(
        dcid=data[offset + 1 : offset + 1 + cid_length],
        pn_offset=1 + cid_length,
        spin_bit=bool(first & 0x20),
    )


def unprotect_short_packet(
    parsed: ParsedShortHeader,
    packet_bytes: bytes,
    protection: PacketProtection,
    from_server: bool,
) -> ShortHeaderPacket:
    """Remove protection from a parsed 1-RTT packet."""
    plaintext, packet_number, pn_length = protection.unprotect(
        from_server, packet_bytes, parsed.pn_offset
    )
    return ShortHeaderPacket(
        dcid=parsed.dcid,
        packet_number=packet_number,
        payload=plaintext,
        pn_length=pn_length,
        spin_bit=parsed.spin_bit,
    )


# ---------------------------------------------------------------------------
# Parsing (keyless — the telescope view)
# ---------------------------------------------------------------------------


#: Field order of the tuples :func:`scan_long_header` returns.  Offsets
#: are absolute positions in the scanned buffer; ``pn_offset`` and
#: ``packet_length`` are relative to the packet's first byte, as in
#: :class:`ParsedLongHeader`.  ``kind`` is the :class:`PacketType` value.
#: The DCID starts at ``at + DCID_AT``, the SCID one length byte after it ends;
#: ``token_at`` is where the Initial token starts and, for every other
#: kind, the first byte after the SCID (Retry token, supported versions).
SCANNED_FIELDS = (
    "at",
    "kind",
    "version",
    "dcid_len",
    "scid_len",
    "token_at",
    "token_len",
    "pn_offset",
    "packet_length",
    "payload_length",
)
_KIND = SCANNED_FIELDS.index("kind")
_PACKET_LENGTH = SCANNED_FIELDS.index("packet_length")
_RETRY = PacketType.RETRY.value
_VERSION_NEGOTIATION = PacketType.VERSION_NEGOTIATION.value
_RETRY_TAG_LENGTH = 16


def _truncated(size: int, pos: int) -> PacketParseError:
    return PacketParseError(
        "long header overruns buffer of %d bytes at offset %d" % (size, pos)
    )


def scan_long_header(data: bytes, start: int, end: int, at: int) -> tuple:
    """Locate the cleartext fields of the long-header packet at ``at``.

    ``data[start:end]`` is the datagram (possibly a window of a larger
    buffer: nothing at or past ``end`` decides anything) and ``at`` an
    absolute offset inside it.  Returns one :data:`SCANNED_FIELDS` tuple
    — offsets and lengths only, no bytes are copied.

    The invariant header (RFC 8999 §5.1) is read at fixed offsets from
    ``at`` rather than through a cursor; each length is bounds-checked
    before the bytes it covers are touched, here and nowhere else.
    """
    if at >= end:
        raise _truncated(end - start, at - start)
    first = data[at]
    if not first & FORM_BIT:
        raise PacketParseError("not a long-header packet")
    if at + DCID_AT > end:
        raise _truncated(end - start, at - start)
    _, version, dcid_len = _FIXED_PREFIX.unpack_from(data, at)
    if dcid_len > 20:
        raise PacketParseError("DCID length %d exceeds 20" % dcid_len)
    pos = at + DCID_AT
    scid_len_at = pos + dcid_len
    if scid_len_at >= end:
        raise _truncated(end - start, pos - start)
    scid_len = data[scid_len_at]
    if scid_len > 20:
        raise PacketParseError("SCID length %d exceeds 20" % scid_len)
    pos = scid_len_at + 1 + scid_len
    if pos > end:
        raise _truncated(end - start, scid_len_at + 1 - start)

    if version == VERSION_NEGOTIATION:
        length = pos + (end - pos) // 4 * 4 - at
        kind = _VERSION_NEGOTIATION
        return at, kind, version, dcid_len, scid_len, pos, 0, length, length, 0

    if not first & FIXED_BIT:
        raise PacketParseError("fixed bit is zero")

    kind = (first >> 4) & 0x03
    if kind == _RETRY:
        if end - pos < _RETRY_TAG_LENGTH:
            raise PacketParseError("Retry packet shorter than integrity tag")
        length = end - at
        return at, kind, version, dcid_len, scid_len, pos, 0, length, length, 0

    # The two varints (RFC 9000 §16) are decoded in place: the two high
    # bits of the first byte give the width, the rest is the value.  A
    # varint cut short by ``end`` decodes to garbage that the bounds
    # check right after it rejects.
    token_at, token_len = pos, 0
    if kind == 0:  # Initial: the only kind with a token
        if pos >= end:
            raise _truncated(end - start, pos - start)
        width = 1 << (data[pos] >> 6)
        token_at = pos + width
        token_len = int.from_bytes(data[pos:token_at], "big") & VALUE_MASK[width]
        pos = token_at + token_len
        if pos > end:
            raise _truncated(end - start, token_at - start)
    if pos >= end:
        raise _truncated(end - start, pos - start)
    width = 1 << (data[pos] >> 6)
    pn_offset = pos + width - at
    if at + pn_offset > end:
        raise _truncated(end - start, pos - start)
    payload_length = int.from_bytes(data[pos : pos + width], "big") & VALUE_MASK[width]
    packet_length = pn_offset + payload_length
    if at + packet_length > end:
        raise PacketParseError(
            "declared length %d overruns datagram" % payload_length
        )
    return (
        at,
        kind,
        version,
        dcid_len,
        scid_len,
        token_at,
        token_len,
        pn_offset,
        packet_length,
        payload_length,
    )


def scan_datagram(data: bytes, start: int, end: int) -> list[tuple]:
    """Locate the coalesced long-header packets of ``data[start:end]``.

    One :data:`SCANNED_FIELDS` tuple per packet.  A trailing short-header
    packet (first byte without the form bit) terminates the scan and is
    not returned — telescope analyses only use long headers.  Raises
    :class:`PacketParseError` if the datagram starts with bytes that are
    not a QUIC long header.
    """
    out: list[tuple] = []
    at = start
    while at < end:
        if not data[at] & FORM_BIT:
            break  # short-header packet or padding: end of long-header chain
        scanned = scan_long_header(data, start, end, at)
        out.append(scanned)
        if scanned[_KIND] >= _RETRY:
            break  # Retry and Version Negotiation run to the datagram's end
        at += scanned[_PACKET_LENGTH]
    if not out:
        raise PacketParseError("datagram does not start with a long-header packet")
    return out


def parsed_header(data: bytes, scanned: tuple) -> ParsedLongHeader:
    """Build the :class:`ParsedLongHeader` a scanned tuple describes."""
    (
        at,
        kind,
        version,
        dcid_len,
        scid_len,
        token_at,
        token_len,
        pn_offset,
        packet_length,
        payload_length,
    ) = scanned
    scid_at = at + DCID_AT + dcid_len + 1
    versions: tuple[int, ...] = ()
    retry_token = b""
    if kind == _VERSION_NEGOTIATION:
        count = (at + packet_length - token_at) // 4
        versions = struct.unpack_from("!%dI" % count, data, token_at)
    elif kind == _RETRY:
        retry_token = data[token_at : at + packet_length - _RETRY_TAG_LENGTH]
    return ParsedLongHeader(
        packet_type=_PACKET_TYPES[kind],
        version=version,
        dcid=data[at + DCID_AT : scid_at - 1],
        scid=data[scid_at : scid_at + scid_len],
        token=data[token_at : token_at + token_len],
        pn_offset=pn_offset,
        packet_length=packet_length,
        payload_length=payload_length,
        supported_versions=versions,
        retry_token=retry_token,
    )


def parse_long_header(data: bytes, offset: int = 0) -> ParsedLongHeader:
    """Parse the cleartext fields of the long-header packet at ``offset``.

    Works on protected packets: every returned field is transmitted in the
    clear.  ``packet_length`` tells callers where the next coalesced packet
    begins.  The object-building form of :func:`scan_long_header`.
    """
    return parsed_header(data, scan_long_header(data, 0, len(data), offset))


def decode_datagram(data: bytes) -> list[tuple[ParsedLongHeader, bytes]]:
    """Split a datagram into its coalesced packets (keyless).

    Returns a list of ``(parsed_header, packet_bytes)`` pairs: the
    object-building form of :func:`scan_datagram`, with its rules for
    where the long-header chain ends.
    """
    return [
        (
            parsed_header(data, scanned),
            data[scanned[0] : scanned[0] + scanned[_PACKET_LENGTH]],
        )
        for scanned in scan_datagram(data, 0, len(data))
    ]


def unprotect_packet(
    parsed: ParsedLongHeader,
    packet_bytes: bytes,
    protection: PacketProtection,
    from_server: bool,
) -> LongHeaderPacket:
    """Remove protection from a parsed Initial/Handshake/0-RTT packet."""
    if parsed.packet_type in (PacketType.RETRY, PacketType.VERSION_NEGOTIATION):
        from repro.quic.crypto.suites import ProtectionError

        raise ProtectionError("%s packets are not protected" % parsed.packet_type.label)
    plaintext, packet_number, pn_length = protection.unprotect(
        from_server, packet_bytes, parsed.pn_offset
    )
    return LongHeaderPacket(
        packet_type=parsed.packet_type,
        version=parsed.version,
        dcid=parsed.dcid,
        scid=parsed.scid,
        packet_number=packet_number,
        payload=plaintext,
        token=parsed.token,
        pn_length=pn_length,
    )
