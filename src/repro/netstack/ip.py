"""IPv4 header encoding/decoding (RFC 791), options-free."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.buffer import Writer
from repro.netstack.checksum import internet_checksum

PROTO_ICMP = 1
PROTO_IPIP = 4  # IP-in-IP encapsulation, used by the L4LB tunnel
PROTO_TCP = 6
PROTO_UDP = 17

HEADER_LENGTH = 20
#: The options-free header: every field sits at a fixed offset.
_FIXED_HEADER = struct.Struct("!BBHHHBBHII")


class IpParseError(ValueError):
    """Raised when bytes cannot be parsed as an IPv4 packet."""


@dataclass
class IPv4Header:
    src: int
    dst: int
    protocol: int = PROTO_UDP
    ttl: int = 64
    identification: int = 0
    dscp_ecn: int = 0
    flags_fragment: int = 0x4000  # don't-fragment, offset 0
    total_length: int = 0  # filled in by encode_ipv4


def encode_ipv4(header: IPv4Header, payload: bytes) -> bytes:
    """Serialize header+payload with a correct header checksum."""
    total_length = HEADER_LENGTH + len(payload)
    if total_length > 0xFFFF:
        raise IpParseError("IPv4 packet too large: %d bytes" % total_length)
    writer = Writer()
    writer.write_u8(0x45)  # version 4, IHL 5
    writer.write_u8(header.dscp_ecn)
    writer.write_u16(total_length)
    writer.write_u16(header.identification)
    writer.write_u16(header.flags_fragment)
    writer.write_u8(header.ttl)
    writer.write_u8(header.protocol)
    writer.write_u16(0)  # checksum placeholder
    writer.write_u32(header.src)
    writer.write_u32(header.dst)
    raw = bytearray(writer.getvalue())
    checksum = internet_checksum(bytes(raw))
    raw[10:12] = checksum.to_bytes(2, "big")
    return bytes(raw) + payload


def scan_ipv4(data: bytes, start: int, end: int) -> tuple:
    """Read the IPv4 header of ``data[start:end]`` in place.

    Returns ``(src, dst, protocol, ttl, identification, dscp_ecn,
    flags_fragment, total_length, payload_start, payload_end)`` with the
    payload as offsets into ``data`` — nothing is sliced or built.  The
    header's bounds checks live here and nowhere else; ``end`` may lie
    inside a larger buffer (a pcap chunk), no byte at or past it is read.
    """
    if end - start < HEADER_LENGTH:
        raise IpParseError("packet shorter than IPv4 header")
    (
        version_ihl,
        dscp_ecn,
        total_length,
        identification,
        flags_fragment,
        ttl,
        protocol,
        _checksum,  # validity is the caller's concern
        src,
        dst,
    ) = _FIXED_HEADER.unpack_from(data, start)
    if version_ihl >> 4 != 4:
        raise IpParseError("not IPv4 (version %d)" % (version_ihl >> 4))
    ihl = (version_ihl & 0x0F) * 4
    if ihl < HEADER_LENGTH or ihl > end - start:
        raise IpParseError("bad IHL %d" % ihl)
    if total_length > end - start or total_length < ihl:
        raise IpParseError("bad total length %d" % total_length)
    return (
        src,
        dst,
        protocol,
        ttl,
        identification,
        dscp_ecn,
        flags_fragment,
        total_length,
        start + ihl,
        start + total_length,
    )


def decode_ipv4(data: bytes) -> tuple[IPv4Header, bytes]:
    """Parse an IPv4 packet; returns (header, payload)."""
    fields = scan_ipv4(data, 0, len(data))
    # The eight leading fields are IPv4Header's, in its field order.
    return IPv4Header(*fields[:8]), data[fields[8] : fields[9]]
