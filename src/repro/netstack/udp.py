"""UDP datagrams (RFC 768), including the pseudo-header checksum.

:class:`UdpDatagram` is also the structured packet unit the simulator
routes, so it carries the IP addresses alongside the UDP fields.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro.netstack.ip import (
    HEADER_LENGTH as IP_HEADER_LENGTH,
    IpParseError,
    PROTO_UDP,
    scan_ipv4,
)

HEADER_LENGTH = 8
#: Source port, destination port, length; the checksum that follows is
#: not validated on decode.
_PORTS_LENGTH = struct.Struct("!HHH")

#: The UDP port QUIC servers listen on; the telescope classifies by it.
QUIC_PORT = 443


class UdpParseError(ValueError):
    """Raised when bytes cannot be parsed as a UDP datagram."""


@dataclass(frozen=True)
class UdpDatagram:
    """One UDP datagram with its IP endpoints — the simulator's packet unit."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    payload: bytes
    ttl: int = 64

    @property
    def flow(self) -> tuple[int, int, int, int, int]:
        """The classic 5-tuple (protocol is always UDP here)."""
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port, PROTO_UDP)

    def reply(self, payload: bytes, ttl: int = 64) -> "UdpDatagram":
        """Build the response datagram (endpoints swapped)."""
        return UdpDatagram(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            payload=payload,
            ttl=ttl,
        )

    def with_payload(self, payload: bytes) -> "UdpDatagram":
        return UdpDatagram(
            self.src_ip, self.dst_ip, self.src_port, self.dst_port, payload, self.ttl
        )

    @property
    def payload_length(self) -> int:
        """``len(payload)``; a :class:`DeferredDatagram` knows it unbuilt."""
        return len(self.payload)


class DeferredDatagram(UdpDatagram):
    """A :class:`UdpDatagram` whose payload is built on its first read.

    The sender states ``payload_length`` and hands over ``build``, a
    closure holding everything the bytes depend on (packet numbers, rng
    draws — captured when the datagram was sent, not when it is read).
    Whoever first reads ``.payload`` runs ``build`` exactly once and the
    result is stored like any other field, so every later read, ``hash``
    and ``repr`` see an ordinary datagram's fields (``==`` stays
    class-strict, as for any dataclass).  One that is dropped
    before anybody looks — :class:`~repro.simnet.network.Network` routes
    on ``dst_ip`` and accounts an unrouted drop by ``payload_length`` —
    never pays for its payload; for server flights that is two AEAD seals.
    """

    def __init__(
        self,
        src_ip: int,
        dst_ip: int,
        src_port: int,
        dst_port: int,
        payload_length: int,
        build: Callable[[], bytes],
        ttl: int = 64,
    ) -> None:
        # The dataclass is frozen; its fields go straight into the
        # instance dict, and ``payload`` is left out until first read.
        fields = self.__dict__
        fields["src_ip"] = src_ip
        fields["dst_ip"] = dst_ip
        fields["src_port"] = src_port
        fields["dst_port"] = dst_port
        fields["ttl"] = ttl
        fields["_payload_length"] = payload_length
        fields["_build"] = build

    def __getattr__(self, name: str):
        # Only reached for names missing from the instance dict, i.e. for
        # ``payload`` until the first read has stored it.
        if name != "payload":
            raise AttributeError(name)
        fields = self.__dict__
        payload = fields["payload"] = fields["_build"]()
        del fields["_build"]  # the closure's captures die with it
        return payload

    @property
    def payload_length(self) -> int:
        return self._payload_length


#: IPv4 header (RFC 791, no options) followed by the UDP header (RFC 768).
_IP_UDP_HEADER = struct.Struct("!BBHHHBBHIIHHHH")


def ip_udp_header(flow, payload: bytes) -> bytes:
    """The 28 IPv4+UDP header bytes in front of ``payload``, one ``pack``.

    ``flow`` is anything with a datagram's address, port and TTL fields.
    Both RFC 1071 checksums come from the fields: 2**16 ≡ 1 (mod 0xFFFF),
    so a ones-complement word sum is the plain sum reduced mod 0xFFFF and
    the payload's words are the payload read as one big-endian integer.
    The field-by-field encoder this replaced, with its RFC 1071 checksum
    and IPv4 header writer, is the reference in
    ``tests/netstack/test_capbuf.py``.
    """
    length = len(payload)
    udp_length = HEADER_LENGTH + length
    if udp_length > 0xFFFF:
        raise UdpParseError("UDP datagram too large: %d" % udp_length)
    total_length = IP_HEADER_LENGTH + udp_length
    if total_length > 0xFFFF:
        raise IpParseError("IPv4 packet too large: %d bytes" % total_length)
    src_ip, dst_ip, ttl = flow.src_ip, flow.dst_ip, flow.ttl
    src_port, dst_port = flow.src_port, flow.dst_port
    addresses = (src_ip >> 16) + (src_ip & 0xFFFF) + (dst_ip >> 16) + (dst_ip & 0xFFFF)
    # Neither sum can be zero, so its fold is the remainder with 0 read
    # as 0xFFFF (ones-complement's other zero).
    ip_sum = 0x4500 + total_length + 0x4000 + ((ttl << 8) | PROTO_UDP) + addresses
    words = int.from_bytes(payload, "big")
    if length & 1:
        words <<= 8  # the checksum pads an odd payload with a zero byte
    # UDP Length is summed twice: in the pseudo-header and in the header.
    udp_sum = addresses + PROTO_UDP + src_port + dst_port + 2 * udp_length + words
    return _IP_UDP_HEADER.pack(
        0x45,  # version 4, IHL 5
        0,  # DSCP/ECN
        total_length,
        0,  # identification
        0x4000,  # don't-fragment, offset 0
        ttl,
        PROTO_UDP,
        0xFFFF - (ip_sum % 0xFFFF or 0xFFFF),
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        udp_length,
        # Never 0, which on the wire means "no checksum": a remainder of 0
        # gives 0xFFFF, RFC 768's spelling of a computed zero.
        0xFFFF - udp_sum % 0xFFFF,
    )


class FlowTemplate:
    """One flow's endpoints and TTL, for serializing payload after payload.

    A thin holder over the flat encoder.  It precomputes nothing: one
    ``pack`` is cheaper than patching a per-flow header skeleton even on
    a repeated 5-tuple, and every scan record is a fresh one.
    """

    __slots__ = ("src_ip", "dst_ip", "src_port", "dst_port", "ttl")

    def __init__(
        self, src_ip: int, dst_ip: int, src_port: int, dst_port: int, ttl: int
    ) -> None:
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.ttl = ttl

    def encode(self, payload: bytes) -> bytes:
        """Serialize one packet of this flow."""
        return ip_udp_header(self, payload) + payload

    def encode_into(self, out: bytearray, payload: bytes) -> None:
        """Append one packet of this flow to ``out`` (no final copy)."""
        out += ip_udp_header(self, payload)
        out += payload


def encode_udp(datagram: UdpDatagram) -> bytes:
    """Serialize the full IPv4+UDP packet with both checksums."""
    payload = datagram.payload
    return ip_udp_header(datagram, payload) + payload


def encode_udp_into(out: bytearray, datagram: UdpDatagram) -> None:
    """Append the serialized packet to ``out`` (the capture buffer's path)."""
    payload = datagram.payload
    out += ip_udp_header(datagram, payload)
    out += payload


def scan_udp(data: bytes, start: int, end: int) -> tuple:
    """Read the IPv4+UDP headers of ``data[start:end]`` in place.

    Returns ``(src_ip, dst_ip, src_port, dst_port, ttl, payload_start,
    payload_end)`` with the UDP payload as offsets into ``data``.  The
    one copy of the UDP bounds checks, on top of :func:`scan_ipv4`'s.
    """
    (
        src_ip,
        dst_ip,
        protocol,
        ttl,
        _identification,
        _dscp_ecn,
        _flags_fragment,
        _total_length,
        udp_start,
        ip_end,
    ) = scan_ipv4(data, start, end)
    if protocol != PROTO_UDP:
        raise UdpParseError("IP protocol %d is not UDP" % protocol)
    if ip_end - udp_start < HEADER_LENGTH:
        raise UdpParseError("payload shorter than UDP header")
    src_port, dst_port, udp_length = _PORTS_LENGTH.unpack_from(data, udp_start)
    if udp_length < HEADER_LENGTH or udp_length > ip_end - udp_start:
        raise UdpParseError("bad UDP length %d" % udp_length)
    return (
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        ttl,
        udp_start + HEADER_LENGTH,
        udp_start + udp_length,
    )


def decode_udp(packet: bytes) -> UdpDatagram:
    """Parse a full IPv4+UDP packet back into a :class:`UdpDatagram`."""
    src_ip, dst_ip, src_port, dst_port, ttl, payload_start, payload_end = scan_udp(
        packet, 0, len(packet)
    )
    return UdpDatagram(
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        payload=packet[payload_start:payload_end],
        ttl=ttl,
    )
