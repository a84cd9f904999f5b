"""UDP datagrams (RFC 768), including the pseudo-header checksum.

:class:`UdpDatagram` is also the structured packet unit the simulator
routes, so it carries the IP addresses alongside the UDP fields.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro import hotpath
from repro.buffer import Writer
from repro.hotpath import LruCache
from repro.netstack.checksum import internet_checksum
from repro.netstack.ip import (
    HEADER_LENGTH as IP_HEADER_LENGTH,
    IPv4Header,
    IpParseError,
    PROTO_UDP,
    decode_ipv4,
    encode_ipv4,
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


class FlowTemplate:
    """Precomputed IPv4+UDP encapsulation for one flow 5-tuple.

    The 28-byte header skeleton carries every constant field (addresses,
    ports, TTL, flags) and the RFC 1071 checksum's commutativity lets the
    constant terms be summed once:

    * ``ip_partial`` — the word sum of the IPv4 header with Total Length
      and Checksum zeroed; per packet only the length term is added.
    * ``udp_partial`` — the pseudo-header constants plus the UDP ports.
      The UDP Length field appears twice in the checksummed stream (once
      in the pseudo-header, once in the real header), hence the
      ``2 * udp_length`` term per packet.

    Per-packet work is then: splice two length fields, fold two partial
    sums (the payload word sum is the only data-dependent part), splice
    two checksums.  Byte-identical to the Writer-based reference path.
    """

    __slots__ = ("skeleton", "ip_partial", "udp_partial")

    def __init__(
        self, src_ip: int, dst_ip: int, src_port: int, dst_port: int, ttl: int
    ) -> None:
        skeleton = bytearray(IP_HEADER_LENGTH + HEADER_LENGTH)
        skeleton[0] = 0x45  # version 4, IHL 5; DSCP/ECN zero
        skeleton[6:8] = (0x4000).to_bytes(2, "big")  # don't-fragment
        skeleton[8] = ttl
        skeleton[9] = PROTO_UDP
        skeleton[12:16] = src_ip.to_bytes(4, "big")
        skeleton[16:20] = dst_ip.to_bytes(4, "big")
        skeleton[20:22] = src_port.to_bytes(2, "big")
        skeleton[22:24] = dst_port.to_bytes(2, "big")
        self.skeleton = skeleton
        self.ip_partial = (
            0x4500
            + 0x4000
            + ((ttl << 8) | PROTO_UDP)
            + (src_ip >> 16)
            + (src_ip & 0xFFFF)
            + (dst_ip >> 16)
            + (dst_ip & 0xFFFF)
        )
        self.udp_partial = (
            (src_ip >> 16)
            + (src_ip & 0xFFFF)
            + (dst_ip >> 16)
            + (dst_ip & 0xFFFF)
            + PROTO_UDP
            + src_port
            + dst_port
        )

    def _header(self, payload: bytes) -> bytearray:
        udp_length = HEADER_LENGTH + len(payload)
        if udp_length > 0xFFFF:
            raise UdpParseError("UDP datagram too large: %d" % udp_length)
        total_length = IP_HEADER_LENGTH + udp_length
        if total_length > 0xFFFF:
            raise IpParseError("IPv4 packet too large: %d bytes" % total_length)
        header = self.skeleton.copy()
        header[2:4] = total_length.to_bytes(2, "big")
        ip_checksum = internet_checksum(b"", initial=self.ip_partial + total_length)
        header[10:12] = ip_checksum.to_bytes(2, "big")
        header[24:26] = udp_length.to_bytes(2, "big")
        udp_checksum = internet_checksum(
            payload, initial=self.udp_partial + 2 * udp_length
        )
        if udp_checksum == 0:
            udp_checksum = 0xFFFF  # RFC 768: zero means "no checksum"
        header[26:28] = udp_checksum.to_bytes(2, "big")
        return header

    def encode(self, payload: bytes) -> bytes:
        """Serialize one packet of this flow."""
        return bytes(self._header(payload)) + payload

    def encode_into(self, out: bytearray, payload: bytes) -> None:
        """Append one packet of this flow to ``out`` (no final copy)."""
        out += self._header(payload)
        out += payload


_FLOW_TEMPLATES = LruCache(4096)


def flow_template(datagram: UdpDatagram) -> FlowTemplate:
    """Fetch (or build) the cached encapsulation template for a flow."""
    key = (
        datagram.src_ip,
        datagram.dst_ip,
        datagram.src_port,
        datagram.dst_port,
        datagram.ttl,
    )
    return _FLOW_TEMPLATES.get_or_build(key, lambda: FlowTemplate(*key))


def encode_udp(datagram: UdpDatagram) -> bytes:
    """Serialize the full IPv4+UDP packet with both checksums."""
    if hotpath.enabled:
        return flow_template(datagram).encode(datagram.payload)
    return _encode_udp_rebuild(datagram)


def encode_udp_into(out: bytearray, datagram: UdpDatagram) -> None:
    """Append the serialized packet to ``out`` (capture-buffer fast path)."""
    if hotpath.enabled:
        flow_template(datagram).encode_into(out, datagram.payload)
    else:
        out += _encode_udp_rebuild(datagram)


def _encode_udp_rebuild(datagram: UdpDatagram) -> bytes:
    """Writer-based reference encoder (parity baseline for templates)."""
    udp_length = HEADER_LENGTH + len(datagram.payload)
    if udp_length > 0xFFFF:
        raise UdpParseError("UDP datagram too large: %d" % udp_length)
    writer = Writer()
    writer.write_u16(datagram.src_port)
    writer.write_u16(datagram.dst_port)
    writer.write_u16(udp_length)
    writer.write_u16(0)  # checksum placeholder
    writer.write(datagram.payload)
    udp_bytes = bytearray(writer.getvalue())
    pseudo = Writer()
    pseudo.write_u32(datagram.src_ip)
    pseudo.write_u32(datagram.dst_ip)
    pseudo.write_u8(0)
    pseudo.write_u8(PROTO_UDP)
    pseudo.write_u16(udp_length)
    checksum = internet_checksum(pseudo.getvalue() + bytes(udp_bytes))
    if checksum == 0:
        checksum = 0xFFFF  # RFC 768: zero means "no checksum"
    udp_bytes[6:8] = checksum.to_bytes(2, "big")
    ip_header = IPv4Header(
        src=datagram.src_ip,
        dst=datagram.dst_ip,
        protocol=PROTO_UDP,
        ttl=datagram.ttl,
    )
    return encode_ipv4(ip_header, bytes(udp_bytes))


def decode_udp(packet: bytes) -> UdpDatagram:
    """Parse a full IPv4+UDP packet back into a :class:`UdpDatagram`."""
    ip_header, ip_payload = decode_ipv4(packet)
    if ip_header.protocol != PROTO_UDP:
        raise UdpParseError("IP protocol %d is not UDP" % ip_header.protocol)
    if len(ip_payload) < HEADER_LENGTH:
        raise UdpParseError("payload shorter than UDP header")
    src_port, dst_port, udp_length = _PORTS_LENGTH.unpack_from(ip_payload)
    if udp_length < HEADER_LENGTH or udp_length > len(ip_payload):
        raise UdpParseError("bad UDP length %d" % udp_length)
    payload = ip_payload[HEADER_LENGTH:udp_length]
    return UdpDatagram(
        src_ip=ip_header.src,
        dst_ip=ip_header.dst,
        src_port=src_port,
        dst_port=dst_port,
        payload=payload,
        ttl=ip_header.ttl,
    )
