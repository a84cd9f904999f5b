"""Differential and hostile-input coverage for the fixed-offset parsers.

``decode_ipv4``, ``decode_udp`` and ``parse_long_header`` read the record
bytes at fixed offsets.  The cursor-based bodies they replaced survive
here, and only here, as references: over valid packets, every truncation
of them, and bit-flipped or length-lying mutants, the shipped parser and
its reference must agree on accept/reject, on the exception *type*, and
on every returned field.  Any exception is caught on the shipped side, so
a ``struct.error`` or ``IndexError`` escaping it fails the comparison.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.buffer import BufferError_, Reader
from repro.netstack.ip import (
    HEADER_LENGTH as IP_HEADER_LENGTH,
    IPv4Header,
    IpParseError,
    PROTO_UDP,
    decode_ipv4,
)
from repro.netstack.udp import (
    HEADER_LENGTH as UDP_HEADER_LENGTH,
    UdpDatagram,
    UdpParseError,
    decode_udp,
    encode_udp,
)
from repro.quic.crypto.suites import NullProtection
from repro.quic.packet import (
    FIXED_BIT,
    FORM_BIT,
    LongHeaderPacket,
    PacketParseError,
    PacketType,
    ParsedLongHeader,
    RetryPacket,
    VersionNegotiationPacket,
    encode_datagram,
    encode_retry,
    encode_version_negotiation,
    parse_long_header,
)
from repro.quic.varint import read_varint
from repro.quic.version import VERSION_NEGOTIATION


# ---------------------------------------------------------------------------
# References: the Reader-based parsers as they stood before the flat ones
# ---------------------------------------------------------------------------


def reference_decode_ipv4(data):
    if len(data) < IP_HEADER_LENGTH:
        raise IpParseError("packet shorter than IPv4 header")
    reader = Reader(data)
    version_ihl = reader.read_u8()
    if version_ihl >> 4 != 4:
        raise IpParseError("not IPv4 (version %d)" % (version_ihl >> 4))
    ihl = (version_ihl & 0x0F) * 4
    if ihl < IP_HEADER_LENGTH or ihl > len(data):
        raise IpParseError("bad IHL %d" % ihl)
    dscp_ecn = reader.read_u8()
    total_length = reader.read_u16()
    if total_length > len(data) or total_length < ihl:
        raise IpParseError("bad total length %d" % total_length)
    identification = reader.read_u16()
    flags_fragment = reader.read_u16()
    ttl = reader.read_u8()
    protocol = reader.read_u8()
    reader.read_u16()  # checksum
    src = reader.read_u32()
    dst = reader.read_u32()
    header = IPv4Header(
        src=src,
        dst=dst,
        protocol=protocol,
        ttl=ttl,
        identification=identification,
        dscp_ecn=dscp_ecn,
        flags_fragment=flags_fragment,
        total_length=total_length,
    )
    return header, data[ihl:total_length]


def reference_decode_udp(packet):
    ip_header, ip_payload = reference_decode_ipv4(packet)
    if ip_header.protocol != PROTO_UDP:
        raise UdpParseError("IP protocol %d is not UDP" % ip_header.protocol)
    if len(ip_payload) < UDP_HEADER_LENGTH:
        raise UdpParseError("payload shorter than UDP header")
    reader = Reader(ip_payload)
    src_port = reader.read_u16()
    dst_port = reader.read_u16()
    udp_length = reader.read_u16()
    if udp_length < UDP_HEADER_LENGTH or udp_length > len(ip_payload):
        raise UdpParseError("bad UDP length %d" % udp_length)
    reader.read_u16()  # checksum
    return UdpDatagram(
        src_ip=ip_header.src,
        dst_ip=ip_header.dst,
        src_port=src_port,
        dst_port=dst_port,
        payload=ip_payload[UDP_HEADER_LENGTH:udp_length],
        ttl=ip_header.ttl,
    )


def reference_parse_long_header(data, offset=0):
    reader = Reader(data, offset)
    try:
        first = reader.read_u8()
        if not first & FORM_BIT:
            raise PacketParseError("not a long-header packet")
        version = reader.read_u32()
        dcid_len = reader.read_u8()
        if dcid_len > 20:
            raise PacketParseError("DCID length %d exceeds 20" % dcid_len)
        dcid = reader.read(dcid_len)
        scid_len = reader.read_u8()
        if scid_len > 20:
            raise PacketParseError("SCID length %d exceeds 20" % scid_len)
        scid = reader.read(scid_len)

        if version == VERSION_NEGOTIATION:
            versions = []
            while reader.remaining >= 4:
                versions.append(reader.read_u32())
            return ParsedLongHeader(
                packet_type=PacketType.VERSION_NEGOTIATION,
                version=version,
                dcid=dcid,
                scid=scid,
                token=b"",
                pn_offset=reader.pos - offset,
                packet_length=reader.pos - offset,
                payload_length=0,
                supported_versions=tuple(versions),
            )

        if not first & FIXED_BIT:
            raise PacketParseError("fixed bit is zero")

        packet_type = PacketType((first >> 4) & 0x03)
        if packet_type is PacketType.RETRY:
            retry_token = reader.read_rest()
            if len(retry_token) < 16:
                raise PacketParseError("Retry packet shorter than integrity tag")
            return ParsedLongHeader(
                packet_type=packet_type,
                version=version,
                dcid=dcid,
                scid=scid,
                token=b"",
                pn_offset=len(data) - offset,
                packet_length=len(data) - offset,
                payload_length=0,
                retry_token=retry_token[:-16],
            )

        token = b""
        if packet_type is PacketType.INITIAL:
            token_length = read_varint(reader)
            token = reader.read(token_length)
        payload_length = read_varint(reader)
        pn_offset = reader.pos - offset
        packet_length = pn_offset + payload_length
        if offset + packet_length > len(data):
            raise PacketParseError(
                "declared length %d overruns datagram" % payload_length
            )
        return ParsedLongHeader(
            packet_type=packet_type,
            version=version,
            dcid=dcid,
            scid=scid,
            token=token,
            pn_offset=pn_offset,
            packet_length=packet_length,
            payload_length=payload_length,
        )
    except BufferError_ as exc:
        raise PacketParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def outcome(parser, *args):
    try:
        return ("accepted", parser(*args))
    except Exception as exc:  # the point: *whatever* escapes is compared
        return ("rejected", type(exc))


def assert_same(flat, reference, *args):
    assert outcome(flat, *args) == outcome(reference, *args)


def mutants(packet, seed):
    """Every truncation, then bit flips and lying length/field bytes."""
    for cut in range(len(packet) + 1):
        yield packet[:cut]
    rng = random.Random(seed)
    header_span = min(len(packet), 96)
    for _ in range(64):
        mutant = bytearray(packet)
        mutant[rng.randrange(len(packet))] ^= 1 << rng.randrange(8)
        yield bytes(mutant)
    for _ in range(64):
        # Overwrite a byte near the front, where the length fields live
        # (IHL, total length, UDP length, CID lengths, varints).
        mutant = bytearray(packet)
        mutant[rng.randrange(header_span)] = rng.choice(
            (0x00, 0x01, 0x14, 0x15, 0x3F, 0x40, 0x7F, 0x80, 0xBF, 0xC0, 0xFF)
        )
        yield bytes(mutant)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

cids = st.binary(max_size=20)
versions = st.sampled_from([1, 0x6B3343CF, 0xFF00001D, 0xFACEB002, 0x1A2A3A4A])


@st.composite
def long_header_packets(draw):
    return LongHeaderPacket(
        packet_type=draw(
            st.sampled_from(
                [PacketType.INITIAL, PacketType.ZERO_RTT, PacketType.HANDSHAKE]
            )
        ),
        version=draw(versions),
        dcid=draw(cids),
        scid=draw(cids),
        packet_number=draw(st.integers(0, 1 << 20)),
        payload=draw(st.binary(min_size=4, max_size=80)),
        pn_length=draw(st.integers(1, 4)),
    )


@st.composite
def quic_datagrams(draw):
    kind = draw(st.sampled_from(["long", "coalesced", "vn", "retry"]))
    if kind == "vn":
        return encode_version_negotiation(
            VersionNegotiationPacket(
                dcid=draw(cids),
                scid=draw(cids),
                supported_versions=tuple(
                    draw(st.lists(st.integers(0, 0xFFFFFFFF), max_size=6))
                ),
            )
        ) + draw(st.binary(max_size=3))
    if kind == "retry":
        return encode_retry(
            RetryPacket(
                version=draw(versions),
                dcid=draw(cids),
                scid=draw(cids),
                retry_token=draw(st.binary(max_size=40)),
            )
        )
    packets = [draw(long_header_packets())]
    if packets[0].packet_type is PacketType.INITIAL:
        packets[0].token = draw(st.binary(max_size=70))
    if kind == "coalesced":
        packets.append(draw(long_header_packets()))
    return encode_datagram(
        packets, NullProtection(1, b""), is_server=draw(st.booleans())
    )


@st.composite
def udp_packets(draw):
    return encode_udp(
        UdpDatagram(
            src_ip=draw(st.integers(0, 0xFFFFFFFF)),
            dst_ip=draw(st.integers(0, 0xFFFFFFFF)),
            src_port=draw(st.integers(0, 0xFFFF)),
            dst_port=draw(st.integers(0, 0xFFFF)),
            payload=draw(st.binary(max_size=120)),
            ttl=draw(st.integers(0, 255)),
        )
    )


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(packet=udp_packets(), seed=st.integers(0, 1 << 30))
def test_ip_and_udp_decoders_match_reference(packet, seed):
    decoded = decode_udp(packet)
    assert encode_udp(decoded) == packet
    for mutant in mutants(packet, seed):
        assert_same(decode_ipv4, reference_decode_ipv4, mutant)
        assert_same(decode_udp, reference_decode_udp, mutant)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_ip_and_udp_decoders_match_reference_on_noise(data):
    # Mostly-valid prefix so the interesting checks are reached.
    packet = b"\x45\x00" + data
    assert_same(decode_ipv4, reference_decode_ipv4, packet)
    assert_same(decode_udp, reference_decode_udp, packet)


@settings(max_examples=80, deadline=None)
@given(datagram=quic_datagrams(), seed=st.integers(0, 1 << 30))
def test_long_header_parser_matches_reference(datagram, seed):
    first = parse_long_header(datagram)
    assert first == reference_parse_long_header(datagram)
    offsets = {0, first.packet_length, len(datagram), len(datagram) + 1}
    for mutant in mutants(datagram, seed):
        for offset in offsets:
            assert_same(
                parse_long_header, reference_parse_long_header, mutant, offset
            )


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=80), offset=st.integers(0, 8))
def test_long_header_parser_matches_reference_on_noise(data, offset):
    packet = b"\xc3" + data
    assert_same(parse_long_header, reference_parse_long_header, packet, offset)
    assert_same(parse_long_header, reference_parse_long_header, data, offset)
