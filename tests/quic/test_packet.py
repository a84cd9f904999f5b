"""Long-header packets, coalescence, Retry, and Version Negotiation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.crypto.suites import FastProtection
from repro.quic.packet import (
    MIN_INITIAL_DATAGRAM,
    LongHeaderPacket,
    PacketParseError,
    PacketType,
    RetryPacket,
    VersionNegotiationPacket,
    decode_datagram,
    encode_datagram,
    encode_packet,
    encode_retry,
    encode_version_negotiation,
    parse_long_header,
    unprotect_packet,
)

DCID = b"\x83\x94\xc8\xf0\x3e\x51\x57\x08"
SCID = b"\xaa" * 8


def suite():
    return FastProtection(1, DCID)


def initial(payload=b"\x06\x01\x02\x03" + b"\x00" * 30, pn=0, token=b""):
    return LongHeaderPacket(
        packet_type=PacketType.INITIAL,
        version=1,
        dcid=DCID,
        scid=SCID,
        packet_number=pn,
        payload=payload,
        token=token,
    )


def handshake(payload=b"\x06" + b"\x00" * 40, pn=1):
    return LongHeaderPacket(
        packet_type=PacketType.HANDSHAKE,
        version=1,
        dcid=DCID,
        scid=SCID,
        packet_number=pn,
        payload=payload,
    )


class TestParseLongHeader:
    def test_initial_fields_visible_without_keys(self):
        wire = encode_packet(initial(token=b"tok"), suite(), is_server=False)
        parsed = parse_long_header(wire)
        assert parsed.packet_type is PacketType.INITIAL
        assert parsed.version == 1
        assert parsed.dcid == DCID
        assert parsed.scid == SCID
        assert parsed.token == b"tok"
        assert parsed.packet_length == len(wire)

    def test_rejects_short_header(self):
        with pytest.raises(PacketParseError):
            parse_long_header(b"\x40" + b"\x00" * 30)

    def test_rejects_zero_fixed_bit(self):
        wire = bytearray(encode_packet(initial(), suite(), is_server=False))
        # Clear form+fixed: craft a first byte with form set, fixed cleared.
        wire[0] = 0x80
        with pytest.raises(PacketParseError):
            parse_long_header(bytes(wire))

    def test_rejects_oversized_cid(self):
        raw = bytes([0xC0, 0, 0, 0, 1, 21]) + b"\x00" * 40
        with pytest.raises(PacketParseError):
            parse_long_header(raw)

    def test_rejects_length_overrun(self):
        wire = bytearray(encode_packet(initial(), suite(), is_server=False))
        truncated = bytes(wire[: len(wire) // 2])
        with pytest.raises(PacketParseError):
            parse_long_header(truncated)


class TestCoalescence:
    def test_two_packets_one_datagram(self):
        s = suite()
        data = encode_datagram([initial(), handshake()], s, is_server=True)
        packets = decode_datagram(data)
        assert [p.packet_type for p, _ in packets] == [
            PacketType.INITIAL,
            PacketType.HANDSHAKE,
        ]
        # Both decrypt independently.
        for parsed, raw in packets:
            plain = unprotect_packet(parsed, raw, s, from_server=True)
            assert plain.payload

    def test_padding_extends_last_packet(self):
        s = suite()
        data = encode_datagram(
            [initial(), handshake()], s, is_server=True, pad_to=1252
        )
        assert len(data) == 1252
        packets = decode_datagram(data)
        assert len(packets) == 2
        plain = unprotect_packet(packets[1][0], packets[1][1], s, from_server=True)
        assert plain.payload.endswith(b"\x00" * 10)

    def test_client_initial_padded_to_minimum(self):
        s = suite()
        data = encode_datagram(
            [initial()], s, is_server=False, pad_to=MIN_INITIAL_DATAGRAM
        )
        assert len(data) == MIN_INITIAL_DATAGRAM

    def test_no_padding_when_already_long(self):
        s = suite()
        big = initial(payload=b"\x00" * 1500)
        data = encode_datagram([big], s, is_server=False, pad_to=1200)
        assert len(data) > 1200

    def test_empty_datagram_rejected(self):
        with pytest.raises(PacketParseError):
            encode_datagram([], suite(), is_server=False)

    def test_decode_garbage_rejected(self):
        with pytest.raises(PacketParseError):
            decode_datagram(b"\x17\x03\x03\x00\x10" + b"\x00" * 16)


class TestVersionNegotiation:
    def test_roundtrip(self):
        packet = VersionNegotiationPacket(
            dcid=b"\x01" * 8,
            scid=b"\x02" * 8,
            supported_versions=(0x00000001, 0xFF00001D),
        )
        wire = encode_version_negotiation(packet)
        parsed = parse_long_header(wire)
        assert parsed.packet_type is PacketType.VERSION_NEGOTIATION
        assert parsed.supported_versions == (0x00000001, 0xFF00001D)
        assert parsed.dcid == b"\x01" * 8
        assert parsed.scid == b"\x02" * 8

    def test_vn_terminates_datagram_scan(self):
        packet = VersionNegotiationPacket(
            dcid=b"", scid=b"\x02" * 8, supported_versions=(1,)
        )
        wire = encode_version_negotiation(packet) + b"\xc0trailing"
        packets = decode_datagram(wire)
        assert len(packets) == 1


class TestRetry:
    def test_roundtrip(self):
        packet = RetryPacket(
            version=1, dcid=b"\x01" * 4, scid=b"\x02" * 8, retry_token=b"token123"
        )
        wire = encode_retry(packet)
        parsed = parse_long_header(wire)
        assert parsed.packet_type is PacketType.RETRY
        assert parsed.retry_token == b"token123"

    def test_retry_too_short(self):
        packet = RetryPacket(version=1, dcid=b"", scid=b"", retry_token=b"")
        wire = encode_retry(packet)
        # Strip the integrity tag below 16 bytes.
        with pytest.raises(PacketParseError):
            parse_long_header(wire[:-10])


class TestValidation:
    def test_long_header_packet_rejects_retry_type(self):
        with pytest.raises(PacketParseError):
            LongHeaderPacket(
                packet_type=PacketType.RETRY, version=1, dcid=b"", scid=b""
            )

    def test_pn_length_bounds(self):
        with pytest.raises(PacketParseError):
            LongHeaderPacket(
                packet_type=PacketType.INITIAL,
                version=1,
                dcid=b"",
                scid=b"",
                pn_length=5,
            )

    def test_cid_length_bound_on_encode(self):
        packet = LongHeaderPacket(
            packet_type=PacketType.INITIAL, version=1, dcid=b"\x00" * 21, scid=b""
        )
        with pytest.raises(PacketParseError):
            encode_packet(packet, suite(), is_server=False)


@settings(max_examples=40, deadline=None)
@given(
    dcid=st.binary(min_size=0, max_size=20),
    scid=st.binary(min_size=0, max_size=20),
    payload=st.binary(min_size=24, max_size=300),
    token=st.binary(min_size=0, max_size=32),
    version=st.sampled_from([0x00000001, 0xFF00001D, 0xFACEB002]),
)
def test_header_roundtrip_property(dcid, scid, payload, token, version):
    s = FastProtection(version, dcid)
    packet = LongHeaderPacket(
        packet_type=PacketType.INITIAL,
        version=version,
        dcid=dcid,
        scid=scid,
        payload=payload,
        token=token,
    )
    wire = encode_packet(packet, s, is_server=False)
    parsed = parse_long_header(wire)
    assert parsed.dcid == dcid
    assert parsed.scid == scid
    assert parsed.token == token
    assert parsed.version == version
    plain = unprotect_packet(parsed, wire, s, from_server=False)
    assert plain.payload == payload
