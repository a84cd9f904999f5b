"""IPv4/UDP codecs and the RFC 1071 checksum reference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netstack.addr import parse_ip
from repro.netstack.ip import IPv4Header, IpParseError, PROTO_UDP, decode_ipv4
from repro.netstack.udp import (
    DeferredDatagram,
    UdpDatagram,
    UdpParseError,
    decode_udp,
    encode_udp,
)
from tests.netstack.test_capbuf import encode_ipv4, internet_checksum, verify_checksum


class TestChecksum:
    def test_rfc1071_example(self):
        # Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_verify(self):
        data = bytes.fromhex("0001f203f4f5f6f7") + (0x220D).to_bytes(2, "big")
        assert verify_checksum(data)

    def test_odd_length(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_large_buffer(self):
        data = bytes(range(256)) * 8
        small_sum = internet_checksum(data[:50])
        assert 0 <= small_sum <= 0xFFFF
        assert 0 <= internet_checksum(data) <= 0xFFFF

    @given(
        data=st.one_of(
            st.binary(max_size=1500),
            st.builds(
                lambda byte, n: bytes([byte]) * n,
                st.sampled_from([0x00, 0xFF]),
                st.integers(0, 1500),
            ),
        ),
        initial=st.integers(0, 1 << 20),
    )
    def test_matches_word_loop_reference(self, data, initial):
        """The one-shot modular sum equals RFC 1071's add-and-fold loop."""
        padded = data + b"\x00" * (len(data) % 2)
        total = initial
        for i in range(0, len(padded), 2):
            total += (padded[i] << 8) | padded[i + 1]
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        assert internet_checksum(data, initial) == ~total & 0xFFFF
        if not initial:
            assert verify_checksum(data) == (total == 0xFFFF)


class TestIPv4:
    def test_roundtrip(self):
        header = IPv4Header(
            src=parse_ip("1.2.3.4"), dst=parse_ip("5.6.7.8"), ttl=17
        )
        packet = encode_ipv4(header, b"payload")
        decoded, payload = decode_ipv4(packet)
        assert payload == b"payload"
        assert decoded.src == header.src
        assert decoded.dst == header.dst
        assert decoded.ttl == 17
        assert decoded.total_length == 27

    def test_header_checksum_valid(self):
        packet = encode_ipv4(IPv4Header(src=1, dst=2), b"x")
        assert verify_checksum(packet[:20])

    def test_rejects_short(self):
        with pytest.raises(IpParseError):
            decode_ipv4(b"\x45\x00")

    def test_rejects_wrong_version(self):
        packet = bytearray(encode_ipv4(IPv4Header(src=1, dst=2), b""))
        packet[0] = 0x65
        with pytest.raises(IpParseError):
            decode_ipv4(bytes(packet))

    def test_rejects_oversized(self):
        with pytest.raises(IpParseError):
            encode_ipv4(IPv4Header(src=1, dst=2), b"\x00" * 65530)

    def test_rejects_bad_total_length(self):
        packet = bytearray(encode_ipv4(IPv4Header(src=1, dst=2), b"abc"))
        packet[2:4] = (100).to_bytes(2, "big")  # longer than the buffer
        with pytest.raises(IpParseError):
            decode_ipv4(bytes(packet))


class TestUdp:
    def datagram(self, payload=b"quic bytes"):
        return UdpDatagram(
            src_ip=parse_ip("10.0.0.1"),
            dst_ip=parse_ip("10.0.0.2"),
            src_port=5555,
            dst_port=443,
            payload=payload,
        )

    def test_roundtrip(self):
        assert decode_udp(encode_udp(self.datagram())) == self.datagram()

    def test_pseudo_header_checksum_nonzero(self):
        packet = encode_udp(self.datagram())
        checksum = int.from_bytes(packet[26:28], "big")
        assert checksum != 0

    def test_reply_swaps_endpoints(self):
        reply = self.datagram().reply(b"resp")
        assert reply.src_ip == parse_ip("10.0.0.2")
        assert reply.dst_port == 5555
        assert reply.payload == b"resp"

    def test_flow_tuple(self):
        flow = self.datagram().flow
        assert flow == (parse_ip("10.0.0.1"), 5555, parse_ip("10.0.0.2"), 443, 17)

    def test_rejects_non_udp(self):
        packet = encode_ipv4(
            IPv4Header(src=1, dst=2, protocol=6), b"\x00" * 20
        )
        with pytest.raises(UdpParseError):
            decode_udp(packet)

    def test_rejects_truncated_udp(self):
        packet = encode_ipv4(IPv4Header(src=1, dst=2, protocol=PROTO_UDP), b"\x00" * 4)
        with pytest.raises(UdpParseError):
            decode_udp(packet)

    def test_rejects_bad_udp_length(self):
        raw = bytearray(encode_udp(self.datagram()))
        raw[24:26] = (4).to_bytes(2, "big")  # UDP length below header size
        with pytest.raises(UdpParseError):
            decode_udp(bytes(raw))


class TestDeferredDatagram:
    def deferred(self, payload=b"quic bytes"):
        builds = []

        def build():
            builds.append(payload)
            return payload

        datagram = DeferredDatagram(
            parse_ip("10.0.0.1"), parse_ip("10.0.0.2"), 5555, 443, len(payload), build
        )
        return datagram, builds

    def test_length_and_endpoints_need_no_build(self):
        datagram, builds = self.deferred()
        assert datagram.payload_length == 10
        src, dst = parse_ip("10.0.0.1"), parse_ip("10.0.0.2")
        assert datagram.flow == (src, 5555, dst, 443, 17)
        assert datagram.ttl == 64
        assert builds == []

    def test_first_read_builds_later_reads_do_not(self):
        datagram, builds = self.deferred()
        assert datagram.payload == datagram.payload == b"quic bytes"
        assert builds == [b"quic bytes"]
        assert datagram.payload_length == len(datagram.payload)

    def test_encodes_like_the_eager_datagram(self):
        datagram, _builds = self.deferred()
        eager = UdpDatagram(
            datagram.src_ip, datagram.dst_ip, 5555, 443, b"quic bytes"
        )
        assert encode_udp(datagram) == encode_udp(eager)
        assert decode_udp(encode_udp(datagram)) == eager
        assert eager.payload_length == 10

    def test_with_payload_and_reply_give_plain_datagrams(self):
        datagram, builds = self.deferred()
        swapped = datagram.with_payload(b"other")
        assert type(swapped) is UdpDatagram and swapped.payload == b"other"
        assert swapped.flow == datagram.flow
        assert datagram.reply(b"resp").dst_port == 5555
        assert builds == []

    def test_stays_frozen_and_has_no_stray_attributes(self):
        datagram, _builds = self.deferred()
        with pytest.raises(AttributeError):
            datagram.payload = b"x"
        with pytest.raises(AttributeError):
            datagram.no_such_field

    def test_a_failed_build_can_be_read_again(self):
        attempts = []

        def build():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first try")
            return b"ok"

        datagram = DeferredDatagram(1, 2, 3, 4, 2, build)
        with pytest.raises(RuntimeError):
            datagram.payload
        assert datagram.payload == b"ok"


@settings(max_examples=50, deadline=None)
@given(
    src=st.integers(min_value=0, max_value=(1 << 32) - 1),
    dst=st.integers(min_value=0, max_value=(1 << 32) - 1),
    sport=st.integers(min_value=0, max_value=65535),
    dport=st.integers(min_value=0, max_value=65535),
    payload=st.binary(min_size=0, max_size=1500),
)
def test_udp_roundtrip_property(src, dst, sport, dport, payload):
    datagram = UdpDatagram(
        src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport, payload=payload
    )
    packet = encode_udp(datagram)
    assert decode_udp(packet) == datagram
    # Both checksums hold.
    assert verify_checksum(packet[:20])
