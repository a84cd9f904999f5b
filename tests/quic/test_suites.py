"""Packet-protection suites: the RFC 9001 path, the fast path, and null."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.crypto.initial import derive_initial_keys
from repro.quic.crypto.suites import (
    SAMPLE_LENGTH,
    SAMPLE_OFFSET,
    TAG_LENGTH,
    FastProtection,
    NullProtection,
    ProtectionError,
    Rfc9001Protection,
    decode_packet_number,
    suite_by_name,
)
from repro.quic.packet import (
    LongHeaderPacket,
    PacketType,
    encode_packet,
    parse_long_header,
    unprotect_packet,
)

DCID = bytes.fromhex("8394c8f03e515708")
ALL_SUITES = [Rfc9001Protection, FastProtection, NullProtection]


def make_packet(payload=b"\x01" * 40, pn=7, pn_length=2):
    return LongHeaderPacket(
        packet_type=PacketType.INITIAL,
        version=1,
        dcid=DCID,
        scid=b"\xaa" * 8,
        packet_number=pn,
        payload=payload,
        pn_length=pn_length,
    )


class TestSuiteRegistry:
    def test_lookup_by_name(self):
        assert suite_by_name("rfc9001") is Rfc9001Protection
        assert suite_by_name("fast") is FastProtection
        assert suite_by_name("null") is NullProtection

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            suite_by_name("rot13")


@pytest.mark.parametrize("suite_cls", ALL_SUITES)
class TestRoundtrip:
    def test_client_roundtrip(self, suite_cls):
        suite = suite_cls(1, DCID)
        wire = encode_packet(make_packet(), suite, is_server=False)
        parsed = parse_long_header(wire)
        plain = unprotect_packet(parsed, wire, suite, from_server=False)
        assert plain.payload == b"\x01" * 40
        assert plain.packet_number == 7

    def test_server_roundtrip(self, suite_cls):
        suite = suite_cls(1, DCID)
        wire = encode_packet(make_packet(pn=3, pn_length=1), suite, is_server=True)
        parsed = parse_long_header(wire)
        plain = unprotect_packet(parsed, wire, suite, from_server=True)
        assert plain.packet_number == 3

    def test_largest_pn_recovers_a_truncated_number(self, suite_cls):
        suite = suite_cls(1, DCID)
        wire = encode_packet(make_packet(pn=301, pn_length=1), suite, True)
        pn_offset = parse_long_header(wire).pn_offset
        assert suite.unprotect(True, wire, pn_offset, largest_pn=300)[1:] == (301, 1)

    def test_directions_use_distinct_keys(self, suite_cls):
        suite = suite_cls(1, DCID)
        wire = encode_packet(make_packet(), suite, is_server=False)
        parsed = parse_long_header(wire)
        if suite_cls is NullProtection:
            pytest.skip("null suite is direction-agnostic by design")
        with pytest.raises(ProtectionError):
            unprotect_packet(parsed, wire, suite, from_server=True)


@pytest.mark.parametrize("suite_cls", [Rfc9001Protection, FastProtection])
class TestTamper:
    def test_payload_tamper_detected(self, suite_cls):
        suite = suite_cls(1, DCID)
        wire = bytearray(encode_packet(make_packet(), suite, is_server=False))
        wire[-1] ^= 0xFF
        parsed = parse_long_header(bytes(wire))
        with pytest.raises(ProtectionError):
            unprotect_packet(parsed, bytes(wire), suite, from_server=False)

    def test_wrong_dcid_fails(self, suite_cls):
        suite = suite_cls(1, DCID)
        other = suite_cls(1, b"\xff" * 8)
        wire = encode_packet(make_packet(), suite, is_server=False)
        parsed = parse_long_header(wire)
        with pytest.raises(ProtectionError):
            unprotect_packet(parsed, wire, other, from_server=False)

    def test_truncated_sample(self, suite_cls):
        suite = suite_cls(1, DCID)
        with pytest.raises(ProtectionError):
            suite.unprotect(False, b"\xc0\x00\x00\x00\x01", pn_offset=5)


class TestHeaderProtectionBits:
    def test_reserved_and_pn_bits_masked(self):
        """The low nibble of the first byte must differ on the wire."""
        suite = FastProtection(1, DCID)
        packet = make_packet(pn_length=4)
        wire = encode_packet(packet, suite, is_server=False)
        unmasked_first = 0x80 | 0x40 | (0 << 4) | (4 - 1)
        # With overwhelming probability the mask flips at least one of the
        # protected bits across several packets.
        differs = wire[0] != unmasked_first
        for pn in range(1, 6):
            wire = encode_packet(make_packet(pn=pn, pn_length=4), suite, False)
            differs = differs or wire[0] != unmasked_first
        assert differs


class TestRfc9001AppendixA3:
    """The RFC's server Initial, through the shipped encoder and back.

    One outside vector for the whole long-header write path: the header
    template (empty DCID, 8-byte SCID, 2-byte Length varint ``4075``,
    2-byte packet number), the generic protection driver, and the
    memoized AES-GCM / AES-ECB schedules under the A.1 server keys.
    """

    SCID = bytes.fromhex("f067a5502a4262b5")
    #: ACK of packet 0, then CRYPTO carrying the ServerHello; no PADDING.
    PAYLOAD = bytes.fromhex(
        "02000000000600405a020000560303eefce7f7b37ba1d1632e96677825ddf739"
        "88cfc79825df566dc5430b9a045a1200130100002e00330024001d00209d3c94"
        "0d89690b84d08a60993c144eca684d1081287c834d5311bcf32bb9da1a002b00"
        "020304"
    )
    PROTECTED = bytes.fromhex(
        "cf000000010008f067a5502a4262b5004075c0d95a482cd0991cd25b0aac406a"
        "5816b6394100f37a1c69797554780bb38cc5a99f5ede4cf73c3ec2493a1839b3"
        "dbcba3f6ea46c5b7684df3548e7ddeb9c3bf9c73cc3f3bded74b562bfb19fb84"
        "022f8ef4cdd93795d77d06edbb7aaf2f58891850abbdca3d20398c276456cbc4"
        "2158407dd074ee"
    )

    def packet(self):
        return LongHeaderPacket(
            packet_type=PacketType.INITIAL,
            version=1,
            dcid=b"",
            scid=self.SCID,
            packet_number=1,
            payload=self.PAYLOAD,
            pn_length=2,
        )

    def test_server_initial_encodes_to_the_rfc_bytes(self):
        suite = Rfc9001Protection(1, DCID)
        wire = encode_packet(self.packet(), suite, is_server=True)
        assert len(wire) == 135
        assert wire.hex() == self.PROTECTED.hex()

    def test_rfc_bytes_parse_and_open(self):
        parsed = parse_long_header(self.PROTECTED)
        assert (parsed.dcid, parsed.scid, parsed.token) == (b"", self.SCID, b"")
        assert (parsed.pn_offset, parsed.payload_length) == (18, 0x75)
        suite = Rfc9001Protection(1, DCID)
        assert (
            unprotect_packet(parsed, self.PROTECTED, suite, from_server=True)
            == self.packet()
        )


class TestPacketNumberDecoding:
    """RFC 9000 Appendix A.3 example and edge cases."""

    def test_rfc_example(self):
        # largest 0xa82f30ea, truncated 0x9b32 in 16 bits -> 0xa82f9b32.
        assert decode_packet_number(0x9B32, 16, 0xA82F30EA) == 0xA82F9B32

    def test_no_wrap_small(self):
        assert decode_packet_number(5, 8, 3) == 5

    def test_forward_wrap(self):
        assert decode_packet_number(2, 8, 254) == 258

    @given(
        st.integers(min_value=0, max_value=(1 << 30)),
        st.sampled_from([8, 16, 24, 32]),
    )
    def test_roundtrip_next_packet(self, largest, bits):
        full = largest + 1
        truncated = full & ((1 << bits) - 1)
        assert decode_packet_number(truncated, bits, largest) == full


@settings(max_examples=30, deadline=None)
@given(
    payload=st.binary(min_size=24, max_size=200),
    pn=st.integers(min_value=0, max_value=0xFFFF),
    pn_length=st.sampled_from([1, 2, 3, 4]),
)
def test_fast_suite_roundtrip_property(payload, pn, pn_length):
    suite = FastProtection(1, DCID)
    packet = make_packet(payload=payload, pn=pn & ((1 << (8 * pn_length)) - 1), pn_length=pn_length)
    wire = encode_packet(packet, suite, is_server=True)
    parsed = parse_long_header(wire)
    plain = unprotect_packet(parsed, wire, suite, from_server=True)
    assert plain.payload == payload


def _raises(suite, from_server, packet, pn_offset, decrypt):
    try:
        suite.unprotect(from_server, packet, pn_offset, decrypt=decrypt)
    except ProtectionError:
        return True
    return False


def _opens(suite, from_server, packet, pn_offset):
    """Whether ``unprotect`` succeeds; the tag-only check must agree."""
    opened = not _raises(suite, from_server, packet, pn_offset, True)
    assert _raises(suite, from_server, packet, pn_offset, False) is not opened
    return opened


#: How a sealed packet is damaged before it is checked.
DAMAGE = ("none", "first", "pn", "payload", "tag", "cut_sample", "cut_tag")


def _damage(wire, how, pn_offset, pn_length, where):
    wire = bytearray(wire)
    body = len(wire) - TAG_LENGTH - (pn_offset + pn_length)
    if how == "first":
        wire[0] ^= 1 << (where % 8)
    elif how == "pn":
        wire[pn_offset + where % pn_length] ^= 1 << (where % 8)
    elif how == "payload" and body:
        wire[pn_offset + pn_length + where % body] ^= 1 << (where % 8)
    elif how == "tag":
        wire[-1 - where % TAG_LENGTH] ^= 1 << (where % 8)
    elif how == "cut_sample":
        del wire[pn_offset + SAMPLE_OFFSET + where % SAMPLE_LENGTH :]
    elif how == "cut_tag":
        del wire[len(wire) - 1 - where % TAG_LENGTH :]
    return bytes(wire)


@pytest.mark.parametrize("suite_cls", ALL_SUITES)
@settings(max_examples=80, deadline=None)
@given(
    payload=st.integers(min_value=0, max_value=1200).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    pn_length=st.sampled_from([1, 2, 3, 4]),
    is_server=st.booleans(),
    how=st.sampled_from(DAMAGE),
    where=st.integers(min_value=0, max_value=1 << 16),
)
def test_tag_check_passes_iff_unprotect_opens(
    suite_cls, payload, pn_length, is_server, how, where
):
    """``decrypt=False`` raises exactly where decrypting raises."""
    suite = suite_cls(1, DCID)
    try:
        wire = encode_packet(
            make_packet(payload=payload, pn=5, pn_length=pn_length), suite, is_server
        )
    except ProtectionError:  # too short to sample: no suite seals it
        assert len(payload) + pn_length < SAMPLE_OFFSET
        return
    pn_offset = parse_long_header(wire).pn_offset
    damaged = _damage(wire, how, pn_offset, pn_length, where)
    opened = _opens(suite, is_server, damaged, pn_offset)
    if damaged == wire:
        assert opened
    elif suite_cls is not NullProtection:
        assert not opened


@pytest.mark.parametrize("suite_cls", [FastProtection, Rfc9001Protection])
def test_tag_check_reads_one_direction(suite_cls):
    suite = suite_cls(1, DCID)
    wire = encode_packet(make_packet(pn=7), suite, is_server=False)
    pn_offset = parse_long_header(wire).pn_offset
    assert suite.unprotect(False, wire, pn_offset, decrypt=False) == (None, 7, 2)
    with pytest.raises(ProtectionError):
        suite.unprotect(True, wire, pn_offset, decrypt=False)


def test_suites_share_one_key_schedule():
    keys = derive_initial_keys(1, DCID)
    wire = encode_packet(make_packet(), Rfc9001Protection(1, DCID), is_server=False)
    pn_offset = parse_long_header(wire).pn_offset
    with pytest.raises(ProtectionError):
        FastProtection(1, DCID, keys).unprotect(False, wire, pn_offset, decrypt=False)
    assert Rfc9001Protection(1, DCID, keys).unprotect(False, wire, pn_offset)[0]
    assert Rfc9001Protection(1, DCID, keys).keys is keys


@pytest.mark.parametrize("suite_cls", ALL_SUITES)
@pytest.mark.parametrize("padding", [0, 1, 900])
def test_padding_is_that_many_zeros_after_the_payload(suite_cls, padding):
    suite = suite_cls(1, DCID)
    header = bytes.fromhex("c300000001088394c8f03e51570808aaaaaaaaaaaaaaaa00449e00000007")
    payload = b"\x06\x00\x40\x5a" + b"\xa5" * 90
    counted = suite.protect(True, header, 7, payload, padding)
    assert counted == suite.protect(True, header, 7, payload + bytes(padding))
    assert len(counted) == len(header) + len(payload) + padding + TAG_LENGTH
    pn_offset = len(header) - 4
    assert suite.unprotect(True, counted, pn_offset, 6)[0] == payload + bytes(padding)
