"""Differential and hostile-input coverage for the fixed-offset parsers.

``decode_ipv4``, ``decode_udp`` and ``parse_long_header`` read the record
bytes at fixed offsets.  The cursor-based bodies they replaced survive
here, and only here, as references: over valid packets, every truncation
of them, and bit-flipped or length-lying mutants, the shipped parser and
its reference must agree on accept/reject, on the exception *type*, and
on every returned field.  Any exception is caught on the shipped side, so
a ``struct.error`` or ``IndexError`` escaping it fails the comparison.

The second half holds whole *records* to the same standard.  The
references compose into the object pipeline the index builder used to
run (``decode_udp`` → ``decode_datagram`` → dissector rules → AEAD →
acknowledged scanners → origin, one object per step); the shipped
:func:`repro.capstore.dissect.record_verdict` reads the same bytes at
offsets inside a larger buffer and must reach the same verdict, append
the same row, and append nothing at all for a record it drops.
"""

import random
import struct
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffer import BufferError_, Reader
from repro.capstore import CaptureTable, default_acknowledged, default_asdb, record_verdict
from repro.capstore.table import (
    OFFSET_COLUMNS,
    PACKET_COLUMNS,
    PAIR_COLUMNS,
    ROW_COLUMNS,
    VARIABLE_COLUMNS,
)
from repro.cli import main
from repro.core.selectors import DROP_REASONS
from repro.netstack.addr import parse_ip
from repro.netstack.ip import (
    HEADER_LENGTH as IP_HEADER_LENGTH,
    IPv4Header,
    IpParseError,
    PROTO_UDP,
    decode_ipv4,
)
from repro.netstack.pcap import PcapRecord, read_pcap
from repro.netstack.udp import (
    HEADER_LENGTH as UDP_HEADER_LENGTH,
    UdpDatagram,
    UdpParseError,
    decode_udp,
    encode_udp,
)
from repro.quic.crypto.suites import (
    FastProtection,
    NullProtection,
    ProtectionError,
    Rfc9001Protection,
)
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
    unprotect_packet,
)
from repro.quic.varint import read_varint
from repro.quic.version import VERSION_NEGOTIATION, lookup as lookup_version
from repro.telescope.classify import CapturedPacket, PacketClass
from tests.integration.test_fuzz import _capture_records
from tests.integration.test_golden_pcap import MONTHS


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


# ---------------------------------------------------------------------------
# Whole records: the object pipeline as reference for the record verdict
# ---------------------------------------------------------------------------

KNOWN_FAMILIES = {"v1", "v2", "draft", "mvfst", "gquic", "reserved"}


class ReferenceDrop(Exception):
    """The reference pipeline removed the record, for ``args[0]``."""


def reference_decode_datagram(data):
    out = []
    offset = 0
    while offset < len(data):
        if not data[offset] & FORM_BIT:
            break
        parsed = reference_parse_long_header(data, offset)
        out.append((parsed, data[offset : offset + parsed.packet_length]))
        if parsed.packet_type in (PacketType.VERSION_NEGOTIATION, PacketType.RETRY):
            break
        offset += parsed.packet_length
    if not out:
        raise PacketParseError("datagram does not start with a long-header packet")
    return out


def reference_dissect(payload, validate_crypto):
    """The dissector's rules over reference-parsed packets; True = QUIC."""
    if len(payload) < 7:
        return None
    try:
        packets = reference_decode_datagram(payload)
    except PacketParseError:
        return None
    for parsed, _raw in packets:
        if parsed.packet_type is PacketType.VERSION_NEGOTIATION:
            if not parsed.supported_versions:
                return None
            continue
        if lookup_version(parsed.version).family not in KNOWN_FAMILIES:
            return None
        if parsed.packet_type in (PacketType.INITIAL, PacketType.HANDSHAKE):
            if parsed.payload_length < 1 + 4 + 16:
                return None
    if validate_crypto:
        for parsed, raw in packets:
            if parsed.packet_type is not PacketType.INITIAL:
                continue
            for suite_cls in (FastProtection, Rfc9001Protection):
                try:
                    suite = suite_cls(parsed.version, parsed.dcid)
                    unprotect_packet(parsed, raw, suite, from_server=False)
                    break
                except (ProtectionError, PacketParseError):
                    continue
            else:
                return None
            break
    return [parsed for parsed, _raw in packets]


def reference_classify(timestamp, data, asdb, acknowledged, parent_rule=False):
    """(CapturedPacket, None) or (None, drop reason), one object per step.

    ``parent_rule`` is the decision as it stood before ISSUE 22: every
    scan was AEAD-opened, also the ones from an acknowledged prefix that
    the next step removes whatever the open says.
    """
    try:
        datagram = reference_decode_udp(data)
    except (UdpParseError, ValueError):
        return None, "non_udp"
    if datagram.src_port == 443:
        klass = PacketClass.BACKSCATTER
    elif datagram.dst_port == 443:
        klass = PacketClass.SCAN
    else:
        return None, "non_port_443"
    is_scan = klass is PacketClass.SCAN
    removed = is_scan and acknowledged.is_acknowledged(datagram.src_ip)
    packets = reference_dissect(datagram.payload, is_scan and (parent_rule or not removed))
    if packets is None:
        return None, "failed_dissection"
    if removed:
        return None, "acknowledged_scanner"
    return (
        CapturedPacket(
            timestamp=timestamp,
            src_ip=datagram.src_ip,
            dst_ip=datagram.dst_ip,
            src_port=datagram.src_port,
            dst_port=datagram.dst_port,
            udp_payload_length=len(datagram.payload),
            packets=packets,
            klass=klass,
            origin=asdb.origin_name(datagram.src_ip),
        ),
        None,
    )


TELESCOPE = parse_ip("44.1.2.3")
GOOGLE = parse_ip("142.250.3.4")
BOT = parse_ip("24.48.7.7")  # an ISP address: origin "Remaining"
ACKNOWLEDGED = parse_ip("141.212.9.9")  # scanner-umich
DCID = bytes(range(0x10, 0x18))
SCID = bytes(range(0x20, 0x2C))


def _long(packet_type, version=1, token=b"", payload=b"\x06\x00" + b"\x00" * 30):
    return LongHeaderPacket(
        packet_type=packet_type,
        version=version,
        dcid=DCID,
        scid=SCID,
        packet_number=7,
        payload=payload,
        token=token,
        pn_length=2,
    )


def _scan(packets, suite=FastProtection, src_ip=BOT, version=1):
    """A client datagram to the telescope's port 443, really sealed."""
    payload = encode_datagram(packets, suite(version, DCID), is_server=False)
    return encode_udp(UdpDatagram(src_ip, TELESCOPE, 50123, 443, payload, ttl=51))


def _backscatter(payload, src_ip=GOOGLE):
    return encode_udp(UdpDatagram(src_ip, TELESCOPE, 443, 40000, payload, ttl=57))


def _server(packets):
    return encode_datagram(packets, FastProtection(1, DCID), is_server=True)


def _with_ip_options(packet, options=b"\x01\x01\x01\x00"):
    """Re-head ``packet`` with IHL 6 (checksums are not validated on read)."""
    total_length = struct.unpack_from("!H", packet, 2)[0] + len(options)
    head = bytearray(packet[:20])
    head[0] = 0x40 | (5 + len(options) // 4)
    struct.pack_into("!H", head, 2, total_length)
    return bytes(head) + options + packet[20:]


def _flip_last_byte(packet):
    return packet[:-1] + bytes([packet[-1] ^ 0x01])


#: shape -> (record bytes, expected verdict of the unmutated record)
RECORD_SHAPES = {
    "initial": (_scan([_long(PacketType.INITIAL)]), None),
    "initial-with-token": (
        _scan([_long(PacketType.INITIAL, token=bytes(range(70)))]),
        None,
    ),
    "initial-rfc9001-v2": (
        _scan([_long(PacketType.INITIAL, version=0x6B3343CF)], Rfc9001Protection,
              version=0x6B3343CF),
        None,
    ),
    "zero-rtt": (_scan([_long(PacketType.ZERO_RTT)]), None),
    "initial+zero-rtt": (
        _scan([_long(PacketType.INITIAL), _long(PacketType.ZERO_RTT)]),
        None,
    ),
    "acknowledged-scanner": (
        _scan([_long(PacketType.INITIAL)], src_ip=ACKNOWLEDGED),
        "acknowledged_scanner",
    ),
    # Structurally an Initial, but its AEAD tag does not verify.  The
    # parent commit opened it and answered "failed_dissection"; the open is
    # now kept for the records step 4 keeps, and this one it removes.
    "acknowledged-scanner-bad-tag": (
        _flip_last_byte(_scan([_long(PacketType.INITIAL)], src_ip=ACKNOWLEDGED)),
        "acknowledged_scanner",
    ),
    # Wireshark's part of step 3 still runs first for everybody.
    "acknowledged-scanner-not-quic": (
        encode_udp(UdpDatagram(ACKNOWLEDGED, TELESCOPE, 50123, 443, b"\x16\xfe\xfd" + bytes(40))),
        "failed_dissection",
    ),
    "handshake": (_backscatter(_server([_long(PacketType.HANDSHAKE)])), None),
    "initial+handshake": (
        _backscatter(
            _server([_long(PacketType.INITIAL), _long(PacketType.HANDSHAKE)])
        ),
        None,
    ),
    "retry": (
        _backscatter(encode_retry(RetryPacket(1, DCID, SCID, bytes(range(40))))),
        None,
    ),
    "version-negotiation": (
        _backscatter(
            encode_version_negotiation(
                VersionNegotiationPacket(DCID, SCID, (1, 0xFF00001D, 0x1A2A3A4A))
            )
            + b"\x00\x01",  # not a whole version: ignored
            src_ip=BOT,
        ),
        None,
    ),
    "trailing-short-header": (
        _backscatter(_server([_long(PacketType.INITIAL)]) + b"\x41" + bytes(30)),
        None,
    ),
    "ihl-6": (
        _with_ip_options(_backscatter(_server([_long(PacketType.HANDSHAKE)]))),
        None,
    ),
    "unknown-version": (
        _backscatter(_server([_long(PacketType.HANDSHAKE, version=0x12345678)])),
        "failed_dissection",
    ),
    "port-53": (
        encode_udp(UdpDatagram(BOT, TELESCOPE, 53, 53, b"\xc3" + bytes(40))),
        "non_port_443",
    ),
}


def _length_liars(packet):
    """Mutants whose IPv4 total-length, UDP length, CID-length, token-length
    or Length fields lie, found from a parse of the honest packet."""
    ihl = (packet[0] & 0x0F) * 4
    spots = [(2, 2), (ihl + 4, 2)]  # IPv4 total length, UDP length
    quic = ihl + 8
    if len(packet) > quic + 6 and packet[quic] & FORM_BIT:
        dcid_len_at = quic + 5
        scid_len_at = dcid_len_at + 1 + packet[dcid_len_at]
        spots += [(dcid_len_at, 1), (scid_len_at, 1)]
        try:
            parsed = reference_parse_long_header(packet[quic:])
        except PacketParseError:
            parsed = None
        if parsed is not None and parsed.packet_type not in (
            PacketType.RETRY,
            PacketType.VERSION_NEGOTIATION,
        ):
            # Both varints sit between the SCID and the packet number.
            after_scid = scid_len_at + 1 + packet[scid_len_at]
            spots += [(at, 1) for at in range(after_scid, quic + parsed.pn_offset)][:4]
            spots.append((quic + parsed.pn_offset - 2, 2))
    for at, width in spots:
        honest = int.from_bytes(packet[at : at + width], "big")
        top = (1 << (8 * width)) - 1
        for lie in {0, 1, 7, 8, 20, 21, honest - 1, honest + 1, 0x3F, 0x40, 0x7F,
                    0x80, 0xBF, 0xC0, top - 1, top}:
            if 0 <= lie <= top and lie != honest:
                mutant = bytearray(packet)
                mutant[at : at + width] = lie.to_bytes(width, "big")
                yield bytes(mutant)


def _table_shape(table):
    columns = ROW_COLUMNS + PACKET_COLUMNS + PAIR_COLUMNS + VARIABLE_COLUMNS + OFFSET_COLUMNS
    return [len(getattr(table, name)) for name, _ in columns], list(table.origins)


class _RecordJudge:
    """The shipped verdict and the reference pipeline, side by side."""

    def __init__(self):
        self.asdb = default_asdb()
        self.acknowledged = default_acknowledged()
        self.table = CaptureTable()
        self.verdict = record_verdict(self.table, self.asdb, self.acknowledged)
        self.timestamp = 1000.0
        self.reasons = dict.fromkeys((None,) + DROP_REASONS, 0)

    def check(self, record, after=b""):
        """``record`` sits mid-buffer; ``after`` is what follows it there."""
        self.timestamp += 0.25
        before = b"\xc3\xff\x45" * 3
        buf = before + record + after + b"\xff" * 8
        expected, reason = reference_classify(
            self.timestamp, record, self.asdb, self.acknowledged
        )
        shape = _table_shape(self.table)
        rows = self.table.num_rows
        # Whatever escapes here — struct.error, IndexError — fails the test.
        shipped = self.verdict(
            self.timestamp, buf, len(before), len(before) + len(record)
        )
        assert shipped == reason, record.hex()
        self.reasons[reason] += 1
        if reason is None:
            assert self.table.num_rows == rows + 1
            assert self.table.materialize(rows) == expected, record.hex()
        else:
            assert _table_shape(self.table) == shape, record.hex()
        return reason


@pytest.mark.parametrize("shape", sorted(RECORD_SHAPES))
def test_record_verdict_matches_object_pipeline(shape):
    record, expected_reason = RECORD_SHAPES[shape]
    judge = _RecordJudge()
    assert judge.check(record) == expected_reason
    for cut in range(len(record)):
        # The bytes that were cut off follow the record in the buffer: a
        # scanner that reads past ``end`` would see a valid continuation.
        judge.check(record[:cut], after=record[cut:])
    for mutant in mutants(record, seed=len(record)):
        judge.check(mutant)
    for mutant in _length_liars(record):
        judge.check(mutant)
    # The mutants did reach more than one verdict.
    assert sum(1 for count in judge.reasons.values() if count) >= 2


def _hostile_records():
    """The hostile pcap's records, every shape above, and what the mutator
    makes of the three shapes from an acknowledged prefix."""
    yield from _capture_records()
    for shape, (record, _reason) in sorted(RECORD_SHAPES.items()):
        yield PcapRecord(1.0, record)
        if shape.startswith("acknowledged-scanner"):
            for mutant in mutants(record, seed=len(record)):
                yield PcapRecord(1.0, mutant)


@pytest.mark.parametrize("case", sorted(MONTHS) + ["hostile"])
def test_opening_only_what_step_4_keeps_changes_no_kept_row(case, tmp_path):
    """Parent rule vs shipped rule: same kept rows, column for column, on
    every input; same drop counters on every capture the simulator wrote.
    (On hostile input a record can move between the two drop reasons of an
    acknowledged prefix — never into or out of the kept rows.)"""
    if case == "hostile":
        records = list(_hostile_records())
    else:
        pcap = str(tmp_path / "month.pcap")
        assert main(["simulate", pcap, *MONTHS[case]]) == 0
        records = read_pcap(pcap)
    judge = _RecordJudge()
    parent_kept, parent_reasons, reasons = [], Counter(), Counter()
    for record in records:
        packet, reason = reference_classify(
            record.timestamp, record.data, judge.asdb, judge.acknowledged, parent_rule=True
        )
        parent_reasons[reason] += 1
        if packet is not None:
            parent_kept.append(packet)
        reasons[judge.verdict(record.timestamp, record.data, 0, len(record.data))] += 1
    table = judge.table
    assert [table.materialize(row) for row in range(table.num_rows)] == parent_kept
    assert parent_kept
    if case == "hostile":
        assert reasons != parent_reasons  # the flipped tag, at least
        for counter in (reasons, parent_reasons):
            counter["removed"] = counter.pop("failed_dissection") + counter.pop("acknowledged_scanner")
    assert reasons == parent_reasons


def test_record_verdict_keeps_first_seen_origin_order():
    judge = _RecordJudge()
    for shape in ("version-negotiation", "handshake", "initial", "retry"):
        judge.check(RECORD_SHAPES[shape][0])
    assert judge.table.origins == ["Remaining", "Google"]
    assert list(judge.table.origin_id) == [0, 1, 0, 1]
    assert list(judge.table.klass) == [0, 0, 1, 0]


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=120), sport=st.sampled_from([443, 53]))
def test_record_verdict_matches_object_pipeline_on_noise(data, sport):
    judge = _RecordJudge()
    judge.check(b"\x45\x00" + data)
    judge.check(
        encode_udp(UdpDatagram(GOOGLE, TELESCOPE, sport, 443, b"\xc3" + data))
    )
