"""Flat IPv4/UDP encapsulation parity and the columnar capture buffer.

``repro.netstack.udp`` encapsulates with one ``struct.pack``.  The
Writer-based encoder it replaced survives here, and only here, as
``_encode_udp_rebuild``: the reference every encoder entry point is held
to byte for byte.
"""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffer import Writer
from repro.netstack.capbuf import CaptureBuffer
from repro.netstack.checksum import internet_checksum, verify_checksum
from repro.netstack.ip import PROTO_UDP, IPv4Header, IpParseError, encode_ipv4
from repro.netstack.pcap import (
    PcapReader,
    PcapRecord,
    PcapWriter,
    read_pcap,
    record_sort_key,
    write_pcap,
)
from repro.netstack.udp import (
    HEADER_LENGTH,
    FlowTemplate,
    UdpDatagram,
    UdpParseError,
    decode_udp,
    encode_udp,
    encode_udp_into,
    ip_udp_header,
)


def _encode_udp_rebuild(datagram: UdpDatagram) -> bytes:
    """The Writer-based encoder as it stood before the flat one."""
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


def _datagram(payload, ttl=64, src_port=4242):
    return UdpDatagram(
        src_ip=0x0A000001,
        dst_ip=0xC0A80102,
        src_port=src_port,
        dst_port=443,
        payload=payload,
        ttl=ttl,
    )


@st.composite
def _payloads(draw):
    """0-1472 bytes, odd and even; all-zero and all-0xFF ones included, so
    both ones-complement zeros and the UDP ``0 -> 0xFFFF`` rule are hit."""
    size = draw(st.integers(0, 1472))
    fill = draw(st.sampled_from((None, b"\x00", b"\xff")))
    return fill * size if fill else draw(st.binary(min_size=size, max_size=size))


class TestFlowTemplateParity:
    """``ip_udp_header`` / ``encode_udp`` / ``encode_udp_into`` /
    :class:`FlowTemplate` are one flat encoder, held to the Writer-based
    reference above."""

    @settings(max_examples=300, deadline=None)
    @given(
        src_ip=st.integers(0, 2**32 - 1),
        dst_ip=st.integers(0, 2**32 - 1),
        src_port=st.integers(0, 65535),
        dst_port=st.integers(0, 65535),
        ttl=st.integers(0, 255),
        payload=_payloads(),
    )
    def test_flat_encoder_matches_writer_reference(
        self, src_ip, dst_ip, src_port, dst_port, ttl, payload
    ):
        datagram = UdpDatagram(src_ip, dst_ip, src_port, dst_port, payload, ttl)
        encoded = encode_udp(datagram)
        assert encoded == _encode_udp_rebuild(datagram)
        assert ip_udp_header(datagram, payload) + payload == encoded
        appended = bytearray(b"prefix")
        encode_udp_into(appended, datagram)
        assert appended == b"prefix" + encoded
        template = FlowTemplate(src_ip, dst_ip, src_port, dst_port, ttl)
        assert template.encode(payload) == encoded
        template.encode_into(appended, payload)
        assert appended == b"prefix" + encoded + encoded
        assert decode_udp(encoded) == datagram
        assert verify_checksum(encoded[:20])
        pseudo = encoded[12:20] + b"\x00\x11" + encoded[24:26]
        assert verify_checksum(pseudo + encoded[20:])
        assert encoded[26:28] != b"\x00\x00"

    @pytest.mark.parametrize(
        "size, error", ((65535 - 28 + 1, IpParseError), (65535 - 8 + 1, UdpParseError))
    )
    def test_oversize_errors_keep_their_types(self, size, error):
        datagram = _datagram(b"\x00" * size)
        template = FlowTemplate(1, 2, 3, 4, 64)
        for encode in (
            lambda: encode_udp(datagram),
            lambda: encode_udp_into(bytearray(), datagram),
            lambda: template.encode(datagram.payload),
            lambda: template.encode_into(bytearray(), datagram.payload),
            lambda: _encode_udp_rebuild(datagram),
        ):
            with pytest.raises(error) as caught:
                encode()
            assert type(caught.value) is error

    @pytest.mark.parametrize("size", (0, 1, 2, 63, 64, 65, 1199, 1200, 1472))
    def test_encode_matches_rebuild(self, size):
        """Odd and even payload lengths exercise checksum padding."""
        rng = random.Random(size)
        payload = rng.getrandbits(8 * size).to_bytes(size, "big") if size else b""
        datagram = _datagram(payload)
        assert encode_udp(datagram) == _encode_udp_rebuild(datagram)

    def test_random_flows_match_rebuild(self):
        rng = random.Random(42)
        for _ in range(200):
            datagram = UdpDatagram(
                src_ip=rng.getrandbits(32),
                dst_ip=rng.getrandbits(32),
                src_port=rng.randrange(1024, 65536),
                dst_port=rng.choice([443, 80, rng.randrange(1, 65536)]),
                payload=rng.randbytes(rng.randrange(0, 300)),
                ttl=rng.choice([1, 32, 64, 128, 255]),
            )
            assert encode_udp(datagram) == _encode_udp_rebuild(datagram)

    def test_encode_into_appends_identical_bytes(self):
        out = bytearray(b"prefix")
        datagram = _datagram(b"payload-bytes")
        encode_udp_into(out, datagram)
        assert bytes(out) == b"prefix" + encode_udp(datagram)

    def test_template_rejects_oversized_payload(self):
        template = FlowTemplate(1, 2, 3, 4, 64)
        with pytest.raises(Exception):
            template.encode(b"\x00" * 70000)

    def test_zero_udp_checksum_becomes_ffff(self):
        """RFC 768: a computed zero checksum is transmitted as 0xFFFF."""
        # Brute-force a payload whose checksum folds to zero.
        for filler in range(65536):
            datagram = _datagram(filler.to_bytes(2, "big"))
            encoded = _encode_udp_rebuild(datagram)
            if encoded[26:28] == b"\xff\xff":
                assert encode_udp(datagram) == encoded
                return
        pytest.skip("no zero-checksum payload found for this flow")


def _spooled(buffer):
    """``buffer`` with every record released to its spool."""
    buffer.release(float("inf"))
    assert not buffer.data and not buffer.keys
    return buffer


class TestCaptureBuffer:
    def test_append_and_materialize(self):
        buffer = CaptureBuffer()
        buffer.append(1.5, b"aaa")
        buffer.append(2.25, b"bbbb")
        assert len(buffer) == 2
        assert buffer.record(0) == PcapRecord(timestamp=1.5, data=b"aaa")
        assert buffer.record(-1) == PcapRecord(timestamp=2.25, data=b"bbbb")
        with pytest.raises(IndexError):
            buffer.record(2)

    def test_append_of_a_header_and_its_payload(self):
        """The telescope's call: the IP/UDP header and the payload, unjoined."""
        buffer = CaptureBuffer()
        datagram = _datagram(b"direct")
        buffer.append(3.0, ip_udp_header(datagram, datagram.payload), datagram.payload)
        assert buffer.record(0).data == encode_udp(datagram)
        assert buffer.record(0).timestamp == 3.0

    def test_records_view_sequence_protocol(self):
        """Spooled or in memory, the view reads the same records."""
        for watermark in (None, 2.5, 4.5):
            buffer = CaptureBuffer()
            for i in range(5):
                buffer.append(float(i), bytes([i]) * (i + 1))
            if watermark is not None:
                buffer.release(watermark)
            records = buffer.records
            assert len(records) == 5
            assert records[1].data == b"\x01\x01"
            assert records[-1] == PcapRecord(timestamp=4.0, data=b"\x04" * 5)
            assert [r.timestamp for r in records] == [0.0, 1.0, 2.0, 3.0, 4.0]
            assert [r.data for r in records[1:3]] == [b"\x01\x01", b"\x02\x02\x02"]
            assert records[::-2] == [records[4], records[2], records[0]]
            assert records[1:4:2] == [records[1], records[3]]
            assert records[9:] == []
            with pytest.raises(IndexError):
                records[5]
            records.append(PcapRecord(timestamp=9.0, data=b"late"))
            assert len(buffer) == 6
            assert buffer.record(5).data == b"late"
            assert list(records) == [buffer.record(i) for i in range(6)]

    @settings(max_examples=200, deadline=None)
    @given(
        commits=st.lists(
            st.tuples(
                st.integers(0, 40),  # send slot: duplicates are common
                st.sampled_from([0.0, 0.0, 0.25, 0.5, 2.75]),  # bounded lateness
                st.binary(min_size=1, max_size=6),
                st.booleans(),  # release at the send slot before this commit
            ),
            max_size=60,
        )
    )
    def test_commits_keep_the_columns_in_arrival_order(self, commits):
        # Commit order is transmit order: slots ascend, arrivals need not.
        # A release at the slot being sent is legal: nothing committed
        # from then on is stamped below it (lateness is never negative).
        commits = sorted(commits, key=lambda commit: commit[0])
        buffer = CaptureBuffer()
        for slot, lateness, data, release in commits:
            if release:
                buffer.release(float(slot))
            buffer.append(slot + lateness, data)
        # Arrival order: by timestamp, equal ones by packet bytes.
        expected = sorted(
            ((slot + lateness, data) for slot, lateness, data, _r in commits),
            key=lambda pair: record_sort_key(PcapRecord(*pair)),
        )
        pending = len(buffer.keys)
        assert len(buffer) == len(expected)
        assert list(buffer.keys) == [
            round(ts * 1_000_000) for ts, _data in expected[len(expected) - pending :]
        ]
        assert [(r.timestamp, r.data) for r in buffer.records] == expected
        written = io.BytesIO()
        buffer.write_pcap(written)
        reference = io.BytesIO()
        PcapWriter(reference).write_all(PcapRecord(ts, data) for ts, data in expected)
        assert written.getvalue() == reference.getvalue()

    def test_a_commit_below_the_released_watermark_raises(self):
        buffer = CaptureBuffer()
        buffer.append(1.0, b"early")
        buffer.append(3.0, b"in flight")
        buffer.release(2.0)
        before = io.BytesIO()
        buffer.write_pcap(before)
        with pytest.raises(ValueError, match="below the released watermark"):
            buffer.records.append(PcapRecord(timestamp=1.5, data=b"too late"))
        with pytest.raises(ValueError):
            buffer.append(0.5, b"far too late")
        after = io.BytesIO()
        buffer.write_pcap(after)
        assert after.getvalue() == before.getvalue()
        assert len(buffer) == 2
        buffer.append(2.0, b"at the watermark")  # not below it: accepted
        assert [r.data for r in buffer.records] == [b"early", b"at the watermark", b"in flight"]

    def test_records_order_by_time_then_bytes(self):
        buffer = CaptureBuffer()
        buffer.append(2.0, b"third")
        buffer.append(1.0000004, b"second")  # the microsecond of 1.0 ...
        buffer.append(1.0, b"first")  # ... where bytes break the tie
        assert [r.data for r in buffer.records] == [b"first", b"second", b"third"]
        assert [r.timestamp for r in buffer.records] == [1.0, 1.0, 2.0]

    def test_write_pcap_matches_record_writer(self):
        for watermark in (None, 1.3, float("inf")):  # all in memory .. all spooled
            buffer = CaptureBuffer()
            rng = random.Random(3)
            for i in range(20):
                buffer.append(i * 0.125, rng.randbytes(rng.randrange(1, 100)))
            if watermark is not None:
                buffer.release(watermark)

            columnar = io.BytesIO()
            buffer.write_pcap(columnar)

            reference = io.BytesIO()
            PcapWriter(reference).write_all(iter(buffer))

            assert columnar.getvalue() == reference.getvalue()

    def test_write_pcap_roundtrips_through_reader(self, tmp_path):
        buffer = CaptureBuffer()
        buffer.append(1.000001, b"\x01\x02\x03")
        buffer.append(2.5, b"\x04")
        buffer.release(2.0)
        path = tmp_path / "capbuf.pcap"
        with open(path, "wb") as fh:
            buffer.write_pcap(fh)
        records = read_pcap(str(path))
        assert [r.data for r in records] == [b"\x01\x02\x03", b"\x04"]
        assert records[0].ts_usec == 1

    def test_a_record_longer_than_the_snaplen_is_refused(self):
        buffer = CaptureBuffer()
        with pytest.raises(ValueError, match="at most 65535 bytes"):
            buffer.append(1.0, b"\x00" * 65536)
        assert len(buffer) == 0 and not buffer.data


#: Timestamps whose microsecond rounding ties or carries: 1.9999996 and
#: 2.0000004 both land on (2, 0), beside an exact 2.0.
_TIE_STAMPS = (1.9999996, 2.0, 2.0000004, 2.0000011, 2.5, 2.5000004, 3.0)


class TestCanonicalWrite:
    """``write_pcap`` copies out what sorting every record would write."""

    @settings(max_examples=200, deadline=None)
    @given(
        commits=st.lists(
            st.tuples(
                st.sampled_from(_TIE_STAMPS),
                st.sampled_from([0.0, 0.0, 0.0000004, 0.25]),  # lateness
                st.binary(min_size=0, max_size=3),  # short: equal bytes too
                st.booleans(),
            ),
            max_size=50,
        )
    )
    def test_streamed_bytes_equal_the_sorted_records(self, commits):
        commits = sorted(commits, key=lambda commit: commit[0])
        buffer = CaptureBuffer()
        records = []
        for sent, lateness, data, release in commits:
            if release:
                buffer.release(sent)
            buffer.append(sent + lateness, data)
            records.append(PcapRecord(sent + lateness, data))
        assert len(buffer) == len(records)
        streamed = io.BytesIO()
        buffer.write_pcap(streamed)
        reference = io.BytesIO()
        PcapWriter(reference).write_all(sorted(records, key=record_sort_key))
        assert streamed.getvalue() == reference.getvalue()
        # The records in memory are what a reader of the file sees.
        streamed.seek(0)
        assert list(buffer.records) == list(PcapReader(streamed))

    def test_carried_record_sorts_with_its_second(self, tmp_path):
        buffer = CaptureBuffer()
        buffer.append(1.9999996, b"b")  # carries to (2, 0)
        buffer.append(2.0, b"a")
        buffer.release(2.0)
        path = str(tmp_path / "canonical.pcap")
        with open(path, "wb") as fileobj:
            buffer.write_pcap(fileobj)
        reference = str(tmp_path / "reference.pcap")
        write_pcap(reference, sorted(buffer.records, key=record_sort_key))
        with open(path, "rb") as mine, open(reference, "rb") as theirs:
            assert mine.read() == theirs.read()
        assert [r.data for r in read_pcap(path)] == [b"a", b"b"]
