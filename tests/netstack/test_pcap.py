"""Classic pcap reader/writer."""

import io
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.netstack.capbuf import CaptureBuffer
from repro.netstack.pcap import (
    GLOBAL_HEADER_SIZE,
    LINKTYPE_RAW,
    PcapError,
    PcapReader,
    PcapRecord,
    PcapWriter,
    iter_pcap_range,
    merge_pcap_files,
    read_pcap,
    record_sort_key,
    scan_pcap_offsets,
    scan_pcap_tail,
    split_timestamp,
    write_pcap,
)


def roundtrip(records):
    buf = io.BytesIO()
    PcapWriter(buf).write_all(records)
    buf.seek(0)
    return list(PcapReader(buf))


class TestRoundtrip:
    def test_empty_file(self):
        assert roundtrip([]) == []

    def test_records_preserved(self):
        records = [
            PcapRecord(timestamp=1.5, data=b"\x45" + b"\x00" * 19),
            PcapRecord(timestamp=2.000001, data=b"hello"),
        ]
        decoded = roundtrip(records)
        assert [r.data for r in decoded] == [r.data for r in records]
        assert decoded[0].ts_sec == 1 and decoded[0].ts_usec == 500000
        assert decoded[1].ts_usec == 1

    def test_linktype_header(self):
        buf = io.BytesIO()
        PcapWriter(buf)
        buf.seek(0)
        reader = PcapReader(buf)
        assert reader.linktype == LINKTYPE_RAW

    def test_snaplen_truncation(self):
        buf = io.BytesIO()
        PcapWriter(buf, snaplen=4).write(PcapRecord(0.0, b"longpayload"))
        buf.seek(0)
        record = list(PcapReader(buf))[0]
        assert record.data == b"long"

    def test_file_helpers(self, tmp_path):
        path = str(tmp_path / "capture.pcap")
        write_pcap(path, [PcapRecord(3.25, b"abc")])
        records = read_pcap(path)
        assert records[0].data == b"abc"
        assert abs(records[0].timestamp - 3.25) < 1e-6


class TestTimestampSplit:
    """Rounding to microseconds carries into the second (both writers)."""

    CASES = (
        (1.9999996, (2, 0)),  # rounds up to a whole second: was (1, 1000000)
        (2.0000004, (2, 0)),
        (2.0, (2, 0)),
        (1.5, (1, 500000)),
    )

    @staticmethod
    def header_fields(buf):
        return struct.unpack_from("<IIII", buf.getvalue(), GLOBAL_HEADER_SIZE)

    @pytest.mark.parametrize("timestamp, expected", CASES)
    def test_record_writer(self, timestamp, expected):
        record = PcapRecord(timestamp, b"x" * 30)
        assert (record.ts_sec, record.ts_usec) == split_timestamp(timestamp) == expected
        assert record_sort_key(record) == (*expected, record.data)
        buf = io.BytesIO()
        PcapWriter(buf).write(record)
        assert self.header_fields(buf) == (*expected, 30, 30)

    @pytest.mark.parametrize("timestamp, expected", CASES)
    def test_capture_buffer_writer(self, timestamp, expected):
        capture = CaptureBuffer()
        capture.append(timestamp, b"x" * 30)
        buf = io.BytesIO()
        capture.write_pcap(buf)
        assert self.header_fields(buf) == (*expected, 30, 30)
        capture.release(float("inf"))  # the same header, read back from the spool
        spooled = io.BytesIO()
        capture.write_pcap(spooled)
        assert spooled.getvalue() == buf.getvalue()

    def test_carried_record_sorts_with_its_second(self):
        carried, exact = PcapRecord(1.9999996, b"b"), PcapRecord(2.0, b"a")
        assert sorted([carried, exact], key=record_sort_key) == [exact, carried]


class TestBigEndianFiles:
    def test_swapped_magic(self):
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        record = struct.pack(">IIII", 1, 250, 3, 3) + b"abc"
        reader = PcapReader(io.BytesIO(header + record))
        records = list(reader)
        assert records[0].data == b"abc"


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(PcapError):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_truncated_global_header(self):
        with pytest.raises(PcapError):
            PcapReader(io.BytesIO(b"\xd4\xc3\xb2\xa1"))

    def test_truncated_record_header(self):
        buf = io.BytesIO()
        PcapWriter(buf).write(PcapRecord(0.0, b"abcd"))
        data = buf.getvalue()[:-10]
        with pytest.raises(PcapError):
            list(PcapReader(io.BytesIO(data)))

    def test_truncated_record_body(self):
        buf = io.BytesIO()
        PcapWriter(buf).write(PcapRecord(0.0, b"abcd"))
        data = buf.getvalue()[:-2]
        with pytest.raises(PcapError):
            list(PcapReader(io.BytesIO(data)))


class TestScanTail:
    """The tolerant twin of scan_pcap_offsets for live captures."""

    def write(self, tmp_path, records):
        path = str(tmp_path / "live.pcap")
        write_pcap(path, records)
        return path

    def records(self, count=4):
        return [PcapRecord(float(i), bytes([i]) * (i + 3)) for i in range(count)]

    def test_complete_file_matches_strict_scan(self, tmp_path):
        path = self.write(tmp_path, self.records())
        offsets, end = scan_pcap_tail(path)
        assert offsets == scan_pcap_offsets(path)
        import os

        assert end == os.path.getsize(path)

    def test_torn_record_header_stops_before_it(self, tmp_path):
        path = self.write(tmp_path, self.records())
        complete = scan_pcap_offsets(path)
        with open(path, "ab") as fileobj:
            fileobj.write(b"\x01\x02\x03")  # 3 of 16 header bytes
        offsets, end = scan_pcap_tail(path)
        assert offsets == complete
        # a reader bounded by ``end`` never sees the torn bytes
        tail = list(iter_pcap_range(path, offsets[-1], 1))
        assert tail[0].data == self.records()[-1].data

    def test_torn_record_body_stops_before_it(self, tmp_path):
        records = self.records()
        path = self.write(tmp_path, records)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-2])  # last body short by 2 bytes
        offsets, _end = scan_pcap_tail(path)
        assert len(offsets) == len(records) - 1

    def test_resume_from_previous_end(self, tmp_path):
        records = self.records(6)
        path = self.write(tmp_path, records[:3])
        first, end = scan_pcap_tail(path)
        assert len(first) == 3
        with open(path, "ab") as fileobj:
            buf = io.BytesIO()
            writer = PcapWriter(buf)
            for record in records[3:]:
                writer.write(record)
            fileobj.write(buf.getvalue()[GLOBAL_HEADER_SIZE:])
        tail, new_end = scan_pcap_tail(path, start=end)
        assert len(tail) == 3
        assert tail[0] == end
        assert new_end > end

    def test_incomplete_global_header_waits(self, tmp_path):
        path = str(tmp_path / "starting.pcap")
        open(path, "wb").write(b"\xd4\xc3")
        offsets, end = scan_pcap_tail(path)
        assert offsets == [] and end == GLOBAL_HEADER_SIZE

    def test_bad_magic_still_raises(self, tmp_path):
        path = str(tmp_path / "bad.pcap")
        open(path, "wb").write(b"\x00" * 48)
        with pytest.raises(PcapError):
            scan_pcap_tail(path)


class TestMerge:
    def write(self, tmp_path, name, records):
        path = str(tmp_path / name)
        write_pcap(path, sorted(records, key=record_sort_key))
        return path

    def test_kway_merge_is_time_ordered(self, tmp_path):
        a = self.write(tmp_path, "a.pcap", [PcapRecord(1.0, b"a"), PcapRecord(3.0, b"c")])
        b = self.write(tmp_path, "b.pcap", [PcapRecord(2.0, b"b"), PcapRecord(4.0, b"d")])
        out = str(tmp_path / "merged.pcap")
        assert merge_pcap_files([a, b], out) == 4
        assert [r.data for r in read_pcap(out)] == [b"a", b"b", b"c", b"d"]

    def test_merge_is_partition_independent(self, tmp_path):
        records = [PcapRecord(t / 7.0, b"p%d" % t) for t in range(30)]
        whole = self.write(tmp_path, "whole.pcap", records)
        evens = self.write(tmp_path, "e.pcap", records[::2])
        odds = self.write(tmp_path, "o.pcap", records[1::2])
        out = str(tmp_path / "m.pcap")
        merge_pcap_files([evens, odds], out)
        with open(whole, "rb") as a, open(out, "rb") as b:
            assert a.read() == b.read()

    def test_same_timestamp_ties_break_on_data(self, tmp_path):
        a = self.write(tmp_path, "a.pcap", [PcapRecord(5.0, b"zz")])
        b = self.write(tmp_path, "b.pcap", [PcapRecord(5.0, b"aa")])
        out = str(tmp_path / "m.pcap")
        merge_pcap_files([a, b], out)
        reversed_out = str(tmp_path / "m2.pcap")
        merge_pcap_files([b, a], reversed_out)
        assert [r.data for r in read_pcap(out)] == [b"aa", b"zz"]
        with open(out, "rb") as x, open(reversed_out, "rb") as y:
            assert x.read() == y.read()

    def test_sort_key_uses_quantized_timestamps(self):
        # Sub-microsecond differences vanish on the wire; the canonical
        # key must agree before and after a pcap round-trip.
        near = PcapRecord(1.0000004, b"x")
        assert record_sort_key(near) == (1, 0, b"x")

    def test_merge_empty_inputs(self, tmp_path):
        a = self.write(tmp_path, "a.pcap", [])
        out = str(tmp_path / "m.pcap")
        assert merge_pcap_files([a], out) == 0
        assert read_pcap(out) == []


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=2**31, allow_nan=False),
            st.binary(min_size=0, max_size=200),
        ),
        max_size=10,
    )
)
def test_roundtrip_property(items):
    records = [PcapRecord(timestamp=t, data=d) for t, d in items]
    decoded = roundtrip(records)
    assert [r.data for r in decoded] == [r.data for r in records]
    for original, copy in zip(records, decoded):
        assert abs(original.timestamp - copy.timestamp) < 1e-5
