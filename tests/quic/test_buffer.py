"""Reader/Writer byte-cursor utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.buffer import BufferError_, Reader, Writer


class TestReader:
    def test_sequential_reads(self):
        reader = Reader(b"\x01\x02\x03\x04\x05")
        assert reader.read_u8() == 1
        assert reader.read_u16() == 0x0203
        assert reader.remaining == 2
        assert reader.read_rest() == b"\x04\x05"
        assert reader.at_end()

    def test_peek_does_not_advance(self):
        reader = Reader(b"abc")
        assert reader.peek(2) == b"ab"
        assert reader.pos == 0

    def test_wide_integers(self):
        reader = Reader(b"\x00\x00\x00\x01" + b"\x00" * 7 + b"\x02")
        assert reader.read_u32() == 1
        assert reader.read_u64() == 2

    def test_overrun_raises(self):
        reader = Reader(b"ab")
        with pytest.raises(BufferError_):
            reader.read(3)

    def test_negative_read_raises(self):
        with pytest.raises(BufferError_):
            Reader(b"ab").read(-1)

    def test_skip(self):
        reader = Reader(b"abcd")
        reader.skip(2)
        assert reader.read_rest() == b"cd"
        with pytest.raises(BufferError_):
            reader.skip(5)


class TestWriter:
    def test_chained_writes(self):
        writer = Writer()
        writer.write_u8(1).write_u16(2).write(b"xy")
        assert writer.getvalue() == b"\x01\x00\x02xy"
        assert len(writer) == 5

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            Writer().write_u8(256)
        with pytest.raises(ValueError):
            Writer().write_u16(1 << 16)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Writer().write_u32(-1)


@given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=20))
def test_writer_reader_roundtrip(values):
    writer = Writer()
    for value in values:
        writer.write_u16(value)
    reader = Reader(writer.getvalue())
    assert [reader.read_u16() for _ in values] == values
    assert reader.at_end()
