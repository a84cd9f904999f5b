"""Cursor-based binary reader/writer for the QUIC and TLS codecs.

The QUIC codecs and the TLS mini-stack serialize through these two classes
so bounds checking and error reporting are uniform; the IPv4/UDP and pcap
headers are fixed-layout ``struct`` packs instead.
"""

from __future__ import annotations


class BufferError_(ValueError):
    """Raised when a read runs past the end of the buffer."""


class Reader:
    """Sequential reader over an immutable bytes object."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = bytes(data)
        self.pos = pos

    def __len__(self) -> int:
        return len(self.data)

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def at_end(self) -> bool:
        return self.pos >= len(self.data)

    def peek(self, count: int = 1) -> bytes:
        """Return the next ``count`` bytes without advancing."""
        self._check(count)
        return self.data[self.pos : self.pos + count]

    def read(self, count: int) -> bytes:
        self._check(count)
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def read_uint(self, width: int) -> int:
        """Read a big-endian unsigned integer of ``width`` bytes."""
        return int.from_bytes(self.read(width), "big")

    def read_u8(self) -> int:
        return self.read_uint(1)

    def read_u16(self) -> int:
        return self.read_uint(2)

    def read_u32(self) -> int:
        return self.read_uint(4)

    def read_u64(self) -> int:
        return self.read_uint(8)

    def read_rest(self) -> bytes:
        out = self.data[self.pos :]
        self.pos = len(self.data)
        return out

    def skip(self, count: int) -> None:
        self._check(count)
        self.pos += count

    def _check(self, count: int) -> None:
        if count < 0:
            raise BufferError_("negative read of %d bytes" % count)
        if self.pos + count > len(self.data):
            raise BufferError_(
                "read of %d bytes at offset %d overruns buffer of %d bytes"
                % (count, self.pos, len(self.data))
            )


class Writer:
    """Appends big-endian fields into a growing bytearray."""

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def __len__(self) -> int:
        return len(self.buf)

    def write(self, data: bytes) -> "Writer":
        self.buf.extend(data)
        return self

    def write_uint(self, value: int, width: int) -> "Writer":
        if value < 0:
            raise ValueError("cannot encode negative integer %d" % value)
        if value >> (8 * width):
            raise ValueError("%d does not fit in %d bytes" % (value, width))
        self.buf.extend(value.to_bytes(width, "big"))
        return self

    def write_u8(self, value: int) -> "Writer":
        return self.write_uint(value, 1)

    def write_u16(self, value: int) -> "Writer":
        return self.write_uint(value, 2)

    def write_u32(self, value: int) -> "Writer":
        return self.write_uint(value, 4)

    def getvalue(self) -> bytes:
        return bytes(self.buf)
