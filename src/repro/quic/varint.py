"""QUIC variable-length integer encoding (RFC 9000 §16).

The two most significant bits of the first byte select the total length of
the encoding (1, 2, 4, or 8 bytes); the remaining bits carry the value in
network byte order.
"""

from __future__ import annotations

from repro.buffer import Reader

#: Largest value representable as a QUIC varint (2^62 - 1).
VARINT_MAX = (1 << 62) - 1

_PREFIX_TO_LENGTH = {0: 1, 1: 2, 2: 4, 3: 8}
#: Value bits of an encoding, by its total length in bytes.
VALUE_MASK = {1: 0x3F, 2: 0x3FFF, 4: 0x3FFFFFFF, 8: 0x3FFFFFFFFFFFFFFF}


def varint_length(value: int) -> int:
    """Return the number of bytes the minimal encoding of ``value`` uses."""
    if value < 0 or value > VARINT_MAX:
        raise ValueError("varint out of range: %d" % value)
    if value < 1 << 6:
        return 1
    if value < 1 << 14:
        return 2
    if value < 1 << 30:
        return 4
    return 8


def encode_varint(value: int, width: int | None = None) -> bytes:
    """Encode ``value`` as a QUIC varint.

    ``width`` may force a non-minimal encoding (1, 2, 4, or 8), which RFC 9000
    permits and which real stacks use, e.g. to reserve room for the length
    field before the payload size is known.
    """
    minimal = varint_length(value)
    if width is None:
        width = minimal
    if width not in (1, 2, 4, 8):
        raise ValueError("invalid varint width %d" % width)
    if width < minimal:
        raise ValueError("value %d does not fit in %d-byte varint" % (value, width))
    prefix = {1: 0, 2: 1, 4: 2, 8: 3}[width]
    encoded = value | (prefix << (8 * width - 2))
    return encoded.to_bytes(width, "big")


def read_varint(reader: Reader) -> int:
    """Read one varint from ``reader``, advancing its cursor."""
    first = reader.peek(1)[0]
    length = _PREFIX_TO_LENGTH[first >> 6]
    return int.from_bytes(reader.read(length), "big") & VALUE_MASK[length]


def decode_varint(data: bytes) -> tuple[int, int]:
    """Decode one varint from the front of ``data``.

    Returns ``(value, bytes_consumed)``.
    """
    reader = Reader(data)
    value = read_varint(reader)
    return value, reader.pos
