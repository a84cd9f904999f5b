"""QUIC frames (RFC 9000 §19) — the subset that appears in handshake flights.

Initial and Handshake packets in background radiation carry CRYPTO frames
(the TLS handshake), ACKs, PADDING (to satisfy the 1200-byte minimum), and
occasionally CONNECTION_CLOSE.  NEW_CONNECTION_ID / RETIRE_CONNECTION_ID are
implemented because CID rotation is central to the load-balancing discussion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buffer import BufferError_, Reader, Writer
from repro.quic.varint import encode_varint, read_varint


class FrameParseError(ValueError):
    """Raised when a payload cannot be parsed as a sequence of frames."""


@dataclass(frozen=True)
class PaddingFrame:
    """One or more 0x00 bytes; ``length`` counts the run."""

    length: int = 1
    type_byte = 0x00


@dataclass(frozen=True)
class PingFrame:
    type_byte = 0x01


@dataclass(frozen=True)
class AckRange:
    """A contiguous range of acknowledged packet numbers (inclusive)."""

    smallest: int
    largest: int

    def __post_init__(self) -> None:
        if self.smallest > self.largest:
            raise FrameParseError("inverted ACK range")


@dataclass(frozen=True)
class AckFrame:
    """ACK without ECN counts (type 0x02)."""

    largest_acked: int
    ack_delay: int = 0
    ranges: tuple[AckRange, ...] = ()
    type_byte = 0x02


@dataclass(frozen=True)
class CryptoFrame:
    """Carries TLS handshake bytes at a stream-like offset (type 0x06)."""

    offset: int
    data: bytes
    type_byte = 0x06


@dataclass(frozen=True)
class NewConnectionIdFrame:
    """Issues an additional CID to the peer (type 0x18)."""

    sequence_number: int
    retire_prior_to: int
    connection_id: bytes
    stateless_reset_token: bytes = b"\x00" * 16
    type_byte = 0x18


@dataclass(frozen=True)
class RetireConnectionIdFrame:
    sequence_number: int
    type_byte = 0x19


@dataclass(frozen=True)
class ConnectionCloseFrame:
    """Transport-level close (type 0x1c)."""

    error_code: int
    frame_type: int = 0
    reason: bytes = b""
    type_byte = 0x1C


Frame = object  # informal union of the dataclasses above


def encode_frames(frames: list) -> bytes:
    """Serialize a list of frames into a packet payload."""
    writer = Writer()
    for frame in frames:
        _encode_one(writer, frame)
    return writer.getvalue()


def _encode_one(writer: Writer, frame) -> None:
    if isinstance(frame, PaddingFrame):
        writer.write(b"\x00" * frame.length)
    elif isinstance(frame, PingFrame):
        writer.write_u8(0x01)
    elif isinstance(frame, AckFrame):
        _encode_ack(writer, frame)
    elif isinstance(frame, CryptoFrame):
        writer.write_u8(0x06)
        writer.write(encode_varint(frame.offset))
        writer.write(encode_varint(len(frame.data)))
        writer.write(frame.data)
    elif isinstance(frame, NewConnectionIdFrame):
        writer.write_u8(0x18)
        writer.write(encode_varint(frame.sequence_number))
        writer.write(encode_varint(frame.retire_prior_to))
        writer.write_u8(len(frame.connection_id))
        writer.write(frame.connection_id)
        writer.write(frame.stateless_reset_token)
    elif isinstance(frame, RetireConnectionIdFrame):
        writer.write_u8(0x19)
        writer.write(encode_varint(frame.sequence_number))
    elif isinstance(frame, ConnectionCloseFrame):
        writer.write_u8(0x1C)
        writer.write(encode_varint(frame.error_code))
        writer.write(encode_varint(frame.frame_type))
        writer.write(encode_varint(len(frame.reason)))
        writer.write(frame.reason)
    else:
        raise FrameParseError("cannot encode frame of type %r" % type(frame))


def _encode_ack(writer: Writer, frame: AckFrame) -> None:
    if not frame.ranges:
        raise FrameParseError("ACK frame needs at least one range")
    ordered = sorted(frame.ranges, key=lambda r: r.largest, reverse=True)
    if ordered[0].largest != frame.largest_acked:
        raise FrameParseError("largest_acked does not match first range")
    writer.write_u8(0x02)
    writer.write(encode_varint(frame.largest_acked))
    writer.write(encode_varint(frame.ack_delay))
    writer.write(encode_varint(len(ordered) - 1))
    first = ordered[0]
    writer.write(encode_varint(first.largest - first.smallest))
    previous_smallest = first.smallest
    for rng in ordered[1:]:
        gap = previous_smallest - rng.largest - 2
        if gap < 0:
            raise FrameParseError("ACK ranges overlap or are unsorted")
        writer.write(encode_varint(gap))
        writer.write(encode_varint(rng.largest - rng.smallest))
        previous_smallest = rng.smallest


def decode_frames(payload: bytes) -> list:
    """Parse a plaintext packet payload into frames.

    Runs of PADDING bytes are collapsed into a single
    :class:`PaddingFrame` with the run length.
    """
    reader = Reader(payload)
    frames: list = []
    try:
        while not reader.at_end():
            frame_type = reader.peek(1)[0]
            if frame_type == 0x00:
                # PADDING runs are long (Initial datagrams are padded to
                # 1200 bytes); measure the run with a C-speed scan.
                rest = reader.data[reader.pos :]
                run = len(rest) - len(rest.lstrip(b"\x00"))
                reader.skip(run)
                frames.append(PaddingFrame(length=run))
            elif frame_type == 0x01:
                reader.skip(1)
                frames.append(PingFrame())
            elif frame_type in (0x02, 0x03):
                frames.append(_decode_ack(reader))
            elif frame_type == 0x06:
                reader.skip(1)
                offset = read_varint(reader)
                length = read_varint(reader)
                frames.append(CryptoFrame(offset=offset, data=reader.read(length)))
            elif frame_type == 0x18:
                reader.skip(1)
                seq = read_varint(reader)
                retire = read_varint(reader)
                cid_len = reader.read_u8()
                cid = reader.read(cid_len)
                token = reader.read(16)
                frames.append(
                    NewConnectionIdFrame(
                        sequence_number=seq,
                        retire_prior_to=retire,
                        connection_id=cid,
                        stateless_reset_token=token,
                    )
                )
            elif frame_type == 0x19:
                reader.skip(1)
                frames.append(RetireConnectionIdFrame(read_varint(reader)))
            elif frame_type in (0x1C, 0x1D):
                reader.skip(1)
                error_code = read_varint(reader)
                inner_type = read_varint(reader) if frame_type == 0x1C else 0
                reason_len = read_varint(reader)
                frames.append(
                    ConnectionCloseFrame(
                        error_code=error_code,
                        frame_type=inner_type,
                        reason=reader.read(reason_len),
                    )
                )
            else:
                raise FrameParseError("unsupported frame type 0x%02x" % frame_type)
    except BufferError_ as exc:
        raise FrameParseError(str(exc)) from exc
    return frames


def _decode_ack(reader: Reader) -> AckFrame:
    frame_type = reader.read_u8()
    largest = read_varint(reader)
    delay = read_varint(reader)
    range_count = read_varint(reader)
    first_range = read_varint(reader)
    ranges = [AckRange(smallest=largest - first_range, largest=largest)]
    previous_smallest = largest - first_range
    for _ in range(range_count):
        gap = read_varint(reader)
        length = read_varint(reader)
        range_largest = previous_smallest - gap - 2
        ranges.append(
            AckRange(smallest=range_largest - length, largest=range_largest)
        )
        previous_smallest = range_largest - length
    if frame_type == 0x03:  # ECN counts follow
        for _ in range(3):
            read_varint(reader)
    return AckFrame(largest_acked=largest, ack_delay=delay, ranges=tuple(ranges))


def crypto_payload(frames: list) -> bytes:
    """Reassemble CRYPTO frame data from a single packet's frames."""
    chunks = sorted(
        (f for f in frames if isinstance(f, CryptoFrame)), key=lambda f: f.offset
    )
    out = bytearray()
    for chunk in chunks:
        if chunk.offset != len(out):
            raise FrameParseError("CRYPTO frames are not contiguous")
        out.extend(chunk.data)
    return bytes(out)
