"""QUIC frame encoding/decoding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.frames import (
    AckFrame,
    AckRange,
    ConnectionCloseFrame,
    CryptoFrame,
    FrameParseError,
    NewConnectionIdFrame,
    PaddingFrame,
    PingFrame,
    RetireConnectionIdFrame,
    crypto_payload,
    decode_frames,
    encode_frames,
)


class TestPaddingAndPing:
    def test_padding_run_collapsed(self):
        frames = decode_frames(b"\x00" * 100)
        assert frames == [PaddingFrame(length=100)]

    def test_padding_roundtrip(self):
        payload = encode_frames([PingFrame(), PaddingFrame(length=5), PingFrame()])
        frames = decode_frames(payload)
        assert frames == [PingFrame(), PaddingFrame(length=5), PingFrame()]


class TestAck:
    def test_single_range(self):
        frame = AckFrame(largest_acked=10, ack_delay=3, ranges=(AckRange(5, 10),))
        decoded = decode_frames(encode_frames([frame]))[0]
        assert decoded.largest_acked == 10
        assert decoded.ack_delay == 3
        assert decoded.ranges == (AckRange(5, 10),)

    def test_multiple_ranges(self):
        frame = AckFrame(
            largest_acked=100,
            ranges=(AckRange(90, 100), AckRange(50, 60), AckRange(10, 20)),
        )
        decoded = decode_frames(encode_frames([frame]))[0]
        assert set(decoded.ranges) == set(frame.ranges)

    def test_inverted_range_rejected(self):
        with pytest.raises(FrameParseError):
            AckRange(10, 5)

    def test_empty_ranges_rejected(self):
        with pytest.raises(FrameParseError):
            encode_frames([AckFrame(largest_acked=1, ranges=())])

    def test_mismatched_largest_rejected(self):
        with pytest.raises(FrameParseError):
            encode_frames(
                [AckFrame(largest_acked=99, ranges=(AckRange(5, 10),))]
            )

    def test_ecn_variant_parsed(self):
        # Type 0x03 carries three extra varints (ECN counts).
        payload = bytes([0x03, 10, 0, 0, 2]) + bytes([1, 2, 3])
        decoded = decode_frames(payload)[0]
        assert decoded.largest_acked == 10
        assert decoded.ranges == (AckRange(8, 10),)


class TestCrypto:
    def test_roundtrip(self):
        frame = CryptoFrame(offset=17, data=b"client hello bytes")
        decoded = decode_frames(encode_frames([frame]))[0]
        assert decoded == frame

    def test_crypto_payload_reassembly(self):
        frames = [
            CryptoFrame(offset=0, data=b"hello "),
            CryptoFrame(offset=6, data=b"world"),
        ]
        assert crypto_payload(frames) == b"hello world"

    def test_crypto_payload_gap_rejected(self):
        frames = [CryptoFrame(offset=0, data=b"a"), CryptoFrame(offset=5, data=b"b")]
        with pytest.raises(FrameParseError):
            crypto_payload(frames)


class TestConnectionIds:
    def test_new_connection_id_roundtrip(self):
        frame = NewConnectionIdFrame(
            sequence_number=2,
            retire_prior_to=1,
            connection_id=b"\x11" * 8,
            stateless_reset_token=b"\x22" * 16,
        )
        decoded = decode_frames(encode_frames([frame]))[0]
        assert decoded == frame

    def test_retire_roundtrip(self):
        frame = RetireConnectionIdFrame(sequence_number=9)
        assert decode_frames(encode_frames([frame]))[0] == frame


class TestConnectionClose:
    def test_roundtrip(self):
        frame = ConnectionCloseFrame(error_code=0x0A, frame_type=6, reason=b"bye")
        decoded = decode_frames(encode_frames([frame]))[0]
        assert decoded == frame

    def test_application_close_variant(self):
        payload = bytes([0x1D, 5, 3]) + b"err"
        decoded = decode_frames(payload)[0]
        assert decoded.error_code == 5
        assert decoded.reason == b"err"


class TestErrors:
    def test_unknown_frame_type(self):
        with pytest.raises(FrameParseError):
            decode_frames(b"\x30")

    def test_truncated_crypto(self):
        with pytest.raises(FrameParseError):
            decode_frames(bytes([0x06, 0, 50]) + b"short")

    def test_unencodable_object(self):
        with pytest.raises(FrameParseError):
            encode_frames(["not a frame"])


ack_ranges = st.lists(
    st.tuples(st.integers(0, 1000), st.integers(0, 50)), min_size=1, max_size=5
)


@settings(max_examples=50, deadline=None)
@given(
    crypto_data=st.binary(min_size=0, max_size=100),
    offset=st.integers(min_value=0, max_value=1 << 20),
    padding=st.integers(min_value=1, max_value=64),
)
def test_mixed_frame_roundtrip(crypto_data, offset, padding):
    frames = [
        CryptoFrame(offset=offset, data=crypto_data),
        PaddingFrame(length=padding),
    ]
    decoded = decode_frames(encode_frames(frames))
    assert decoded == frames


@settings(max_examples=50, deadline=None)
@given(raw=ack_ranges)
def test_ack_roundtrip_property(raw):
    # Build non-overlapping descending ranges from raw (start, length) pairs.
    ranges = []
    floor = None
    for start, length in sorted(raw, key=lambda p: -(p[0] + p[1])):
        largest = start + length
        if floor is not None and largest >= floor - 1:
            largest = floor - 2
        if largest < 0:
            break
        smallest = max(0, largest - length)
        ranges.append(AckRange(smallest, largest))
        floor = smallest
    if not ranges:
        return
    frame = AckFrame(largest_acked=ranges[0].largest, ranges=tuple(ranges))
    decoded = decode_frames(encode_frames([frame]))[0]
    assert set(decoded.ranges) == set(ranges)
