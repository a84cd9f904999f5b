"""Connection-ID schemes: mvfst (Table 5), Cloudflare, Google, QUIC-LB."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.cid.base import CidContext, FixedPrefixScheme, RandomScheme
from repro.quic.cid.cloudflare import (
    CloudflareScheme,
    decode_colo_id,
    looks_like_cloudflare,
)
from repro.quic.cid.google import GoogleEchoScheme, echoes_client_dcid
from repro.quic.cid import mvfst
from repro.quic.cid.quic_lb import QuicLbConfig, QuicLbError, QuicLbScheme
from repro.quic.cid import quic_lb


class TestMvfstV1:
    """Table 5, SCID version 1: version 0-1, host 2-17, worker 18-25,
    process 26, random 27-63."""

    def test_encode_layout(self):
        cid = mvfst.MvfstCid(
            version=1, host_id=0xFFFF, worker_id=0, process_id=0, random_bits=0
        )
        value = int.from_bytes(cid.encode(), "big")
        assert value >> 62 == 1
        assert (value >> 46) & 0xFFFF == 0xFFFF
        assert (value >> 38) & 0xFF == 0
        assert (value >> 37) & 1 == 0

    def test_roundtrip(self):
        cid = mvfst.MvfstCid(
            version=1, host_id=7122, worker_id=13, process_id=1, random_bits=12345
        )
        assert mvfst.decode(cid.encode()) == cid

    def test_host_id_range_enforced(self):
        with pytest.raises(mvfst.MvfstCidError):
            mvfst.MvfstCid(
                version=1, host_id=1 << 16, worker_id=0, process_id=0, random_bits=0
            ).encode()

    def test_max_65536_host_ids(self):
        """Paper §4.2: SCID version 1 caps Facebook at 65,536 host IDs."""
        assert mvfst.MAX_HOST_ID_V1 + 1 == 65536


class TestMvfstV2:
    """Table 5, SCID version 2: host 8-31 (24 bits), worker 32-39,
    process 40, random 2-7 + 41-63."""

    def test_roundtrip(self):
        cid = mvfst.MvfstCid(
            version=2,
            host_id=0xABCDEF,
            worker_id=200,
            process_id=1,
            random_bits=(1 << 29) - 1,
        )
        assert mvfst.decode(cid.encode()) == cid

    def test_encode_layout(self):
        cid = mvfst.MvfstCid(
            version=2, host_id=0xFFFFFF, worker_id=0, process_id=0, random_bits=0
        )
        value = int.from_bytes(cid.encode(), "big")
        assert value >> 62 == 2
        assert (value >> 32) & 0xFFFFFF == 0xFFFFFF


class TestMvfstDecode:
    def test_wrong_length_rejected(self):
        with pytest.raises(mvfst.MvfstCidError):
            mvfst.decode(b"\x40" * 7)

    def test_version_0_and_3_rejected(self):
        with pytest.raises(mvfst.MvfstCidError):
            mvfst.decode(b"\x00" * 8)  # version bits 0
        with pytest.raises(mvfst.MvfstCidError):
            mvfst.decode(b"\xff" * 8)  # version bits 3

    def test_try_decode(self):
        assert mvfst.try_decode(b"\x00" * 8) is None
        assert mvfst.try_decode(b"\x40" + b"\x00" * 7) is not None

    def test_scheme_generates_context_fields(self):
        scheme = mvfst.MvfstScheme(cid_version=1)
        rng = random.Random(1)
        context = CidContext(host_id=4242, worker_id=7, process_id=1)
        decoded = mvfst.decode(scheme.generate(rng, context))
        assert decoded.host_id == 4242
        assert decoded.worker_id == 7
        assert decoded.process_id == 1


@settings(max_examples=100, deadline=None)
@given(
    version=st.sampled_from([1, 2]),
    host_id=st.integers(min_value=0, max_value=mvfst.MAX_HOST_ID_V1),
    worker_id=st.integers(min_value=0, max_value=255),
    process_id=st.integers(min_value=0, max_value=1),
    random_bits=st.integers(min_value=0, max_value=(1 << 29) - 1),
)
def test_mvfst_roundtrip_property(version, host_id, worker_id, process_id, random_bits):
    cid = mvfst.MvfstCid(
        version=version,
        host_id=host_id,
        worker_id=worker_id,
        process_id=process_id,
        random_bits=random_bits,
    )
    encoded = cid.encode()
    assert len(encoded) == 8
    assert mvfst.decode(encoded) == cid


def _bit_positions(spans):
    """``"2-7, 41-63"`` -> {2, ..., 7, 41, ..., 63} (bit 0 = the MSB)."""
    positions = set()
    for span in spans.split(","):
        first, _, last = span.strip().partition("-")
        positions.update(range(int(first), int(last or first) + 1))
    return positions


@pytest.mark.parametrize(
    "version, layout",
    [
        (1, {"host_id": "2-17", "worker_id": "18-25", "process_id": "26",
             "random_bits": "27-63"}),
        (2, {"host_id": "8-31", "worker_id": "32-39", "process_id": "40",
             "random_bits": "2-7, 41-63"}),
    ],
)
def test_table5_bit_positions(version, layout):
    """Each field all-ones, the others zero, sets exactly Table 5's bits
    (bits 0-1 always hold the version)."""
    for field, spans in layout.items():
        positions = _bit_positions(spans)
        fields = dict.fromkeys(layout, 0)
        fields[field] = (1 << len(positions)) - 1
        value = int.from_bytes(mvfst.MvfstCid(version, **fields).encode(), "big")
        assert value >> 62 == version
        set_bits = {bit for bit in range(2, 64) if value >> (63 - bit) & 1}
        assert set_bits == positions, field


class TestCloudflare:
    def test_shape(self):
        scheme = CloudflareScheme(colo_id=0x0123)
        cid = scheme.generate(random.Random(1), CidContext(host_id=42))
        assert len(cid) == 20
        assert cid[0] == 0x01
        assert looks_like_cloudflare(cid)
        assert decode_colo_id(cid) == 0x0123

    def test_fingerprint_rejects_other_lengths(self):
        assert not looks_like_cloudflare(b"\x01" * 8)
        assert not looks_like_cloudflare(b"\x02" + b"\x00" * 19)

    def test_decode_colo_rejects_non_cloudflare(self):
        with pytest.raises(ValueError):
            decode_colo_id(b"\x00" * 20)


class TestGoogleEcho:
    def test_echoes_first_8_bytes(self):
        scheme = GoogleEchoScheme()
        dcid = bytes(range(12))
        scid = scheme.generate(random.Random(1), CidContext(client_dcid=dcid))
        assert scid == dcid[:8]
        assert echoes_client_dcid(scid, dcid)

    def test_short_dcid_zero_padded(self):
        scheme = GoogleEchoScheme()
        scid = scheme.generate(random.Random(1), CidContext(client_dcid=b"\xaa\xbb"))
        assert scid == b"\xaa\xbb" + b"\x00" * 6
        assert echoes_client_dcid(scid, b"\xaa\xbb")

    def test_non_echo_detected(self):
        assert not echoes_client_dcid(b"\x00" * 8, bytes(range(8)))


class TestQuicLb:
    def test_roundtrip(self):
        config = QuicLbConfig(config_rotation=2, server_id_length=2, nonce_length=5)
        cid = quic_lb.encode(config, server_id=0x0BEE, nonce=0x12345)
        assert len(cid) == config.cid_length
        server_id, nonce = quic_lb.decode(config, cid)
        assert (server_id, nonce) == (0x0BEE, 0x12345)

    def test_first_octet_semantics(self):
        """The paper's argument: Cloudflare's 0x01 first byte cannot be a
        QUIC-LB CID for any but a trivial configuration."""
        config = QuicLbConfig(config_rotation=0, server_id_length=2, nonce_length=5)
        cid = quic_lb.encode(config, 1, 1)
        assert cid[0] >> 5 == 0
        assert cid[0] & 0x1F == 7  # length self-description

    def test_rotation_mismatch(self):
        a = QuicLbConfig(config_rotation=1)
        b = QuicLbConfig(config_rotation=2)
        cid = quic_lb.encode(a, 1, 1)
        with pytest.raises(QuicLbError):
            quic_lb.decode(b, cid)

    def test_bounds(self):
        config = QuicLbConfig(server_id_length=1)
        with pytest.raises(QuicLbError):
            quic_lb.encode(config, server_id=256, nonce=0)
        with pytest.raises(QuicLbError):
            QuicLbConfig(config_rotation=7)
        with pytest.raises(QuicLbError):
            QuicLbConfig(nonce_length=2)

    def test_scheme(self):
        scheme = QuicLbScheme(config=QuicLbConfig())
        cid = scheme.generate(random.Random(3), CidContext(host_id=99))
        server_id, _nonce = quic_lb.decode(scheme.config, cid)
        assert server_id == 99


class TestBaseSchemes:
    def test_random_scheme_length(self):
        for length in (8, 20):
            cid = RandomScheme(length=length).generate(random.Random(1), CidContext())
            assert len(cid) == length

    def test_random_scheme_varies(self):
        rng = random.Random(1)
        scheme = RandomScheme(length=8)
        assert scheme.generate(rng, CidContext()) != scheme.generate(rng, CidContext())

    def test_fixed_prefix(self):
        scheme = FixedPrefixScheme(length=8, prefix=b"\x40\x00\x07")
        cid = scheme.generate(random.Random(1), CidContext())
        assert cid[:3] == b"\x40\x00\x07"
        assert len(cid) == 8

    def test_fixed_prefix_too_long(self):
        scheme = FixedPrefixScheme(length=4, prefix=b"\x00" * 5)
        with pytest.raises(ValueError):
            scheme.generate(random.Random(1), CidContext())
