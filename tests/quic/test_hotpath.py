"""Write-side caches and templates: LRU, crypto memos, header skeletons.

Every cached object is a pure function of its key.  The memo tests hold
``cached_*`` to the cold constructors; the template tests hold
``encode_packet`` / ``encode_datagram`` / ``encode_short_packet`` to the
field-by-field encoders in :mod:`tests.quic.reference`, and the fused
``FastProtection.protect`` to the generic ``PacketProtection.protect``
driver it overrides.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.lru import LruCache
from repro.quic.crypto.aes import AES128
from repro.quic.crypto.gcm import AesGcm
from repro.quic.crypto.memo import (
    cached_aes,
    cached_gcm,
    clear_crypto_memos,
    memo_stats,
)
from repro.quic.crypto.suites import (
    FastProtection,
    NullProtection,
    PacketProtection,
    ProtectionError,
    Rfc9001Protection,
)
from repro.quic.packet import (
    LongHeaderPacket,
    PacketType,
    ShortHeaderPacket,
    encode_datagram,
    encode_packet,
    encode_short_packet,
)
from tests.quic import reference


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_crypto_memos()
    yield
    clear_crypto_memos()


class TestLruCache:
    def test_get_or_build_caches(self):
        cache = LruCache(4)
        built = []

        def factory():
            built.append(1)
            return len(built)

        assert cache.get_or_build("a", factory) == 1
        assert cache.get_or_build("a", factory) == 1
        assert built == [1]
        assert cache.hits == 1
        assert cache.misses == 1

    def test_evicts_least_recently_used(self):
        cache = LruCache(2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A")  # refresh a; b is now oldest
        cache.get_or_build("c", lambda: "C")  # evicts b
        rebuilt = []
        cache.get_or_build("b", lambda: rebuilt.append(1) or "B2")
        assert rebuilt == [1]

    @settings(max_examples=200, deadline=None)
    @given(
        maxsize=st.integers(1, 6),
        keys=st.lists(st.integers(0, 9), max_size=80),
    )
    def test_replays_like_a_list_based_lru(self, maxsize, keys):
        """Contents, recency order and counters against the obvious LRU."""
        cache = LruCache(maxsize)
        order, hits, misses = [], 0, 0  # least recently used first
        for step, key in enumerate(keys):
            value = cache.get_or_build(key, tuple, (key, step))
            cached = [entry for entry in order if entry[0] == key]
            if cached:
                hits += 1
                order.remove(cached[0])
                order.append(cached[0])
            else:
                misses += 1
                order.append((key, step))
                if len(order) > maxsize:
                    order.pop(0)
            assert value == order[-1]
            assert list(cache._data.values()) == order
            assert (cache.hits, cache.misses, len(cache)) == (hits, misses, len(order))

    @settings(max_examples=200, deadline=None)
    @given(
        maxsize=st.integers(1, 6),
        keys=st.lists(st.integers(0, 9), max_size=80),
    )
    def test_a_hit_never_calls_the_builder(self, maxsize, keys):
        """The builder runs once per miss, with the arguments passed beside
        it, and the recency order is the zero-argument form's."""
        cache, closures = LruCache(maxsize), LruCache(maxsize)
        built = []

        def build(key, step):
            built.append(key)
            return (key, step)

        for step, key in enumerate(keys):
            hits, before = cache.hits, len(built)
            value = cache.get_or_build(key, build, key, step)
            if cache.hits > hits:
                assert len(built) == before and value[1] < step
            else:
                assert built[before:] == [key] and value == (key, step)
            assert value == closures.get_or_build(key, lambda: (key, step))
            assert list(cache._data.items()) == list(closures._data.items())
        assert (cache.hits, cache.misses) == (closures.hits, closures.misses)


class TestCryptoMemoParity:
    def test_aes_schedule_identical_across_keys(self):
        rng = random.Random(7)
        block = b"\x5a" * 16
        for _ in range(50):
            key = rng.getrandbits(128).to_bytes(16, "big")
            assert cached_aes(key).encrypt_block(block) == AES128(
                key
            ).encrypt_block(block)

    def test_ghash_schedule_identical_across_keys(self):
        rng = random.Random(8)
        nonce = b"\x01" * 12
        for _ in range(25):
            key = rng.getrandbits(128).to_bytes(16, "big")
            sealed = cached_gcm(key).seal(nonce, b"payload", b"aad")
            assert sealed == AesGcm(key).seal(nonce, b"payload", b"aad")

    def test_memo_stats_counts(self):
        cached_aes(b"\x02" * 16)
        cached_aes(b"\x02" * 16)
        cached_gcm(b"\x03" * 16)
        stats = memo_stats()
        assert stats["aes"] == {"hits": 1, "misses": 1}
        assert stats["gcm"] == {"hits": 0, "misses": 1}


def _flight_packets(version=1, pn=3, token=b""):
    initial = LongHeaderPacket(
        packet_type=PacketType.INITIAL,
        version=version,
        dcid=b"\x11" * 8,
        scid=b"\x22" * 8,
        packet_number=pn,
        payload=b"\xaa" * 620,
        pn_length=1,
        token=token,
    )
    handshake = LongHeaderPacket(
        packet_type=PacketType.HANDSHAKE,
        version=version,
        dcid=b"\x11" * 8,
        scid=b"\x22" * 8,
        packet_number=pn + 1,
        payload=b"\xbb" * 660,
        pn_length=1,
    )
    return initial, handshake


SUITES = (FastProtection, NullProtection, Rfc9001Protection)


_CIDS = st.binary(max_size=20)
_LONG_PACKETS = st.builds(
    LongHeaderPacket,
    packet_type=st.sampled_from(
        (PacketType.INITIAL, PacketType.ZERO_RTT, PacketType.HANDSHAKE)
    ),
    version=st.sampled_from((1, 0x6B3343CF, 0xFF00001D, 0xFACEB002, 0x1A2A3A4A)),
    dcid=_CIDS,
    scid=_CIDS,
    packet_number=st.integers(0, 2**32 - 1),
    # 4 bytes keep the header-protection sample inside the packet.
    payload=st.binary(min_size=4, max_size=96),
    # 63 -> 64 is where the token-length varint widens.
    token=st.one_of(st.just(b""), st.binary(min_size=60, max_size=70)),
    pn_length=st.integers(1, 4),
)


#: Payloads shaped like what the stack seals: frames with zero runs
#: inside them (offsets, empty fields), then 0 … 1,200 bytes of PADDING —
#: all-zero when no chunk is drawn, unpadded when the draw is 0.
_PADDED_PAYLOADS = st.builds(
    lambda chunks, padding: b"".join(chunks) + b"\x00" * padding,
    st.lists(
        st.one_of(
            st.binary(max_size=60), st.integers(0, 40).map(lambda n: b"\x00" * n)
        ),
        max_size=6,
    ),
    st.integers(0, 1200),
)


def _without_token_unless_initial(packet):
    if packet.packet_type is not PacketType.INITIAL:
        packet.token = b""
    return packet


class TestTemplateParity:
    @pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.name)
    def test_encode_packet_matches_rebuild(self, suite):
        protection = suite(1, b"\x11" * 8)
        for packet in _flight_packets():
            assert encode_packet(
                packet, protection, is_server=True
            ) == reference.encode_packet(packet, protection, is_server=True)

    @pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.name)
    @pytest.mark.parametrize("pad_to", (0, 1200, 1357))
    def test_encode_datagram_matches_rebuild(self, suite, pad_to):
        protection = suite(1, b"\x11" * 8)
        packets = list(_flight_packets())
        assert encode_datagram(
            packets, protection, is_server=True, pad_to=pad_to
        ) == reference.encode_datagram(
            packets, protection, is_server=True, pad_to=pad_to
        )

    def test_encode_datagram_with_token_matches_rebuild(self):
        protection = FastProtection(1, b"\x11" * 8)
        initial, _ = _flight_packets(token=b"\xf0\x0d" * 8)
        assert encode_datagram(
            [initial], protection, is_server=False, pad_to=1200
        ) == reference.encode_datagram(
            [initial], protection, is_server=False, pad_to=1200
        )

    @pytest.mark.parametrize("pn_length", (1, 2, 3, 4))
    def test_short_packet_matches_rebuild(self, pn_length):
        protection = FastProtection(1, b"\x11" * 8)
        packet = ShortHeaderPacket(
            dcid=b"\x33" * 8,
            packet_number=0x1234,
            payload=b"\xcc" * 64,
            pn_length=pn_length,
            spin_bit=bool(pn_length % 2),
        )
        assert encode_short_packet(
            packet, protection, is_server=True
        ) == reference.encode_short_packet(packet, protection, is_server=True)

    @settings(max_examples=150, deadline=None)
    @given(
        packets=st.lists(
            _LONG_PACKETS.map(_without_token_unless_initial), min_size=1, max_size=3
        ),
        pad_to=st.sampled_from((0, 300, 1200, 1357)),
        is_server=st.booleans(),
        suite=st.sampled_from((FastProtection, NullProtection)),
    )
    def test_any_shape_matches_the_field_by_field_encoder(
        self, packets, pad_to, is_server, suite
    ):
        protection = suite(1, b"\x11" * 8)
        assert encode_packet(
            packets[0], protection, is_server
        ) == reference.encode_packet(packets[0], protection, is_server)
        assert encode_datagram(
            packets, protection, is_server, pad_to=pad_to
        ) == reference.encode_datagram(packets, protection, is_server, pad_to=pad_to)

    @settings(max_examples=150, deadline=None)
    @given(
        long_form=st.booleans(),
        pn_length=st.integers(1, 4),
        packet_number=st.integers(0, 2**32 - 1),
        payload=st.one_of(st.binary(max_size=1300), _PADDED_PAYLOADS),
        is_server=st.booleans(),
        padding=st.one_of(st.just(0), st.integers(0, 1200)),
    )
    @example(True, 1, 7, b"\x00" * 1200, True, 0)  # nothing but PADDING
    @example(True, 1, 7, b"\x06\x00\x40\x5a" + b"\xa5" * 90, False, 0)  # none
    @example(True, 2, 7, b"\x00" * 1199 + b"\x01", True, 0)  # non-zero last byte
    @example(True, 1, 7, b"\x01" + b"\x00" * 30 + b"\x02\x00\x03" + b"\x00" * 900, False, 0)  # runs
    @example(True, 1, 7, b"\x00" * 3, True, 0)  # the sample ends on the tag's last byte
    @example(True, 1, 7, b"\x00\x01", True, 0)  # one byte shorter: no sample
    @example(False, 3, 7, b"", False, 0)
    @example(True, 1, 7, b"\x06\x00\x40\x5a" + b"\xa5" * 90, False, 1106)  # counted
    @example(True, 1, 7, b"\x00" * 30, True, 900)  # zeros on both sides
    @example(True, 1, 7, b"", True, 3)  # the sample ends on the tag's last byte
    @example(True, 1, 7, b"\x01", True, 1)  # one byte shorter: no sample
    def test_fused_fast_protect_matches_driver(
        self, long_form, pn_length, packet_number, payload, is_server, padding
    ):
        """The override against the generic driver, called explicitly.

        The driver's ``_seal`` / ``_xor`` XOR every byte of the plaintext,
        ``padding`` zeros appended; the override XORs only ``payload``,
        takes the rest of the ciphertext straight from the keystream, and
        takes the sample from the ciphertext, reaching into the tag only
        for a packet shorter than the sample window.
        """
        protection = FastProtection(1, b"\x77" * 8)
        first = (0xC0 if long_form else 0x40) | (pn_length - 1)
        header = (
            bytes([first])
            + b"\x00\x00\x00\x01\x08"
            + b"\x11" * 8
            + b"\x00\x41\x00"
            + (packet_number & ((1 << (8 * pn_length)) - 1)).to_bytes(pn_length, "big")
        )
        plaintext = payload + bytes(padding)
        if len(plaintext) + pn_length < 4:  # too short to sample: same refusal
            with pytest.raises(ProtectionError) as driver:
                PacketProtection.protect(
                    protection, is_server, header, packet_number, plaintext
                )
            with pytest.raises(ProtectionError) as override:
                protection.protect(is_server, header, packet_number, payload, padding)
            assert str(override.value) == str(driver.value)
            return
        fused = protection.protect(is_server, header, packet_number, payload, padding)
        assert fused == PacketProtection.protect(
            protection, is_server, header, packet_number, plaintext
        )
        assert fused == PacketProtection.protect(
            protection, is_server, header, packet_number, payload, padding
        )
        assert protection.unprotect(
            is_server, fused, len(header) - pn_length, packet_number - 1
        ) == (plaintext, packet_number, pn_length)
