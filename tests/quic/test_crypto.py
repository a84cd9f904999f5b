"""Cryptographic primitives against published test vectors."""

import hmac
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.crypto.aes import AES128, SBOX
from repro.quic.crypto.gcm import AesGcm, AuthenticationError, _gf_mult
from repro.quic.crypto.hkdf import (
    HmacSha256,
    hkdf_expand,
    hkdf_expand_label,
    hkdf_extract,
    hmac_sha256,
)
from repro.quic.crypto import initial
from repro.quic.crypto.initial import (
    INITIAL_SALTS,
    derive_initial_keys,
    initial_direction,
    initial_salt,
)
from repro.quic.version import QUIC_V2


def _reference_initial_keys(version, dcid):
    """Both directions the long way: Extract, then four HKDF-Expand-Labels."""
    prefix = "quicv2" if version == QUIC_V2.value else "quic"
    initial_secret = hkdf_extract(initial_salt(version), dcid)
    keys = {}
    for side in ("client", "server"):
        secret = hkdf_expand_label(initial_secret, side + " in", b"", 32)
        keys[side] = tuple(
            hkdf_expand_label(secret, "%s %s" % (prefix, name), b"", length)
            for name, length in (("key", 16), ("iv", 12), ("hp", 16))
        )
    return keys


#: Every salted version, mvfst, a GREASE version and the attackers' bogus draft.
_SCHEDULE_VERSIONS = sorted(INITIAL_SALTS) + [0xFACEB002, 0x1A2A3A4A, 0xFF00007F]


class TestAes:
    def test_sbox_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_fips197_appendix_b(self):
        aes = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        ct = aes.encrypt_block(bytes.fromhex("3243f6a8885a308d313198a2e0370734"))
        assert ct.hex() == "3925841d02dc09fbdc118597196a0b32"

    def test_fips197_appendix_c(self):
        aes = AES128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        ct = aes.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError):
            AES128(b"\x00" * 15)

    def test_rejects_bad_block_length(self):
        with pytest.raises(ValueError):
            AES128(b"\x00" * 16).encrypt_block(b"\x00" * 15)

    def test_ctr_keystream_deterministic(self):
        aes = AES128(b"\x01" * 16)
        a = aes.ctr_keystream(b"\x02" * 12, 100)
        b = aes.ctr_keystream(b"\x02" * 12, 100)
        assert a == b
        assert len(a) == 100

    def test_ctr_keystream_counter_progression(self):
        aes = AES128(b"\x01" * 16)
        long = aes.ctr_keystream(b"\x02" * 12, 48)
        assert long[:16] == aes.encrypt_block(b"\x02" * 12 + b"\x00\x00\x00\x01")
        assert long[16:32] == aes.encrypt_block(b"\x02" * 12 + b"\x00\x00\x00\x02")


class TestGcm:
    # NIST GCM spec test case 3 (AES-128).
    KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    IV = bytes.fromhex("cafebabefacedbaddecaf888")
    PT = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
    )

    def test_nist_case_3_no_aad(self):
        sealed = AesGcm(self.KEY).seal(self.IV, self.PT, b"")
        assert sealed[-16:].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"
        assert sealed[:16].hex() == "42831ec2217774244b7221b784d0d49c"

    def test_nist_case_4_with_aad(self):
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        sealed = AesGcm(self.KEY).seal(self.IV, self.PT[:60], aad)
        assert sealed[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    def test_empty_everything(self):
        # NIST test case 1: empty plaintext and AAD.
        gcm = AesGcm(b"\x00" * 16)
        sealed = gcm.seal(b"\x00" * 12, b"", b"")
        assert sealed.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_roundtrip(self):
        gcm = AesGcm(self.KEY)
        sealed = gcm.seal(self.IV, b"hello quic", b"aad")
        assert gcm.open(self.IV, sealed, b"aad") == b"hello quic"

    def test_tamper_detection_ciphertext(self):
        gcm = AesGcm(self.KEY)
        sealed = bytearray(gcm.seal(self.IV, b"hello quic", b"aad"))
        sealed[0] ^= 1
        with pytest.raises(AuthenticationError):
            gcm.open(self.IV, bytes(sealed), b"aad")

    def test_tamper_detection_aad(self):
        gcm = AesGcm(self.KEY)
        sealed = gcm.seal(self.IV, b"hello quic", b"aad")
        with pytest.raises(AuthenticationError):
            gcm.open(self.IV, sealed, b"bad")

    def test_too_short_ciphertext(self):
        with pytest.raises(AuthenticationError):
            AesGcm(self.KEY).open(self.IV, b"\x00" * 10, b"")

    def test_gf_mult_identity(self):
        # x^0 (the GCM "1") is 0x80 followed by zeros in this representation.
        one = 0x80 << 120
        x = 0x123456789ABCDEF0 << 64
        assert _gf_mult(x, one) == x

    @settings(max_examples=25, deadline=None)
    @given(
        st.binary(min_size=0, max_size=80),
        st.binary(min_size=0, max_size=40),
    )
    def test_roundtrip_property(self, plaintext, aad):
        gcm = AesGcm(b"\x37" * 16)
        sealed = gcm.seal(b"\x11" * 12, plaintext, aad)
        assert gcm.open(b"\x11" * 12, sealed, aad) == plaintext


class TestHmacSha256:
    """The one MAC under ``quic/crypto``, judged by RFC 4231 and ``hmac``."""

    LONG_KEY = b"\xaa" * 131  # longer than a SHA-256 block: hashed first

    @pytest.mark.parametrize(
        "key, message, expected",
        [
            (
                b"\x0b" * 20,
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                b"\xaa" * 20,
                b"\xdd" * 50,
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                bytes(range(1, 26)),
                b"\xcd" * 50,
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                LONG_KEY,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                LONG_KEY,
                b"This is a test using a larger than block-size key and a larger "
                b"than block-size data. The key needs to be hashed before being "
                b"used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ],
        ids=["case1", "case2", "case3", "case4", "case6", "case7"],
    )
    def test_rfc4231(self, key, message, expected):
        assert hmac_sha256(key, message).hex() == expected
        assert HmacSha256(key).digest(message).hex() == expected

    @settings(max_examples=200, deadline=None)
    @given(
        key=st.binary(max_size=200),
        messages=st.lists(st.binary(max_size=2000), min_size=1, max_size=8),
    )
    def test_equals_the_stdlib_in_both_forms(self, key, messages):
        keyed = HmacSha256(key)  # one state, reused across every message
        for message in messages:
            expected = hmac.digest(key, message, "sha256")
            assert hmac_sha256(key, message) == expected
            assert keyed.digest(message) == expected

    def test_against_cryptography_on_the_sizes_the_stack_emits(self):
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.hmac import HMAC
        from cryptography.hazmat.primitives.kdf.hkdf import HKDFExpand

        # 20-byte salts, 32-byte secrets, 16-byte AEAD keys.
        for size in (16, 20, 32):
            key = bytes(range(size))
            keyed = HmacSha256(key)
            for message in (b"", b"\x83\x94\xc8\xf0\x3e\x51\x57\x08", b"\x5a" * 1231):
                judge = HMAC(key, hashes.SHA256())
                judge.update(message)
                expected = judge.finalize()
                assert keyed.digest(message) == hmac_sha256(key, message) == expected
        secret = bytes(range(32))
        for label, length in (
            ("client in", 32),
            ("server in", 32),
            ("quic key", 16),
            ("quic iv", 12),
            ("quic hp", 16),
            ("quicv2 key", 16),
        ):
            full = b"tls13 " + label.encode()
            info = length.to_bytes(2, "big") + bytes([len(full)]) + full + b"\x00"
            assert hkdf_expand_label(secret, label, b"", length) == HKDFExpand(
                hashes.SHA256(), length, info
            ).derive(secret)


class TestHkdf:
    def test_rfc5869_case_2(self):
        """A.2: 80-byte salt (hashed first as an HMAC key), three blocks out."""
        prk = hkdf_extract(bytes(range(0x60, 0xB0)), bytes(range(0x50)))
        assert prk.hex() == (
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244"
        )
        assert hkdf_expand(prk, bytes(range(0xB0, 0x100)), 82).hex() == (
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87"
        )

    def test_rfc5869_case_3(self):
        """A.3: zero-length salt and info."""
        prk = hkdf_extract(b"", b"\x0b" * 22)
        assert prk.hex() == (
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
        )
        assert hkdf_expand(prk, b"", 42).hex() == (
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )

    def test_rfc5869_case_1(self):
        ikm = b"\x0b" * 22
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        prk = hkdf_extract(salt, ikm)
        assert prk.hex() == (
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, info, 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_expand_rejects_excessive_length(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"\x00" * 32, b"", 256 * 32)

    def test_expand_label_structure(self):
        # Same secret/label/length must be deterministic and label-sensitive.
        secret = b"\x42" * 32
        a = hkdf_expand_label(secret, "quic key", b"", 16)
        b = hkdf_expand_label(secret, "quic iv", b"", 16)
        assert a != b
        assert len(a) == 16


class TestInitialKeys:
    DCID = bytes.fromhex("8394c8f03e515708")

    def test_rfc9001_appendix_a1_client(self):
        keys = derive_initial_keys(0x00000001, self.DCID)
        assert keys.client.key.hex() == "1f369613dd76d5467730efcbe3b1a22d"
        assert keys.client.iv.hex() == "fa044b2f42a3fd3b46fb255c"
        assert keys.client.hp.hex() == "9f50449e04a0e810283a1e9933adedd2"

    def test_rfc9001_appendix_a1_server(self):
        keys = derive_initial_keys(0x00000001, self.DCID)
        assert keys.server.key.hex() == "cf3a5331653c364c88f0f379b6067e37"
        assert keys.server.iv.hex() == "0ac1493ca1905853b0bba03e"
        assert keys.server.hp.hex() == "c206b8d9b9f0f37644430b490eeaa314"

    def test_rfc9369_appendix_a1(self):
        """QUIC v2 changes the salt and the key/iv/hp labels ("quicv2 …")."""
        keys = derive_initial_keys(0x6B3343CF, self.DCID)
        assert hkdf_expand_label(keys.initial_secret, "client in", b"", 32).hex() == (
            "14ec9d6eb9fd7af83bf5a668bc17a7e283766aade7ecd0891f70f9ff7f4bf47b"
        )
        assert keys.client.key.hex() == "8b1a0bc121284290a29e0971b5cd045d"
        assert keys.client.iv.hex() == "91f73e2351d8fa91660e909f"
        assert keys.client.hp.hex() == "45b95e15235d6f45a6b19cbcb0294ba9"
        assert keys.server.key.hex() == "82db637861d55e1d011f19ea71d5d2a7"
        assert keys.server.iv.hex() == "dd13c276499c0249d3310652"
        assert keys.server.hp.hex() == "edf6d05c83121201b436e16877593c3a"

    @pytest.mark.parametrize("first", ["client", "server"])
    def test_rfc9001_appendix_a1_in_either_access_order(self, first):
        keys = derive_initial_keys(1, self.DCID)
        getattr(keys, first)
        assert keys.client.key.hex() == "1f369613dd76d5467730efcbe3b1a22d"
        assert keys.server.key.hex() == "cf3a5331653c364c88f0f379b6067e37"

    def test_each_direction_expanded_at_most_once(self, monkeypatch):
        """1 MAC for the Extract, +4 per direction, none on re-reads."""
        extracts, hashes = [], []
        real_digest = HmacSha256.digest

        def keyed_digest(self, message):  # the per-salt extractor
            extracts.append(message)
            return real_digest(self, message)

        def counted_sha256(data):
            hashes.append(data)
            return sha256(data)

        def macs():
            # The schedule writes each HMAC out as its inner and outer hash.
            assert len(hashes) % 2 == 0
            return len(extracts) + len(hashes) // 2

        monkeypatch.setattr(HmacSha256, "digest", keyed_digest)
        monkeypatch.setattr(initial, "sha256", counted_sha256)
        keys = derive_initial_keys(1, self.DCID)
        assert macs() == 1  # HKDF-Extract only
        client = keys.client
        assert macs() == 5
        assert keys.client is client and keys.for_sender(False) is client
        assert macs() == 5
        server = keys.server
        assert macs() == 9
        assert keys.server is server and keys.for_sender(True) is server
        assert macs() == 9

    @settings(max_examples=300, deadline=None)
    @given(
        version=st.sampled_from(_SCHEDULE_VERSIONS),
        dcid=st.binary(max_size=20),
    )
    def test_schedule_equals_the_expand_label_chain(self, version, dcid):
        keys = derive_initial_keys(version, dcid)
        expected = _reference_initial_keys(version, dcid)
        for side in ("client", "server"):
            direction = getattr(keys, side)
            assert (direction.key, direction.iv, direction.hp) == expected[side]

    @pytest.mark.parametrize(
        "version, is_server, expected",
        [
            (1, False, ("1f369613dd76d5467730efcbe3b1a22d",
                        "fa044b2f42a3fd3b46fb255c",
                        "9f50449e04a0e810283a1e9933adedd2")),
            (1, True, ("cf3a5331653c364c88f0f379b6067e37",
                       "0ac1493ca1905853b0bba03e",
                       "c206b8d9b9f0f37644430b490eeaa314")),
            (0x6B3343CF, False, ("8b1a0bc121284290a29e0971b5cd045d",
                                 "91f73e2351d8fa91660e909f",
                                 "45b95e15235d6f45a6b19cbcb0294ba9")),
            (0x6B3343CF, True, ("82db637861d55e1d011f19ea71d5d2a7",
                                "dd13c276499c0249d3310652",
                                "edf6d05c83121201b436e16877593c3a")),
        ],
        ids=["rfc9001-client", "rfc9001-server", "rfc9369-client", "rfc9369-server"],
    )
    def test_one_direction_against_the_appendix_vectors(self, version, is_server, expected):
        """RFC 9001 A.1 and RFC 9369 A.1, one direction with no key object."""
        assert tuple(
            part.hex() for part in initial_direction(version, self.DCID, is_server)
        ) == expected

    def test_one_direction_costs_the_extract_and_its_four_expands(self, monkeypatch):
        extracts, hashes = [], []
        real_digest = HmacSha256.digest

        def keyed_digest(self, message):
            extracts.append(message)
            return real_digest(self, message)

        def counted_sha256(data):
            hashes.append(data)
            return sha256(data)

        monkeypatch.setattr(HmacSha256, "digest", keyed_digest)
        monkeypatch.setattr(initial, "sha256", counted_sha256)
        initial_direction(1, self.DCID)
        assert len(extracts) + len(hashes) // 2 == 5

    @settings(max_examples=300, deadline=None)
    @given(
        version=st.sampled_from(_SCHEDULE_VERSIONS),
        dcid=st.binary(max_size=20),
    )
    def test_one_direction_equals_the_schedule_object(self, version, dcid):
        """``initial_direction`` gives each direction ``InitialKeys`` expands."""
        keys = derive_initial_keys(version, dcid)
        for is_server, direction in ((False, keys.client), (True, keys.server)):
            assert initial_direction(version, dcid, is_server) == (
                direction.key, direction.iv, direction.hp
            )

    @settings(max_examples=100, deadline=None)
    @given(
        version=st.sampled_from(_SCHEDULE_VERSIONS),
        dcid=st.binary(max_size=20),
    )
    def test_schedule_against_cryptography(self, version, dcid):
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.kdf.hkdf import HKDF, HKDFExpand

        def info(label, length):
            full = b"tls13 " + label.encode()
            return length.to_bytes(2, "big") + bytes([len(full)]) + full + b"\x00"

        prefix = "quicv2" if version == QUIC_V2.value else "quic"
        keys = derive_initial_keys(version, dcid)
        for side in ("client", "server"):
            secret = HKDF(
                hashes.SHA256(), 32, initial_salt(version), info(side + " in", 32)
            ).derive(dcid)
            direction = getattr(keys, side)
            for name, length in (("key", 16), ("iv", 12), ("hp", 16)):
                judge = HKDFExpand(hashes.SHA256(), length, info(prefix + " " + name, length))
                assert getattr(direction, name) == judge.derive(secret)

    def test_nonce_xor(self):
        keys = derive_initial_keys(1, self.DCID)
        nonce0 = keys.client.nonce(0)
        nonce1 = keys.client.nonce(1)
        assert nonce0 == keys.client.iv
        assert nonce1[-1] == keys.client.iv[-1] ^ 1

    def test_salt_selection(self):
        assert initial_salt(0x00000001) != initial_salt(0xFF00001D)
        # mvfst falls back to the draft-29 salt.
        assert initial_salt(0xFACEB002) == initial_salt(0xFF00001D)
        # Unknown versions fall back to the v1 salt.
        assert initial_salt(0x12345678) == initial_salt(0x00000001)
        assert initial_salt(0xFF00007F) == initial_salt(0x00000001)
        assert initial_salt(0xFF000016) == initial_salt(0x00000001)  # draft-22
        assert initial_salt(0xFF000021) == initial_salt(0x00000001)  # draft-33

    def test_draft_29_appendix_a1(self):
        """draft-ietf-quic-tls-29 Appendix A.1, same DCID as RFC 9001's."""
        keys = derive_initial_keys(0xFF00001D, self.DCID)
        assert keys.client.key.hex() == "175257a31eb09dea9366d8bb79ad80ba"
        assert keys.client.iv.hex() == "6b26114b9cba2b63a9e8dd4f"
        assert keys.server.key.hex() == "149d0b1662ab871fbe63c49b5e655a5d"
        assert keys.server.iv.hex() == "bab2b12a4c76016ace47856d"
        assert keys.server.hp.hex() == "c0c499a65a60024a18a250974ea01dfa"

    @pytest.mark.parametrize(
        "drafts, sealed_like",
        [((30, 31, 32), 29), ((23, 24, 25, 26), 27)],
        ids=["drafts-30-32", "drafts-23-26"],
    )
    def test_unlisted_drafts_take_their_range_salt(self, drafts, sealed_like):
        expected = derive_initial_keys(0xFF000000 | sealed_like, self.DCID)
        for draft in drafts:
            keys = derive_initial_keys(0xFF000000 | draft, self.DCID)
            assert keys == expected
            assert keys.client == expected.client and keys.server == expected.server

    def test_different_dcid_different_keys(self):
        a = derive_initial_keys(1, b"\x01" * 8)
        b = derive_initial_keys(1, b"\x02" * 8)
        assert a.client.key != b.client.key
