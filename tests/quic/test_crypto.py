"""Cryptographic primitives against published test vectors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.crypto.aes import AES128, SBOX
from repro.quic.crypto.gcm import AesGcm, AuthenticationError, _gf_mult
from repro.quic.crypto.hkdf import hkdf_expand, hkdf_expand_label, hkdf_extract
from repro.quic.crypto import initial
from repro.quic.crypto.initial import derive_initial_keys, initial_salt


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


class TestHkdf:
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
        """5 HMACs for a one-sided user, 9 for both, none on re-reads."""
        calls = []

        def counting_digest(key, msg, digest):
            calls.append(msg)
            return real_digest(key, msg, digest)

        real_digest = initial.hmac.digest
        monkeypatch.setattr(initial.hmac, "digest", counting_digest)
        keys = derive_initial_keys(1, self.DCID)
        assert len(calls) == 1  # HKDF-Extract only
        client = keys.client
        assert len(calls) == 5
        assert keys.client is client and keys.for_sender(False) is client
        assert len(calls) == 5
        server = keys.server
        assert len(calls) == 9
        assert keys.server is server and keys.for_sender(True) is server
        assert len(calls) == 9

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

    def test_different_dcid_different_keys(self):
        a = derive_initial_keys(1, b"\x01" * 8)
        b = derive_initial_keys(1, b"\x02" * 8)
        assert a.client.key != b.client.key
