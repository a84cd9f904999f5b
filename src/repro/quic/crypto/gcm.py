"""AES-128-GCM authenticated encryption (NIST SP 800-38D), from scratch.

GHASH multiplication in GF(2^128) uses per-byte-position lookup tables built
once per key, which keeps per-block cost at 16 table lookups + XORs instead
of a 128-iteration shift-and-reduce loop.
"""

from __future__ import annotations

from repro.quic.crypto.aes import AES128


class AuthenticationError(ValueError):
    """Raised when a GCM tag fails verification."""


# The GCM reduction constant R = 0xe1 followed by 120 zero bits, as an
# integer in the big-endian block representation GCM uses.
_R = 0xE1 << 120


def _gf_mult(x: int, y: int) -> int:
    """Multiply two GF(2^128) elements in GCM's bit-reflected representation.

    Blocks are interpreted as big-endian 128-bit integers; the integer MSB is
    GCM bit 0.  Reference shift-and-reduce algorithm, used only to seed the
    lookup tables.
    """
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _mul_by_x8(v: int) -> int:
    """Multiply a field element by x^8 (one byte shift) with reduction."""
    for _ in range(8):
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return v


class _Ghash:
    """GHASH with Shoup-style byte tables for a fixed hash subkey H."""

    def __init__(self, h_bytes: bytes) -> None:
        h = int.from_bytes(h_bytes, "big")
        # tables[j][b] = (b placed at big-endian byte position j) * H.
        tables: list[list[int]] = []
        first = [_gf_mult(b << 120, h) for b in range(256)]
        tables.append(first)
        for _ in range(15):
            prev = tables[-1]
            tables.append([_mul_by_x8(v) for v in prev])
        self._tables = tables

    def digest(self, aad: bytes, ciphertext: bytes) -> bytes:
        """Compute GHASH(H, aad, ciphertext) with standard length block."""
        y = 0
        y = self._absorb(y, aad)
        y = self._absorb(y, ciphertext)
        length_block = (len(aad) * 8).to_bytes(8, "big") + (
            len(ciphertext) * 8
        ).to_bytes(8, "big")
        y = self._mult(y ^ int.from_bytes(length_block, "big"))
        return y.to_bytes(16, "big")

    def _absorb(self, y: int, data: bytes) -> int:
        tables = self._tables
        for offset in range(0, len(data), 16):
            block = data[offset : offset + 16]
            if len(block) < 16:
                block = block + b"\x00" * (16 - len(block))
            y ^= int.from_bytes(block, "big")
            y = self._mult_tables(y, tables)
        return y

    def _mult(self, y: int) -> int:
        return self._mult_tables(y, self._tables)

    @staticmethod
    def _mult_tables(y: int, tables: list[list[int]]) -> int:
        z = 0
        yb = y.to_bytes(16, "big")
        for j in range(16):
            z ^= tables[j][yb[j]]
        return z


class AesGcm:
    """AES-128-GCM with 12-byte nonces and 16-byte tags."""

    TAG_LENGTH = 16

    def __init__(self, key: bytes) -> None:
        self._aes = AES128(key)
        self._ghash = _Ghash(self._aes.encrypt_block(b"\x00" * 16))

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        """Encrypt and authenticate; returns ciphertext || tag."""
        if len(nonce) != 12:
            raise ValueError("GCM nonce must be 12 bytes")
        keystream = self._aes.ctr_keystream(nonce, len(plaintext), initial_counter=2)
        ciphertext = bytes(p ^ k for p, k in zip(plaintext, keystream))
        tag = self._tag(nonce, aad, ciphertext)
        return ciphertext + tag

    def verify(self, nonce: bytes, sealed: bytes, aad: bytes) -> bool:
        """Whether ``sealed``'s tag authenticates it: :meth:`open`'s check
        alone, with no CTR pass over the ciphertext."""
        if len(sealed) < self.TAG_LENGTH:
            return False
        ciphertext, tag = sealed[: -self.TAG_LENGTH], sealed[-self.TAG_LENGTH :]
        return _constant_time_eq(tag, self._tag(nonce, aad, ciphertext))

    def open(self, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        """Verify the tag and decrypt; raises AuthenticationError on mismatch."""
        if not self.verify(nonce, sealed, aad):
            raise AuthenticationError("GCM tag mismatch")
        ciphertext = sealed[: -self.TAG_LENGTH]
        keystream = self._aes.ctr_keystream(nonce, len(ciphertext), initial_counter=2)
        return bytes(c ^ k for c, k in zip(ciphertext, keystream))

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        ghash = self._ghash.digest(aad, ciphertext)
        ek0 = self._aes.encrypt_block(nonce + b"\x00\x00\x00\x01")
        return bytes(g ^ e for g, e in zip(ghash, ek0))


def _constant_time_eq(a: bytes, b: bytes) -> bool:
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0
