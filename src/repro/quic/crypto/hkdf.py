"""HMAC-SHA256 (RFC 2104), HKDF-SHA256 (RFC 5869) and the TLS 1.3
HKDF-Expand-Label (RFC 8446 §7.1).

QUIC derives its Initial keys from the client's Destination Connection ID
through HKDF-Extract with a version-specific salt followed by
HKDF-Expand-Label with the labels "client in" / "server in" / "quic key" /
"quic iv" / "quic hp" (RFC 9001 §5).

Every MAC under ``quic/crypto`` is RFC 2104 over ``hashlib.sha256``:
:class:`HmacSha256` hashes a key's pads once and copies the states per
message, :func:`hmac_sha256` is for a key used once, and the Initial
schedule writes its MACs out over :data:`IPAD` / :data:`OPAD`.  Each costs
its SHA-256 blocks; ``hmac.digest`` re-derives the pads and looks the
digest up by name on every call, a third of a short MAC's time.
"""

from __future__ import annotations

from functools import lru_cache
from hashlib import sha256

_HASH_LEN = 32  # SHA-256
_BLOCK_LEN = 64
#: ``bytes.translate`` tables: ``key.translate(IPAD)`` is the key XOR 0x36.
IPAD = bytes(x ^ 0x36 for x in range(256))
OPAD = bytes(x ^ 0x5C for x in range(256))


def hmac_sha256(key: bytes, *message: bytes) -> bytes:
    """HMAC-SHA256 under a key used this once.

    The message is the concatenation of the ``message`` parts, joined
    once behind the inner pad: a caller with a message in pieces (a
    nonce, a header, a ciphertext) passes them as they are.
    """
    if len(key) > _BLOCK_LEN:
        key = sha256(key).digest()
    key = key.ljust(_BLOCK_LEN, b"\x00")
    inner = sha256(b"".join((key.translate(IPAD), *message))).digest()
    return sha256(key.translate(OPAD) + inner).digest()


class HmacSha256:
    """HMAC-SHA256 keyed once: the pads are hashed here, copied per MAC."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        # As in hmac_sha256: a shared helper would be a call per derivation.
        if len(key) > _BLOCK_LEN:
            key = sha256(key).digest()
        key = key.ljust(_BLOCK_LEN, b"\x00")
        self._inner = sha256(key.translate(IPAD))
        self._outer = sha256(key.translate(OPAD))

    def digest(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


#: HKDF-Extract's keyed state per salt: QUIC has five Initial salts.
_extractor = lru_cache(maxsize=8)(HmacSha256)


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """HKDF-Extract(salt, IKM) with SHA-256 (HMAC zero-pads an empty salt)."""
    return _extractor(salt).digest(ikm)


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand(PRK, info, L) with SHA-256."""
    if length > 255 * _HASH_LEN:
        raise ValueError("HKDF-Expand length too large: %d" % length)
    keyed = HmacSha256(prk)
    blocks = []
    block = b""
    counter = 1
    while len(blocks) * _HASH_LEN < length:
        block = keyed.digest(block + info + bytes([counter]))
        blocks.append(block)
        counter += 1
    return b"".join(blocks)[:length]


def expand_label_info(label: str, context: bytes, length: int) -> bytes:
    """The ``HkdfLabel`` structure HKDF-Expand-Label passes as ``info``.

    It depends only on the label, context and output length, so callers
    that expand the same labels for every connection build it once.
    """
    full_label = b"tls13 " + label.encode("ascii")
    return (
        length.to_bytes(2, "big")
        + bytes([len(full_label)])
        + full_label
        + bytes([len(context)])
        + context
    )


def hkdf_expand_label(secret: bytes, label: str, context: bytes, length: int) -> bytes:
    """TLS 1.3 HKDF-Expand-Label: prefixes the label with "tls13 "."""
    return hkdf_expand(secret, expand_label_info(label, context, length), length)
