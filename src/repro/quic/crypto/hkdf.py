"""HKDF-SHA256 (RFC 5869) and the TLS 1.3 HKDF-Expand-Label (RFC 8446 §7.1).

QUIC derives its Initial keys from the client's Destination Connection ID
through HKDF-Extract with a version-specific salt followed by
HKDF-Expand-Label with the labels "client in" / "server in" / "quic key" /
"quic iv" / "quic hp" (RFC 9001 §5).

Every HMAC here is a one-shot :func:`hmac.digest` — a single C call, with
no ``HMAC`` object built per invocation.
"""

from __future__ import annotations

import hmac

_HASH_LEN = 32  # SHA-256


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """HKDF-Extract(salt, IKM) with SHA-256."""
    return hmac.digest(salt or b"\x00" * _HASH_LEN, ikm, "sha256")


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand(PRK, info, L) with SHA-256."""
    if length > 255 * _HASH_LEN:
        raise ValueError("HKDF-Expand length too large: %d" % length)
    blocks = []
    block = b""
    counter = 1
    while len(blocks) * _HASH_LEN < length:
        block = hmac.digest(prk, block + info + bytes([counter]), "sha256")
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
