"""From-scratch cryptography for QUIC Initial packet protection.

Implements AES-128 (encrypt-only, which suffices for CTR/GCM and header
protection), AES-128-GCM, HKDF-SHA256, and the RFC 9001 Initial secret
derivation plus header/packet protection.  Verified against the RFC 9001
Appendix-A test vectors in the test suite.  Each connection derives its
Initial keys afresh; only AES and GHASH schedules are memoized.

Because pure-Python AES-GCM costs milliseconds per packet, the simulator
defaults to :class:`repro.quic.crypto.suites.FastProtection`, a stand-in
suite (SHA-256 keystream + truncated HMAC tag) that exercises the identical
protect/unprotect code paths at native-hash speed.  The real suite is
:class:`repro.quic.crypto.suites.Rfc9001Protection`.
"""

from repro.quic.crypto.aes import AES128
from repro.quic.crypto.gcm import AesGcm, AuthenticationError
from repro.quic.crypto.hkdf import hkdf_expand_label, hkdf_extract
from repro.quic.crypto.initial import InitialKeys, derive_initial_keys
from repro.quic.crypto.suites import (
    FastProtection,
    PacketProtection,
    Rfc9001Protection,
    ProtectionError,
)

__all__ = [
    "AES128",
    "AesGcm",
    "AuthenticationError",
    "hkdf_extract",
    "hkdf_expand_label",
    "InitialKeys",
    "derive_initial_keys",
    "PacketProtection",
    "FastProtection",
    "Rfc9001Protection",
    "ProtectionError",
]
