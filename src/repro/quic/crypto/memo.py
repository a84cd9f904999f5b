"""Deterministic memoization of the AES and GHASH key schedules.

The heavy ``rfc9001`` suite re-keys far more often than its keys change:
a server seals every flight of a handshake ladder under one Initial key,
and a dissector re-opens under the key the engine just used.  AES round
keys and GHASH Shoup tables are pure functions of a 16-byte key, so they
sit behind module-level :class:`~repro.lru.LruCache` instances shared by
every suite instance in the process:

* ``cached_aes(key)`` — an :class:`AES128` with its round keys expanded
  (header protection, and the GCM block cipher).
* ``cached_gcm(key)`` — an :class:`AesGcm` with its GHASH byte tables
  built (the expensive one: 16×256 field multiplications per key).

The Initial key schedule itself is not memoized: almost every DCID is
derived once, so :func:`~repro.quic.crypto.initial.derive_initial_keys`
is made cheap instead.  The cached objects are safe to share:
``AES128`` / ``AesGcm`` carry no per-call state.
"""

from __future__ import annotations

from repro.lru import LruCache
from repro.quic.crypto.aes import AES128
from repro.quic.crypto.gcm import AesGcm

#: Key schedules are heavier per entry (GHASH tables ≈ 4096 big ints);
#: Initial traffic derives server/client keys per DCID, so the working
#: set matches the connection cache.
_AES_CACHE = LruCache(1024)
_GCM_CACHE = LruCache(1024)


def cached_aes(key: bytes) -> AES128:
    """Memoized AES-128 key-schedule expansion per 16-byte key."""
    return _AES_CACHE.get_or_build(key, AES128, key)


def cached_gcm(key: bytes) -> AesGcm:
    """Memoized AES-GCM instance (round keys + GHASH tables) per key."""
    return _GCM_CACHE.get_or_build(key, AesGcm, key)


def clear_crypto_memos() -> None:
    """Drop all cached schedules (test isolation)."""
    _AES_CACHE.clear()
    _GCM_CACHE.clear()


def memo_stats() -> dict:
    """Hit/miss counters of the two schedule memos."""
    return {
        "aes": {"hits": _AES_CACHE.hits, "misses": _AES_CACHE.misses},
        "gcm": {"hits": _GCM_CACHE.hits, "misses": _GCM_CACHE.misses},
    }
