"""Deterministic memoization of the pure crypto derivations.

Key material is reused far more often than it is derived: a server
seals every flight of a handshake ladder under one Initial secret, a
scanner re-presents its DCID, and a dissector re-derives the schedule
the engine just used (``sim.quic.crypto.memo.hit_ratio`` in
``BENCHMARK.json`` is the measured reuse).  HKDF, AES round keys and
GHASH Shoup tables are pure functions of small byte keys, so they sit
behind module-level :class:`~repro.lru.LruCache` instances shared by
every suite instance in the process:

* ``cached_initial_keys(version, dcid)`` — the RFC 9001 Initial key
  schedule.  The cached :class:`InitialKeys` holds the HKDF-Extract
  output and expands each direction (4 Expand-Labels) the first time it
  is read, so a hit also returns whatever directions earlier users of
  the same ``(version, DCID)`` already paid for.
* ``cached_aes(key)`` — an :class:`AES128` with its round keys expanded
  (header protection, and the GCM block cipher).
* ``cached_gcm(key)`` — an :class:`AesGcm` with its GHASH byte tables
  built (the expensive one: 16×256 field multiplications per key).

The cached objects are safe to share: an ``InitialKeys`` is written only
to fill its two direction slots (pure functions of its secret and labels),
and ``AES128``/``AesGcm`` carry no per-call state.
"""

from __future__ import annotations

from repro.lru import LruCache
from repro.quic.crypto.aes import AES128
from repro.quic.crypto.gcm import AesGcm
from repro.quic.crypto.initial import InitialKeys, derive_initial_keys

#: A telescope month sees a long tail of one-shot DCIDs; 4096 entries
#: comfortably covers the working set of live connections plus scanners.
_INITIAL_KEYS_CACHE = LruCache(4096)
#: Key schedules are heavier per entry (GHASH tables ≈ 4096 big ints);
#: Initial traffic derives server/client keys per DCID, so the working
#: set matches the connection cache.
_AES_CACHE = LruCache(1024)
_GCM_CACHE = LruCache(1024)


def cached_initial_keys(version: int, dcid: bytes) -> InitialKeys:
    """Memoized :func:`derive_initial_keys` per ``(version, DCID)``."""
    return _INITIAL_KEYS_CACHE.get_or_build(
        (version, dcid), lambda: derive_initial_keys(version, dcid)
    )


def cached_aes(key: bytes) -> AES128:
    """Memoized AES-128 key-schedule expansion per 16-byte key."""
    return _AES_CACHE.get_or_build(key, lambda: AES128(key))


def cached_gcm(key: bytes) -> AesGcm:
    """Memoized AES-GCM instance (round keys + GHASH tables) per key."""
    return _GCM_CACHE.get_or_build(key, lambda: AesGcm(key))


def clear_crypto_memos() -> None:
    """Drop all cached schedules (test isolation)."""
    _INITIAL_KEYS_CACHE.clear()
    _AES_CACHE.clear()
    _GCM_CACHE.clear()


def memo_stats() -> dict:
    """Hit/miss counters (the benchmark's ``memo.hit_ratio``)."""
    return {
        "initial_keys": {
            "hits": _INITIAL_KEYS_CACHE.hits,
            "misses": _INITIAL_KEYS_CACHE.misses,
        },
        "aes": {"hits": _AES_CACHE.hits, "misses": _AES_CACHE.misses},
        "gcm": {"hits": _GCM_CACHE.hits, "misses": _GCM_CACHE.misses},
    }
