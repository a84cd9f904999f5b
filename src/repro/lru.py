"""A small deterministic LRU cache.

Every cached object on the write side — crypto schedules
(:mod:`repro.quic.crypto.memo`), header templates
(:mod:`repro.quic.packet`), client Initial layouts
(:mod:`repro.workloads.clients`) — is a pure function of its key, so a
hit and a rebuild give the same bytes and the cache only bounds memory.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, TypeVar

_T = TypeVar("_T")
_MISSING = object()


class LruCache:
    """Small deterministic LRU: an ``OrderedDict``, oldest-out.

    Eviction order is a pure function of the get/put sequence (no
    clocks, no hashing randomness — keys are bytes/int tuples), so two
    processes replaying the same packet stream hold identical caches.
    Hit/miss counters feed ``memo_stats``.  Eviction is
    ``popitem(last=False)``: a memo that misses on every fresh key would
    otherwise delete the front of a plain ``dict``, and each later
    ``next(iter(...))`` walk the dead slots left behind.
    """

    __slots__ = ("maxsize", "hits", "misses", "_data")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("LruCache maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get_or_build(self, key, build: Callable[..., _T], *args: Any) -> _T:
        """Return the cached value for ``key``; on a miss, ``build(*args)``.

        The builder and its arguments are passed as they are, so a hit —
        the common case — creates no closure to throw away.
        """
        data = self._data
        value = data.get(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            data.move_to_end(key)  # most recently used sits last
            return value
        self.misses += 1
        value = build(*args)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
        return value

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0
