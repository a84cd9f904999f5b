"""Write-side hot-path switch and the deterministic LRU behind it.

The template-and-memo refactor (crypto memoization, packet/header
templates, the engine's per-connection flight layouts) is
byte-identical to the rebuild-everything path it replaced — every
cached object is a pure function of its key.  The
rebuild paths are kept permanently as the *reference implementation*:
``benchmarks/bench_hotpath.py`` flips this switch to measure the
speedup and to re-assert pcap byte-parity against the non-template
path, and the parity tests under ``tests/`` do the same per packet.

``enabled`` is a module-level bool read once per packet; flipping it is
process-local (worker processes inherit the default, which is fine —
both paths produce identical bytes).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

#: Fast paths are on by default; the rebuild reference paths exist for
#: parity benching, not as a supported production mode.
enabled = True

_T = TypeVar("_T")
_MISSING = object()


def set_enabled(flag: bool) -> None:
    """Switch every template/memo fast path on or off process-wide."""
    global enabled
    enabled = bool(flag)


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block on the rebuild reference paths (bench/parity use)."""
    global enabled
    previous = enabled
    enabled = False
    try:
        yield
    finally:
        enabled = previous


class LruCache:
    """Small deterministic LRU: an ``OrderedDict``, oldest-out.

    Eviction order is a pure function of the get/put sequence (no
    clocks, no hashing randomness — keys are bytes/int tuples), so two
    processes replaying the same packet stream hold identical caches.
    Hit/miss counters feed the hot-path bench.  Eviction is
    ``popitem(last=False)``: the Initial-keys memo misses on every fresh
    DCID, and deleting the front of a plain ``dict`` makes each later
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

    def get_or_build(self, key, factory: Callable[[], _T]) -> _T:
        """Return the cached value for ``key``, building it on a miss."""
        data = self._data
        value = data.get(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            data.move_to_end(key)  # most recently used sits last
            return value
        self.misses += 1
        value = factory()
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
        return value

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0
