"""Binary radix (Patricia-style) trie for longest-prefix matching.

The same structure routers use for forwarding tables; here it backs the
IP-to-AS database, the geolocation database, and the simulator's routing
table.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

from repro.netstack.addr import IPV4_MAX, Prefix

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


class RadixTree(Generic[V]):
    """Maps CIDR prefixes to values; lookup returns the longest match."""

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value at ``prefix``."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def _longest(self, address: int) -> tuple[int, Optional[_Node[V]]]:
        """(prefix length, node) of the longest match; ``(-1, None)`` if none."""
        node = self._root
        best, length = (node, 0) if node.has_value else (None, -1)
        for depth in range(32):
            node = node.children[(address >> (31 - depth)) & 1]
            if node is None:
                break
            if node.has_value:
                best, length = node, depth + 1
        return length, best

    def lookup(self, address: int) -> Optional[V]:
        """Longest-prefix match for ``address``; None if nothing matches."""
        node = self._longest(address)[1]
        return None if node is None else node.value

    def lookup_with_prefix(self, address: int) -> Optional[tuple[Prefix, V]]:
        """Longest-prefix match returning the matched prefix as well."""
        length, node = self._longest(address)
        if node is None:
            return None
        mask = ((1 << length) - 1) << (32 - length) if length else 0
        return Prefix(address & mask, length), node.value  # type: ignore[return-value]

    def flatten(self) -> tuple[list[int], list[Optional[V]]]:
        """The trie as disjoint address intervals, for :func:`bisect.bisect_right`.

        Returns ``(starts, values)``: ``starts`` ascends from 0 and
        ``values[i]`` is what :meth:`lookup` answers for every address in
        ``starts[i] .. starts[i + 1] - 1`` (the last interval runs to the
        top of the address space), so
        ``values[bisect_right(starts, address) - 1]`` *is* the
        longest-prefix match.  The answer can only change at the first
        address of a prefix or just past its last one, so those are the
        boundaries and each interval's value is asked of the trie itself.
        A snapshot: prefixes inserted later are not in it.
        """
        bounds = {0}
        for prefix, _value in self.items():
            bounds.add(prefix.first)
            bounds.add(prefix.last + 1)
        starts = sorted(bound for bound in bounds if bound <= IPV4_MAX)
        return starts, [self.lookup(start) for start in starts]

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """Yield all (prefix, value) pairs in preorder."""

        def walk(node: _Node[V], network: int, depth: int):
            if node.has_value:
                yield Prefix(network, depth), node.value
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    yield from walk(child, network | (bit << (31 - depth)), depth + 1)

        yield from walk(self._root, 0, 0)
