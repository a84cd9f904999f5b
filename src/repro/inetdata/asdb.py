"""IP-to-AS database with longest-prefix matching.

Stands in for CAIDA's prefix-to-AS files.  The scenario builder registers
hypergiant prefixes, ISP/eyeball prefixes, research-scanner prefixes, and
the telescope itself; analyses then map backscatter source addresses to
origin networks exactly like the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.inetdata.hypergiants import HYPERGIANTS, Hypergiant
from repro.inetdata.radix import RadixTree
from repro.netstack.addr import Prefix, format_ip

#: Eyeball/ISP networks hosting off-net caches, bots, and other servers.
ISP_NETWORKS: tuple[tuple[int, str, str], ...] = (
    (7018, "ISP-US-East", "24.48.0.0/16"),
    (209, "ISP-US-West", "65.100.0.0/16"),
    (3320, "ISP-DE", "87.128.0.0/16"),
    (3215, "ISP-FR", "90.0.0.0/16"),
    (2856, "ISP-GB", "81.128.0.0/16"),
    (9121, "ISP-TR", "85.96.0.0/16"),
    (4766, "ISP-KR", "112.160.0.0/16"),
    (9829, "ISP-IN", "117.192.0.0/16"),
    (4134, "ISP-CN", "58.32.0.0/16"),
    (7738, "ISP-BR", "189.32.0.0/16"),
    (36992, "ISP-EG", "41.32.0.0/16"),
    (1221, "ISP-AU", "139.130.0.0/16"),
)


@dataclass(frozen=True)
class AsEntry:
    """One origin AS."""

    asn: int
    name: str
    #: Category: hypergiant | isp | research | telescope | other
    category: str = "other"


def _origin_label(entry: AsEntry | None) -> str:
    if entry is not None and entry.name in HYPERGIANTS:
        return entry.name
    return "Remaining"


class AsDatabase:
    """Prefix → origin-AS mapping."""

    def __init__(self) -> None:
        self._trie: RadixTree[AsEntry] = RadixTree()
        self._entries: dict[int, AsEntry] = {}

    def register(self, prefix: Prefix | str, entry: AsEntry) -> None:
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        self._trie.insert(prefix, entry)
        self._entries.setdefault(entry.asn, entry)

    def register_hypergiant(self, hypergiant: Hypergiant) -> None:
        entry = AsEntry(hypergiant.asn, hypergiant.name, category="hypergiant")
        for prefix in hypergiant.prefixes:
            self.register(prefix, entry)

    def lookup(self, address: int) -> AsEntry | None:
        """Longest-prefix origin AS for ``address``."""
        return self._trie.lookup(address)

    def origin_name(self, address: int) -> str:
        """Paper-style origin label: hypergiant name or "Remaining"."""
        return _origin_label(self.lookup(address))

    def origin_intervals(self) -> tuple[list[int], list[str]]:
        """:meth:`origin_name` for the whole address space at once.

        The trie flattened (:meth:`RadixTree.flatten`) into ``(starts,
        labels)``; ``labels[bisect_right(starts, address) - 1]`` equals
        ``origin_name(address)`` for the prefixes registered so far.
        """
        starts, entries = self._trie.flatten()
        return starts, [_origin_label(entry) for entry in entries]

    def asn_of(self, address: int) -> int | None:
        entry = self.lookup(address)
        return entry.asn if entry else None

    def entries(self) -> list[AsEntry]:
        return sorted(self._entries.values(), key=lambda e: e.asn)

    def prefixes_of(self, asn: int) -> list[Prefix]:
        return [p for p, e in self._trie.items() if e.asn == asn]

    @classmethod
    def with_hypergiants(cls) -> "AsDatabase":
        """A database pre-seeded with the three studied hypergiants."""
        db = cls()
        for hg in HYPERGIANTS.values():
            db.register_hypergiant(hg)
        return db

    def describe(self, address: int) -> str:
        entry = self.lookup(address)
        if entry is None:
            return "%s (unrouted)" % format_ip(address)
        return "%s (AS%d %s)" % (format_ip(address), entry.asn, entry.name)
