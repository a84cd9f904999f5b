"""Registry of acknowledged research scanners (stand-in for Collins' list).

The paper removes traffic from documented scan projects before analyzing
QUIC versions: acknowledged scanners advertise themselves, scan the whole
telescope, and often use reserved version numbers to force version
negotiation — all of which would bias the "what do real clients run"
question.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.inetdata.radix import RadixTree
from repro.netstack.addr import Prefix

#: Research scanner source networks (stand-in for the acknowledged list).
RESEARCH_NETWORKS: tuple[tuple[str, str], ...] = (
    ("141.212.0.0/16", "scanner-umich"),
    ("198.108.66.0/24", "scanner-censys"),
    ("74.120.14.0/24", "scanner-shadowserver"),
)


@dataclass(frozen=True)
class ScannerEntry:
    name: str
    organization: str = ""


class AcknowledgedScanners:
    """Prefix list of documented scanning projects."""

    def __init__(self) -> None:
        self._trie: RadixTree[ScannerEntry] = RadixTree()
        self._names: set[str] = set()

    def register(self, prefix: Prefix | str, name: str, organization: str = "") -> None:
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        self._trie.insert(prefix, ScannerEntry(name=name, organization=organization))
        self._names.add(name)

    def lookup(self, address: int) -> ScannerEntry | None:
        return self._trie.lookup(address)

    def is_acknowledged(self, address: int) -> bool:
        return self._trie.lookup(address) is not None

    def intervals(self) -> tuple[list[int], list[bool]]:
        """:meth:`is_acknowledged` for the whole address space at once.

        The trie flattened (:meth:`RadixTree.flatten`) into ``(starts,
        flags)``; ``flags[bisect_right(starts, address) - 1]`` equals
        ``is_acknowledged(address)`` for the prefixes registered so far.
        """
        starts, entries = self._trie.flatten()
        return starts, [entry is not None for entry in entries]

    @property
    def names(self) -> set[str]:
        return set(self._names)

    def __len__(self) -> int:
        return len(self._names)
