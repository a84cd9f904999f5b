"""Packet-type mix and packet-length patterns (paper Table 3 and Figure 7).

Table 3 classifies every long-header datagram from each source network:
Initial, Handshake, 0-RTT, Retry, or a coalesced Initial & Handshake
datagram.  Figure 7 looks at the lengths of the QUIC packets inside each
datagram — comma-joined when coalesced — whose per-provider patterns stem
from distinct padding policies.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from repro.quic.packet_type import PacketType
from repro.telescope.classify import CapturedPacket, datagram_values

#: Table 3 row of a lone packet, indexed by :class:`PacketType` value.
_SINGLE_CATEGORY = (
    "Initial",
    "0-RTT",
    "Handshake",
    "Retry",
    "Version Negotiation",
    "1-RTT",
)
_INITIAL_AND_HANDSHAKE = {PacketType.INITIAL.value, PacketType.HANDSHAKE.value}
_VERSION_NEGOTIATION = PacketType.VERSION_NEGOTIATION.value


@lru_cache(maxsize=256)
def category_of(types: bytes) -> str:
    """The Table 3 row for a datagram's packet type codes.

    A capture has a handful of distinct type combinations; each is
    classified once.
    """
    if len(types) > 1:
        if _INITIAL_AND_HANDSHAKE.issuperset(types):
            return "Coalesced Initial & Handshake"
        return "Coalesced other"
    return _SINGLE_CATEGORY[types[0]]


class PacketMix:
    """Per-origin datagram category shares."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict[str, Counter] | None = None) -> None:
        self.counts = {} if counts is None else counts

    def add_counts(self, counts: Mapping[tuple, int]) -> None:
        """Count datagrams per ``(origin, type codes, ...)``, keys in
        first-seen order (Version Negotiation excluded): each distinct key
        is classified once, however many datagrams it counts.  What
        follows the type codes is not read, so
        :meth:`LengthSignatures.add_counts`' keys serve as they are."""
        for (origin, types, *_), count in counts.items():
            category = category_of(types)
            if category == "Version Negotiation":
                continue  # the paper's table covers the four flight types
            counter = self.counts.get(origin)
            if counter is None:
                counter = self.counts[origin] = Counter()
            counter[category] += count

    def __add__(self, other: "PacketMix") -> "PacketMix":
        """The mix over both populations (Table 3: backscatter + scans)."""
        counts = {origin: Counter(counter) for origin, counter in self.counts.items()}
        for origin, counter in other.counts.items():
            counts.setdefault(origin, Counter()).update(counter)
        return PacketMix(counts)

    def origins(self) -> list[str]:
        return sorted(self.counts)

    def share(self, origin: str, category: str) -> float:
        counter = self.counts.get(origin)
        if not counter:
            return 0.0
        total = sum(counter.values())
        return 100.0 * counter.get(category, 0) / total if total else 0.0

    def coalescence_share(self, origin: str) -> float:
        return self.share(origin, "Coalesced Initial & Handshake")

    def uses_coalescence(self, origin: str, threshold: float = 1.0) -> bool:
        """Table 1's coalescence checkmark: more than ``threshold`` percent."""
        return self.coalescence_share(origin) > threshold


def packet_mix(packets: Sequence[CapturedPacket]) -> PacketMix:
    """Compute Table 3 from classified backscatter."""
    mix = PacketMix()
    mix.add_counts(
        Counter(
            (origin, types)
            for _, _, _, _, origin, _, types, *_ in map(datagram_values, packets)
        )
    )
    return mix


def _signature(lengths: Iterable[int]) -> str:
    return ",".join(map(str, lengths))


class LengthSignatures:
    """Per-origin counts of packet-length combinations (Figure 7).

    Keyed by the tuple of lengths and spelled as a label only for the
    few that are read; origins and combinations keep first-seen order,
    which is what breaks a tie in :meth:`top`.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[str, Counter] = {}

    def add_counts(self, counts: Mapping[tuple[str, bytes, tuple], int]) -> None:
        """Count datagrams per ``(origin, type codes, packet lengths)``,
        keys in first-seen order (Version Negotiation first excluded)."""
        for (origin, types, lengths), count in counts.items():
            if types[0] == _VERSION_NEGOTIATION:
                continue
            counter = self.counts.get(origin)
            if counter is None:
                counter = self.counts[origin] = Counter()
            counter[lengths] += count

    def top(self, top: int = 7) -> dict[str, list[tuple[str, int]]]:
        return {
            origin: [
                (_signature(lengths), count)
                for lengths, count in counter.most_common(top)
            ]
            for origin, counter in self.counts.items()
        }


def top_length_signatures(
    packets: Sequence[CapturedPacket], top: int = 7
) -> dict[str, list[tuple[str, int]]]:
    """Per-origin top-N packet-length combinations (Figure 7)."""
    signatures = LengthSignatures()
    signatures.add_counts(
        Counter(
            (origin, types, lengths)
            for _, _, _, _, origin, _, types, *_, lengths in map(
                datagram_values, packets
            )
        )
    )
    return signatures.top(top)
