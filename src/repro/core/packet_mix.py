"""Packet-type mix and packet-length patterns (paper Table 3 and Figure 7).

Table 3 classifies every long-header datagram from each source network:
Initial, Handshake, 0-RTT, Retry, or a coalesced Initial & Handshake
datagram.  Figure 7 looks at the lengths of the QUIC packets inside each
datagram — comma-joined when coalesced — whose per-provider patterns stem
from distinct padding policies.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence
from dataclasses import dataclass, field

from repro.quic.packet import PacketType
from repro.telescope.classify import CapturedPacket

TABLE3_ROWS = (
    "Initial",
    "Handshake",
    "0-RTT",
    "Retry",
    "Coalesced Initial & Handshake",
)


def datagram_category(packet: CapturedPacket) -> str:
    """The Table 3 row a captured datagram falls into."""
    types = [p.packet_type for p in packet.packets]
    if len(types) > 1:
        kinds = set(types)
        if kinds <= {PacketType.INITIAL, PacketType.HANDSHAKE}:
            return "Coalesced Initial & Handshake"
        return "Coalesced other"
    only = types[0]
    if only is PacketType.INITIAL:
        return "Initial"
    if only is PacketType.HANDSHAKE:
        return "Handshake"
    if only is PacketType.ZERO_RTT:
        return "0-RTT"
    if only is PacketType.RETRY:
        return "Retry"
    if only is PacketType.VERSION_NEGOTIATION:
        return "Version Negotiation"
    return "1-RTT"


@dataclass
class PacketMix:
    """Per-origin datagram category shares."""

    counts: dict[str, Counter] = field(default_factory=dict)

    def add(self, packet: CapturedPacket) -> None:
        """Count one datagram under its origin (Version Negotiation excluded)."""
        category = datagram_category(packet)
        if category == "Version Negotiation":
            return  # the paper's table covers the four flight types
        counter = self.counts.get(packet.origin)
        if counter is None:
            counter = self.counts[packet.origin] = Counter()
        counter[category] += 1

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
    for packet in packets:
        mix.add(packet)
    return mix


def length_signature(packet: CapturedPacket) -> str:
    """Figure 7 label: comma-joined QUIC packet lengths inside the datagram."""
    return ",".join(str(p.packet_length) for p in packet.packets)


def top_length_signatures(
    packets: Sequence[CapturedPacket], top: int = 7
) -> dict[str, list[tuple[str, int]]]:
    """Per-origin top-N packet-length combinations (Figure 7)."""
    per_origin: dict[str, Counter] = defaultdict(Counter)
    for packet in packets:
        if packet.packets[0].packet_type is PacketType.VERSION_NEGOTIATION:
            continue
        per_origin[packet.origin][length_signature(packet)] += 1
    return {
        origin: counter.most_common(top) for origin, counter in per_origin.items()
    }
