"""SCID length statistics per origin AS (paper Table 4)."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.core.scid_entropy import NybbleCounts, NybbleMatrix
from repro.quic.packet_type import PacketType
from repro.telescope.classify import CapturedPacket, datagram_values

#: Packet types (by value) whose SCID is the server's own connection ID.
_SERVER_CID_TYPES = frozenset(
    kind.value
    for kind in (PacketType.INITIAL, PacketType.HANDSHAKE, PacketType.RETRY)
)


class ScidStats:
    """Unique SCIDs of one origin network, absorbed one at a time.

    Length and nybble counts are bumped only when a SCID is first seen,
    so the Table 4 cell and the Figure 5 matrix are O(1) / O(positions)
    to read at any prefix of the capture.
    """

    def __init__(self, origin: str, unique_scids: Iterable[bytes] = ()) -> None:
        self.origin = origin
        self.unique_scids: set[bytes] = set()
        #: Unique SCIDs per length, keyed in first-seen order — which is
        #: what breaks a tie for the dominant length.
        self.length_counts: Counter = Counter()
        self._nybbles = NybbleCounts()
        if isinstance(unique_scids, (set, frozenset)):
            # A set has no first-seen order; its hash order must not leak.
            unique_scids = sorted(unique_scids)
        for scid in unique_scids:
            self.add(scid)

    def add(self, scid: bytes) -> bool:
        """Absorb one SCID; returns True when it was new."""
        if scid in self.unique_scids:
            return False
        self.unique_scids.add(scid)
        self.length_counts[len(scid)] += 1
        self._nybbles.add(scid)
        return True

    @property
    def unique_count(self) -> int:
        return len(self.unique_scids)

    @property
    def dominant_length(self) -> int | None:
        counts = self.length_counts
        return counts.most_common(1)[0][0] if counts else None

    def length_summary(self) -> str:
        """Paper-style cell: dominant length, rare others in parentheses."""
        dominant = self.dominant_length
        if dominant is None:
            return "-"
        others = sorted(l for l in self.length_counts if l != dominant)
        if not others:
            return str(dominant)
        return "%d (%s)" % (dominant, ", ".join(str(l) for l in others))

    def matrix(self) -> NybbleMatrix:
        """The Figure 5 frequency matrix of the SCIDs seen so far."""
        return self._nybbles.matrix()


class ScidTable:
    """Per-origin :class:`ScidStats` over backscatter (Table 4 / Figure 5)."""

    __slots__ = ("stats",)

    def __init__(self) -> None:
        self.stats: dict[str, ScidStats] = {}

    def add_values(self, origin: str, types: bytes, scids: Sequence[bytes]) -> None:
        """Absorb a datagram's server-chosen SCIDs (parallel type codes / SCIDs)."""
        stats = self.stats.get(origin)
        for code, scid in zip(types, scids):
            if scid and code in _SERVER_CID_TYPES:
                if stats is None:
                    stats = self.stats[origin] = ScidStats(origin)
                stats.add(scid)


def table4(packets: Sequence[CapturedPacket]) -> dict[str, ScidStats]:
    table = ScidTable()
    for _, _, _, _, origin, _, types, _, _, scids, _ in map(datagram_values, packets):
        table.add_values(origin, types, scids)
    return table.stats


def scids_by_origin(packets: Sequence[CapturedPacket]) -> dict[str, set[bytes]]:
    """Unique server connection IDs per origin, from backscatter."""
    return {
        origin: stats.unique_scids for origin, stats in table4(packets).items()
    }
