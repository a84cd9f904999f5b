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
#: ``types.translate(SERVER_CID_MASK)``: 1 for each of those types, else 0.
SERVER_CID_MASK = bytes(code in _SERVER_CID_TYPES for code in range(256))


class ScidStats:
    """Unique SCIDs of one origin network, absorbed one at a time.

    Length and nybble counts are bumped only when a SCID is first seen
    (the nybbles in one batch per :meth:`matrix`), so the Table 4 cell
    and the Figure 5 matrix cost nothing per datagram to read at any
    prefix of the capture.
    """

    def __init__(self, origin: str, unique_scids: Iterable[bytes] = ()) -> None:
        self.origin = origin
        self.unique_scids: set[bytes] = set()
        #: Unique SCIDs per length, keyed in first-seen order — which is
        #: what breaks a tie for the dominant length.
        self.length_counts: Counter = Counter()
        self._nybbles = NybbleCounts()
        #: New SCIDs whose nybbles :meth:`matrix` has not counted yet.
        self._uncounted: list[bytes] = []
        if isinstance(unique_scids, (set, frozenset)):
            # A set has no first-seen order; its hash order must not leak.
            unique_scids = sorted(unique_scids)
        self.update(unique_scids)

    def update(self, scids: Iterable[bytes]) -> int:
        """Absorb SCIDs in first-seen order; returns how many were new.

        The new ones' lengths are counted in one ``Counter`` pass; their
        nybbles wait for the next :meth:`matrix`, which counts every SCID
        new since the last one in one batch."""
        seen = self.unique_scids
        new = [scid for scid in dict.fromkeys(scids) if scid not in seen]
        seen.update(new)
        self.length_counts.update(map(len, new))
        self._uncounted += new
        return len(new)

    def add(self, scid: bytes) -> bool:
        """Absorb one SCID; returns True when it was new."""
        return self.update((scid,)) == 1

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
        if self._uncounted:
            self._nybbles.update(self._uncounted)
            self._uncounted = []
        return self._nybbles.matrix()


class ScidTable:
    """Per-origin :class:`ScidStats` over backscatter (Table 4 / Figure 5)."""

    __slots__ = ("stats",)

    def __init__(self) -> None:
        self.stats: dict[str, ScidStats] = {}

    def add_scids(self, scids: Iterable[tuple[str, bytes]]) -> None:
        """Absorb ``(origin, server-chosen SCID)`` pairs in first-seen
        order; an empty SCID names no server and is skipped."""
        by_origin: dict[str, list[bytes]] = {}
        for origin, scid in scids:
            if scid:
                by_origin.setdefault(origin, []).append(scid)
        for origin, found in by_origin.items():
            stats = self.stats.get(origin)
            if stats is None:
                stats = self.stats[origin] = ScidStats(origin)
            stats.update(found)


def table4(packets: Sequence[CapturedPacket]) -> dict[str, ScidStats]:
    table = ScidTable()
    table.add_scids(
        (origin, scid)
        for _, _, _, _, origin, _, types, _, _, scids, _ in map(
            datagram_values, packets
        )
        for code, scid in zip(types, scids)
        if SERVER_CID_MASK[code]
    )
    return table.stats


def scids_by_origin(packets: Sequence[CapturedPacket]) -> dict[str, set[bytes]]:
    """Unique server connection IDs per origin, from backscatter."""
    return {
        origin: stats.unique_scids for origin, stats in table4(packets).items()
    }
