"""Internet-background-radiation activity analysis (the flood-events extension).

The paper builds on the observation (QUICsand, IMC'21) that QUIC IBR
consists of scans and INITIAL-flood backscatter.  This module recovers the
*events* behind a capture: per-victim backscatter bursts (one per attack),
their duration, intensity and spread of spoofed addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.telescope.classify import CapturedPacket, datagram_values


@dataclass
class FloodEvent:
    """One backscatter burst attributed to a single victim address."""

    victim: int
    origin: str
    start: float
    end: float
    packets: int
    #: Distinct spoofed (telescope) addresses the victim answered.
    spoofed_targets: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def rate(self) -> float:
        """Packets per second over the event window."""
        return self.packets / self.duration if self.duration > 0 else float(self.packets)


class FloodEvents:
    """Each victim's backscatter split into bursts, one row at a time.

    A victim (backscatter source address) that stays silent for more than
    ``quiet_gap`` seconds starts a new burst; a burst of fewer than
    ``min_packets`` datagrams is noise, not an event.  Capture order is
    timestamp order, so a victim's open burst grows at its end.
    """

    __slots__ = ("quiet_gap", "min_packets", "closed", "_open")

    def __init__(self, quiet_gap: float = 120.0, min_packets: int = 10) -> None:
        self.quiet_gap = quiet_gap
        self.min_packets = min_packets
        #: Ended bursts of at least ``min_packets``.
        self.closed: list[FloodEvent] = []
        #: victim -> its open burst: ``[origin, start, end, packets, {dst_ip}]``.
        self._open: dict[int, list] = {}

    def add_values(
        self, src_ip: int, dst_ip: int, origin: str, timestamp: float
    ) -> None:
        """Count one backscatter datagram toward its victim's burst."""
        burst = self._open.get(src_ip)
        if burst is None or timestamp - burst[2] > self.quiet_gap:
            if burst is not None and burst[3] >= self.min_packets:
                self.closed.append(_event(src_ip, burst))
            self._open[src_ip] = [origin, timestamp, timestamp, 1, {dst_ip}]
            return
        burst[2] = timestamp
        burst[3] += 1
        burst[4].add(dst_ip)

    def events(self) -> list[FloodEvent]:
        """Every event so far, open bursts of ``min_packets`` included, by
        start time and then victim."""
        events = self.closed + [
            _event(victim, burst)
            for victim, burst in self._open.items()
            if burst[3] >= self.min_packets
        ]
        events.sort(key=lambda e: (e.start, e.victim))
        return events


def _event(victim: int, burst: list) -> FloodEvent:
    origin, start, end, packets, targets = burst
    return FloodEvent(victim, origin, start, end, packets, len(targets))


def detect_flood_events(
    packets: Sequence[CapturedPacket],
    quiet_gap: float = 120.0,
    min_packets: int = 10,
) -> list[FloodEvent]:
    """Split each victim's backscatter into bursts separated by quiet gaps
    (:class:`FloodEvents` over ``packets``)."""
    events = FloodEvents(quiet_gap, min_packets)
    for timestamp, src_ip, dst_ip, _, origin, *_ in map(datagram_values, packets):
        events.add_values(src_ip, dst_ip, origin, timestamp)
    return events.events()
