"""Session reconstruction from classified telescope packets.

The paper counts "QUIC sessions (i.e., same SCID, DCID, source and
destination IP address) once" (Table 2) and measures per-connection
retransmission timing by grouping backscatter on the SCID (Figure 3).
:class:`SessionStore` builds exactly that grouping.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterable

from repro.quic.packet_type import PACKET_LABELS
from repro.telescope.classify import CapturedPacket, type_codes


@dataclass
class Session:
    """All telescope datagrams belonging to one QUIC connection."""

    src_ip: int
    dst_ip: int
    scid: bytes
    dcid: bytes
    origin: str
    version: int
    #: Datagram arrival timestamps, in observation order.  Both per-datagram
    #: numbers are held as typed arrays, not as lists of int and float
    #: objects: a capture's sessions keep one entry per datagram.
    timestamps: array = field(default_factory=partial(array, "d"))
    #: Long-header packet-type labels per datagram (tuple per datagram).
    datagram_types: list[tuple[str, ...]] = field(default_factory=list)
    #: UDP payload length per datagram (at most 65,527: 16 bits).
    datagram_lengths: array = field(default_factory=partial(array, "H"))

    @property
    def first_seen(self) -> float:
        return self.timestamps[0]

    @property
    def datagram_count(self) -> int:
        return len(self.timestamps)

    def relative_times(self) -> list[float]:
        """Arrival times relative to the first datagram of the session."""
        first = self.first_seen
        return [t - first for t in self.timestamps]

    def resend_count(self) -> int:
        """Number of *resent* flights: flights observed after the first.

        A flight is one Initial (+Handshake) response; non-coalescing
        stacks emit two datagrams per flight, coalescing stacks one.  We
        count flights by Initial packets (every flight leads with one).
        """
        initials = sum(
            1 for types in self.datagram_types if "Initial" in types
        )
        return max(0, initials - 1)


@lru_cache(maxsize=256)
def type_labels(types: bytes) -> tuple[str, ...]:
    """``Session.datagram_types`` entry for a datagram's packet type codes.

    A capture has a handful of distinct type combinations; each is
    spelled out once.
    """
    return tuple(map(PACKET_LABELS.__getitem__, types))


class SessionStore:
    """Groups captured packets into sessions."""

    def __init__(self) -> None:
        self._sessions: dict[tuple, Session] = {}

    @staticmethod
    def key_of(packet: CapturedPacket) -> tuple:
        first = packet.packets[0]
        return (packet.src_ip, packet.dst_ip, first.scid, first.dcid)

    def add_values(
        self,
        key: tuple,
        origin: str,
        version: int,
        timestamp: float,
        types: bytes,
        payload_length: int,
    ) -> Session:
        """Append one datagram to the session ``key`` (:meth:`key_of`) names.

        ``version`` is the first packet's; ``types`` the packet type codes
        of the datagram (:func:`~repro.telescope.classify.type_codes`).
        """
        session = self._sessions.get(key)
        if session is None:
            src_ip, dst_ip, scid, dcid = key
            session = self._sessions[key] = Session(
                src_ip=src_ip,
                dst_ip=dst_ip,
                scid=scid,
                dcid=dcid,
                origin=origin,
                version=version,
            )
        session.timestamps.append(timestamp)
        session.datagram_types.append(type_labels(types))
        session.datagram_lengths.append(payload_length)
        return session

    def add(self, packet: CapturedPacket) -> Session:
        return self.add_values(
            self.key_of(packet),
            packet.origin,
            packet.packets[0].version,
            packet.timestamp,
            type_codes(packet),
            packet.udp_payload_length,
        )

    @classmethod
    def from_packets(cls, packets: Iterable[CapturedPacket]) -> "SessionStore":
        """Group packets into sessions (the batch form of :meth:`add`)."""
        store = cls()
        for packet in packets:
            store.add(packet)
        return store

    def sessions(self) -> list[Session]:
        return list(self._sessions.values())

    def by_origin(self, origin: str) -> list[Session]:
        return [s for s in self._sessions.values() if s.origin == origin]

    def __len__(self) -> int:
        return len(self._sessions)
