"""Session reconstruction from classified telescope packets.

The paper counts "QUIC sessions (i.e., same SCID, DCID, source and
destination IP address) once" (Table 2) and measures per-connection
retransmission timing by grouping backscatter on the SCID (Figure 3).
:class:`SessionStore` builds exactly that grouping.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable

from repro.telescope.classify import CapturedPacket, datagram_values


@dataclass
class Session:
    """All telescope datagrams belonging to one QUIC connection."""

    src_ip: int
    dst_ip: int
    scid: bytes
    dcid: bytes
    origin: str
    version: int
    #: Datagram arrival timestamps, in observation order, as a typed
    #: array, not a list of float objects: a capture's sessions keep one
    #: entry per datagram.  Nothing else is kept per datagram.
    timestamps: array = field(default_factory=partial(array, "d"))

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


def session_key(row: tuple) -> tuple:
    """The session of a ``DATAGRAM_FIELDS`` row: its source, destination
    and first packet's SCID and DCID."""
    _, src_ip, dst_ip, *_, dcids, scids, _ = row
    return (src_ip, dst_ip, scids[0], dcids[0])


class SessionStore:
    """Groups captured packets into sessions."""

    def __init__(self) -> None:
        self._sessions: dict[tuple, Session] = {}

    def add_values(
        self,
        key: tuple,
        origin: str,
        version: int,
        timestamp: float,
    ) -> Session:
        """Append one datagram to the session ``key`` (:func:`session_key`) names.

        ``version`` is the first packet's.
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
        return session

    @classmethod
    def from_packets(cls, packets: Iterable[CapturedPacket]) -> "SessionStore":
        """Group packets into sessions (the batch form of :meth:`add_values`)."""
        store = cls()
        for row in map(datagram_values, packets):
            timestamp, _, _, _, origin, _, _, versions, *_ = row
            store.add_values(session_key(row), origin, versions[0], timestamp)
        return store

    def sessions(self) -> list[Session]:
        return list(self._sessions.values())

    def by_origin(self, origin: str) -> list[Session]:
        return [s for s in self._sessions.values() if s.origin == origin]

    def __len__(self) -> int:
        return len(self._sessions)
