"""Session reconstruction from classified telescope packets.

The paper counts "QUIC sessions (i.e., same SCID, DCID, source and
destination IP address) once" (Table 2) and measures per-connection
retransmission timing by grouping backscatter on the SCID (Figure 3).
:class:`SessionStore` builds exactly that grouping.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import count
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.telescope.classify import CapturedPacket, datagram_values


class Session(NamedTuple):
    """All telescope datagrams belonging to one QUIC connection.

    Its fields are set once, by the datagram that opens the session;
    later datagrams only append to :attr:`timestamps`.
    """

    src_ip: int
    dst_ip: int
    origin: str
    version: int
    #: Datagram arrival timestamps, in observation order, as a typed
    #: array, not a list of float objects: a capture's sessions keep one
    #: entry per datagram.  Nothing else is kept per datagram.
    timestamps: array

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
    and first packet's (DCID, SCID) pair.

    A capture table names the pair by its interned id instead
    (:meth:`~repro.capstore.CaptureTable.pair_cids`); either names one
    pair, so both group the same datagrams."""
    _, src_ip, dst_ip, *_, dcids, scids, _ = row
    return (src_ip, dst_ip, (dcids[0], scids[0]))


class SessionStore:
    """Groups captured datagrams into sessions, in first-seen order."""

    def __init__(self) -> None:
        self._sessions: dict[tuple, Session] = {}

    def add_datagrams(
        self,
        keys: Sequence[tuple],
        origins: Sequence[str],
        versions: Sequence[int],
        timestamps: Iterable[float],
    ) -> None:
        """Append datagrams, in capture order, to the sessions their keys name.

        ``keys[i]`` is ``(src_ip, dst_ip, pair)`` of datagram ``i`` and
        the other sequences run parallel to it (``versions`` holds each
        datagram's first packet's version).  A session new here is made
        from its first datagram.  Python-level work runs once per
        distinct key: one ``dict`` pass names each datagram's session by
        the row of its first datagram, and the timestamps are appended to
        their sessions by ``map``.
        """
        first: dict = {}
        rows = list(map(first.setdefault, keys, count()))
        sessions = self._sessions
        stamps = {}
        for key, row in first.items():
            session = sessions.get(key)
            if session is None:
                session = sessions[key] = Session(
                    key[0], key[1], origins[row], versions[row], array("d")
                )
            stamps[row] = session.timestamps
        deque(map(array.append, map(stamps.__getitem__, rows), timestamps), maxlen=0)

    def rekey(self, pair_cids: Callable[[list], list]) -> None:
        """Spell each key's pair as the ``(dcid, scid)`` ``pair_cids`` cuts."""
        keys = list(self._sessions)
        cids = pair_cids([pair for _, _, pair in keys])
        self._sessions = dict(
            zip(
                ((src, dst, cid) for (src, dst, _), cid in zip(keys, cids)),
                self._sessions.values(),
            )
        )

    @classmethod
    def from_packets(cls, packets: Iterable[CapturedPacket]) -> "SessionStore":
        """Group packets into sessions (the batch form of :meth:`add_datagrams`)."""
        store = cls()
        rows = list(map(datagram_values, packets))
        if rows:
            timestamps, _, _, _, origins, _, _, versions, *_ = zip(*rows)
            firsts = [packet_versions[0] for packet_versions in versions]
            store.add_datagrams(
                list(map(session_key, rows)), origins, firsts, timestamps
            )
        return store

    def sessions(self) -> list[Session]:
        return list(self._sessions.values())

    def by_origin(self, origin: str) -> list[Session]:
        return [s for s in self._sessions.values() if s.origin == origin]

    def __len__(self) -> int:
        return len(self._sessions)
