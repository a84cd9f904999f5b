"""QUIC version adoption analysis (paper Table 2).

Counts each session once (same SCID, DCID, source and destination) and
buckets its version the way the paper's table does: QUICv1, Facebook
mvfst 2, draft-29, and others.  Client behaviour comes from sanitized scan
traffic, server behaviour from backscatter — which reveals the version the
two sides *agreed on*, not merely offered.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.capstore.table import ClassifiedView
from repro.core.session import SessionStore, session_key
from repro.quic.version import table2_bucket
from repro.telescope.classify import CapturedPacket, datagram_values


@dataclass
class VersionShares:
    """Session shares per Table 2 bucket, for one side of the traffic."""

    counts: Counter
    total: int

    def share(self, bucket: str) -> float:
        if not self.total:
            return 0.0
        return 100.0 * self.counts.get(bucket, 0) / self.total


class VersionMix:
    """Incremental Table 2 for one side: each session counted once.

    A session is bucketed by the version of its first observed datagram;
    later datagrams of the same session key change nothing.
    """

    __slots__ = ("keys", "counts")

    def __init__(self) -> None:
        self.keys: set[tuple] = set()
        self.counts: Counter = Counter()

    def add_sessions(self, keys: Sequence[tuple], versions: Sequence[int]) -> None:
        """Count each session ``keys`` names (:func:`session_key`, or a
        table's ``(src_ip, dst_ip, pair id)``) on first sight, under the
        version of its first datagram's first packet (``versions`` runs
        parallel to ``keys``).  Python-level work runs once per new
        session and once per distinct version."""
        first = dict(zip(reversed(keys), reversed(versions)))
        seen = self.keys
        fresh = [first[key] for key in dict.fromkeys(keys) if key not in seen]
        seen.update(first)
        for version, count in Counter(fresh).items():
            self.counts[table2_bucket(version)] += count

    def rekey(self, pair_cids: Callable[[list], list]) -> None:
        """Spell each key's pair as the ``(dcid, scid)`` ``pair_cids`` cuts."""
        keys = list(self.keys)
        cids = pair_cids([pair for _, _, pair in keys])
        self.keys = {(src, dst, cid) for (src, dst, _), cid in zip(keys, cids)}

    def shares(self) -> VersionShares:
        return VersionShares(counts=self.counts, total=len(self.keys))


def session_shares(store: SessionStore) -> VersionShares:
    """What a :class:`VersionMix` fed the same datagrams reports: each of
    the store's sessions under the version of its first datagram."""
    sessions = store.sessions()
    counts = Counter(table2_bucket(session.version) for session in sessions)
    return VersionShares(counts=counts, total=len(sessions))


def version_shares(packets: Iterable[CapturedPacket]) -> VersionShares:
    """Bucket one packet population (scans or backscatter) by session."""
    rows = list(map(datagram_values, packets))
    mix = VersionMix()
    firsts = [versions[0] for _, _, _, _, _, _, _, versions, *_ in rows]
    mix.add_sessions(list(map(session_key, rows)), firsts)
    return mix.shares()


def table2(capture: ClassifiedView) -> dict[str, VersionShares]:
    """Client (scans) and server (backscatter) version shares."""
    return {
        "clients": version_shares(capture.scans),
        "servers": version_shares(capture.backscatter),
    }
