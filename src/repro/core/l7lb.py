"""L7 load-balancer enumeration from structured connection IDs (paper §4.3).

Facebook encodes the L7LB host ID in every SCID, so the set of distinct
host IDs seen behind a VIP *is* the set of L7LBs in that frontend cluster.
This module provides:

* host-ID extraction from SCIDs (passive or active),
* convergence curves (unique host IDs vs. handshake count — §4.3's "85%
  after 1k handshakes"),
* Jaccard clustering of VIPs into frontend clusters ("VIPs either share
  all host IDs or none"),
* passive-vs-active coverage (backscatter alone revealed 19% of host IDs).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence
from dataclasses import dataclass

from repro.quic.cid import mvfst
from repro.quic.packet_type import PacketType
from repro.telescope.classify import CapturedPacket, datagram_values

#: Packet types (by value) whose SCID carries the L7LB's host ID.
_HANDSHAKE_TYPES = {PacketType.INITIAL.value, PacketType.HANDSHAKE.value}


def host_id_of(scid: bytes) -> int | None:
    """The mvfst host ID encoded in ``scid`` (None if not structured)."""
    decoded = mvfst.try_decode(scid)
    return decoded.host_id if decoded else None


def worker_id_of(scid: bytes) -> int | None:
    decoded = mvfst.try_decode(scid)
    return decoded.worker_id if decoded else None


def host_ids_from_scids(scids) -> set[int]:
    out = set()
    for scid in scids:
        host_id = host_id_of(scid)
        if host_id is not None:
            out.add(host_id)
    return out


def passive_host_ids(
    packets: Sequence[CapturedPacket], origin: str = "Facebook"
) -> dict[int, set[int]]:
    """Per-VIP host IDs observed in backscatter from ``origin``."""
    out: dict[int, set[int]] = defaultdict(set)
    for row in map(datagram_values, packets):
        _, src_ip, _, _, source, _, types, _, _, scids, _ = row
        if source != origin:
            continue
        for code, scid in zip(types, scids):
            if code in _HANDSHAKE_TYPES:
                host_id = host_id_of(scid)
                if host_id is not None:
                    out[src_ip].add(host_id)
    return dict(out)


@dataclass
class ConvergenceCurve:
    """Unique host IDs discovered as handshakes accumulate."""

    #: ``counts[i]`` = distinct host IDs after ``i+1`` handshakes.
    counts: list[int]

    @property
    def total(self) -> int:
        return self.counts[-1] if self.counts else 0

    def coverage_at(self, handshakes: int) -> float:
        """Fraction of the final ID set known after ``handshakes``."""
        if handshakes <= 0 or self.total == 0:
            return 0.0
        return self.counts[min(handshakes, len(self.counts)) - 1] / self.total


def convergence_curve(host_id_sequence: list[int]) -> ConvergenceCurve:
    """Build the curve from the host ID of each successive handshake."""
    seen: set[int] = set()
    counts: list[int] = []
    for host_id in host_id_sequence:
        seen.add(host_id)
        counts.append(len(seen))
    return ConvergenceCurve(counts=counts)


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


@dataclass
class VipClustering:
    """Result of grouping VIPs by shared host IDs."""

    #: Each cluster: sorted list of VIP addresses.
    clusters: list[list[int]]
    #: Minimum Jaccard index among same-cluster VIP pairs.
    min_intra_jaccard: float
    #: Maximum Jaccard index among cross-cluster VIP pairs.
    max_inter_jaccard: float

    def size_histogram(self) -> dict[int, int]:
        """Cluster size → number of clusters (the paper's 112 × 22 shape)."""
        histogram: dict[int, int] = defaultdict(int)
        for cluster in self.clusters:
            histogram[len(cluster)] += 1
        return dict(histogram)


def cluster_vips(
    vip_host_ids: dict[int, set[int]], threshold: float = 0.5
) -> VipClustering:
    """Group VIPs whose host-ID sets overlap (connected components).

    The paper computes pairwise Jaccard indices and finds they are either
    ~1 (same frontend cluster) or 0; any ``threshold`` strictly between
    separates the two regimes.  Grouping by overlap is a union-find over
    shared host IDs, which avoids the quadratic pair scan for the common
    case; the reported min/max Jaccard statistics still come from pairs.
    """
    vips = sorted(vip_host_ids)
    parent = {vip: vip for vip in vips}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    by_host: dict[int, int] = {}
    for vip in vips:
        for host_id in vip_host_ids[vip]:
            if host_id in by_host:
                union(by_host[host_id], vip)
            else:
                by_host[host_id] = vip

    groups: dict[int, list[int]] = defaultdict(list)
    for vip in vips:
        groups[find(vip)].append(vip)
    clusters = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])

    min_intra = 1.0
    for cluster in clusters:
        for i, a in enumerate(cluster):
            for b in cluster[i + 1 :]:
                min_intra = min(min_intra, jaccard(vip_host_ids[a], vip_host_ids[b]))
    max_inter = 0.0
    representatives = [cluster[0] for cluster in clusters]
    for i, a in enumerate(representatives):
        for b in representatives[i + 1 :]:
            max_inter = max(max_inter, jaccard(vip_host_ids[a], vip_host_ids[b]))
    return VipClustering(
        clusters=clusters,
        min_intra_jaccard=min_intra if vips else 0.0,
        max_inter_jaccard=max_inter,
    )


def passive_coverage(passive_ids: set[int], active_ids: set[int]) -> float:
    """Share of actively-confirmed host IDs already visible passively."""
    if not active_ids:
        return 0.0
    return len(passive_ids & active_ids) / len(active_ids)

