"""Off-net deployment detection from backscatter (paper §4.2, Table 6).

For every backscatter-emitting server in a *non-hypergiant* AS we build a
feature vector — SCID structure, retransmission inter-arrival time,
coalescence, packet lengths — and test Facebook-likeness with the nine
feature combinations of the paper's Table 6.  Ground truth comes from the
certificate store (subjectAltName suffix match), mirroring the paper's
QScanner verification.
"""

from __future__ import annotations

from typing import Sequence
from dataclasses import dataclass, field

from repro.core.session import SessionStore
from repro.core.timing import session_gaps
from repro.inetdata.certs import CertificateStore
from repro.inetdata.hypergiants import FACEBOOK, Hypergiant
from repro.quic.cid import mvfst
from repro.quic.packet_type import PacketType
from repro.telescope.classify import CapturedPacket, datagram_values

#: Facebook's characteristic first-resend gap and tolerance (seconds).
FACEBOOK_RTO = 0.4
RTO_TOLERANCE = 0.07

#: Facebook's characteristic datagram lengths (profile padding targets).
FACEBOOK_LENGTHS = frozenset({1200, 1232})

#: The improved predictor: off-net caches use low host IDs — the paper
#: keys on the first 9 bits of the 16-bit host ID being zero.
LOW_HOST_ID_LIMIT = 1 << 7

_VERSION_NEGOTIATION = PacketType.VERSION_NEGOTIATION.value

#: Hypergiant origins excluded from off-net detection (they are the
#: on-net deployments the off-net caches are measured against).
ON_NET_ORIGINS = ("Facebook", "Google", "Cloudflare")


@dataclass
class ServerFeatures:
    """Passive observables of one backscatter-emitting server IP."""

    address: int
    origin: str
    scids: set[bytes] = field(default_factory=set)
    first_gaps: list[float] = field(default_factory=list)
    coalesced_seen: bool = False
    datagram_lengths: set[int] = field(default_factory=set)

    # -- individual features (paper Appendix C) -----------------------------
    def scid_structured_like_facebook(self) -> bool:
        """All SCIDs are 8 bytes and parse as mvfst v1 structured IDs."""
        if not self.scids:
            return False
        for scid in self.scids:
            decoded = mvfst.try_decode(scid)
            if decoded is None or decoded.version != 1:
                return False
        return True

    def low_host_id(self) -> bool:
        """SCIDs parse as mvfst v1 *and* every host ID is low."""
        if not self.scid_structured_like_facebook():
            return False
        return all(
            mvfst.decode(scid).host_id < LOW_HOST_ID_LIMIT for scid in self.scids
        )

    def inter_arrival_like_facebook(self) -> bool:
        """Median first-resend gap within tolerance of Facebook's 0.4 s."""
        if not self.first_gaps:
            return False
        ordered = sorted(self.first_gaps)
        median = ordered[len(ordered) // 2]
        return abs(median - FACEBOOK_RTO) <= RTO_TOLERANCE

    def coalescence_like_facebook(self) -> bool:
        """Facebook never coalesces; feature = no coalescence observed."""
        return not self.coalesced_seen

    def lengths_like_facebook(self) -> bool:
        """All observed datagram lengths within Facebook's fingerprint set."""
        return bool(self.datagram_lengths) and self.datagram_lengths <= FACEBOOK_LENGTHS


#: Table 6 rows: name → predicate combination over ServerFeatures.
CLASSIFIERS = {
    "Inter arrival time": lambda f: f.inter_arrival_like_facebook(),
    "SCID & Inter arrival time": lambda f: f.scid_structured_like_facebook()
    and f.inter_arrival_like_facebook(),
    "SCID & coalescence & Inter arrival time": lambda f: (
        f.scid_structured_like_facebook()
        and f.coalescence_like_facebook()
        and f.inter_arrival_like_facebook()
    ),
    "QUIC packet length": lambda f: f.lengths_like_facebook(),
    "SCID & coalescence & QUIC packet length": lambda f: (
        f.scid_structured_like_facebook()
        and f.coalescence_like_facebook()
        and f.lengths_like_facebook()
    ),
    "Coalescence": lambda f: f.coalescence_like_facebook(),
    "SCID": lambda f: f.scid_structured_like_facebook(),
    "SCID & coalescence": lambda f: f.scid_structured_like_facebook()
    and f.coalescence_like_facebook(),
    "SCID off-net (low host ID)": lambda f: f.low_host_id(),
}


@dataclass
class ClassifierMetrics:
    """The six columns of Table 6."""

    name: str
    tp: int
    fp: int
    tn: int
    fn: int

    @staticmethod
    def _ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    @property
    def tpr(self) -> float:
        return self._ratio(self.tp, self.tp + self.fn)

    @property
    def fpr(self) -> float:
        return self._ratio(self.fp, self.fp + self.tn)

    @property
    def tnr(self) -> float:
        return self._ratio(self.tn, self.tn + self.fp)

    @property
    def fnr(self) -> float:
        return self._ratio(self.fn, self.fn + self.tp)

    @property
    def precision(self) -> float:
        return self._ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float:
        return self.tpr


class OffnetServers:
    """:class:`ServerFeatures` per backscatter source outside ``exclude_origins``.

    Accumulates every feature a single datagram carries; the resend-gap
    feature needs whole sessions and is added by :func:`add_first_gaps`.
    """

    __slots__ = ("exclude_origins", "features")

    def __init__(self, exclude_origins: tuple[str, ...] = ON_NET_ORIGINS) -> None:
        self.exclude_origins = exclude_origins
        self.features: dict[int, ServerFeatures] = {}

    def add_values(
        self,
        origin: str,
        src_ip: int,
        types: bytes,
        scids: Sequence[bytes],
        payload_length: int,
    ) -> None:
        """Absorb one backscatter datagram (parallel type codes / SCIDs)."""
        if origin in self.exclude_origins:
            return
        if types[0] == _VERSION_NEGOTIATION:
            # VN SCIDs echo the *client's* DCID — they say nothing about the
            # server's CID scheme, so they must not pollute the features.
            return
        record = self.features.get(src_ip)
        if record is None:
            record = self.features[src_ip] = ServerFeatures(
                address=src_ip, origin=origin
            )
        record.scids.update(filter(None, scids))
        if len(types) > 1:
            record.coalesced_seen = True
        record.datagram_lengths.add(payload_length)

    def counts(self) -> tuple[int, int]:
        """(candidate servers, servers passing the low-host-ID test)."""
        low = sum(1 for record in self.features.values() if record.low_host_id())
        return len(self.features), low


def extract_features(
    packets: Sequence[CapturedPacket],
    exclude_origins: tuple[str, ...] = ON_NET_ORIGINS,
) -> dict[int, ServerFeatures]:
    """Per-server features from backscatter outside hypergiant ASes."""
    servers = OffnetServers(exclude_origins)
    for row in map(datagram_values, packets):
        _, src_ip, _, _, origin, payload_length, types, _, _, scids, _ = row
        servers.add_values(origin, src_ip, types, scids, payload_length)
    add_first_gaps(servers.features, SessionStore.from_packets(packets))
    return servers.features


def add_first_gaps(features: dict[int, ServerFeatures], store: SessionStore) -> None:
    """Give each server in ``features`` the first resend gap of each of its
    sessions in ``store``: the backscatter's, whoever else's it holds."""
    for session in store.sessions():
        record = features.get(session.src_ip)
        if record is not None:
            gaps = session_gaps(session)
            if gaps:
                record.first_gaps.append(gaps[0])


def evaluate_classifiers(
    features: dict[int, ServerFeatures],
    certstore: CertificateStore,
    hypergiant: Hypergiant = FACEBOOK,
) -> list[ClassifierMetrics]:
    """Score every Table 6 classifier against certificate ground truth.

    Servers without a certificate do not admit verification (like the
    paper's Cloudflare candidates) and are excluded from scoring.
    """
    verifiable = {
        addr: f for addr, f in features.items() if addr in certstore
    }
    results = []
    for name, predicate in CLASSIFIERS.items():
        tp = fp = tn = fn = 0
        for addr, feats in verifiable.items():
            truth = certstore.operated_by(addr, hypergiant)
            predicted = predicate(feats)
            if truth and predicted:
                tp += 1
            elif truth:
                fn += 1
            elif predicted:
                fp += 1
            else:
                tn += 1
        results.append(ClassifierMetrics(name=name, tp=tp, fp=fp, tn=tn, fn=fn))
    return results
