"""A frontend cluster: one /24 of VIPs fronting many L7LB hosts.

Mirrors the paper's Figure 2: requests to any VIP of the cluster hit one of
several L4LBs via ECMP; every L4LB shares the same Maglev view of the
cluster's L7 hosts, so the choice of L4LB is invisible.  Host IDs are
unique *within* a cluster (the paper finds host IDs reused across off-net
deployments but unique per on-net cluster).

ECMP is a SHA-256 of the flow 5-tuple — stateless and order-independent,
like the Maglev and worker-selection stages below it — so the whole
dispatch path is a pure function of the packet.  Sharded simulation
(``repro.simnet.shard``) leans on exactly this: any worker process
replays the same packet → same L4LB → same L7 host → same engine chain.

Key classes: :class:`FrontendCluster` (this module),
:class:`~repro.server.lb.l4lb.L4LoadBalancer`,
:class:`~repro.server.lb.l7lb.L7LbHost`.
"""

from __future__ import annotations

import hashlib
import random

from repro.netstack.addr import Prefix
from repro.netstack.udp import UdpDatagram
from repro.obs import NULL_OBS, Observability
from repro.server.lb.l4lb import L4LoadBalancer
from repro.server.lb.l7lb import L7LbHost
from repro.server.lb.maglev import MaglevTable, flow_key
from repro.server.profiles import ServerProfile
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Device
from repro.tls.certs import Certificate


class FrontendCluster(Device):
    """One point of presence of a hypergiant."""

    def __init__(
        self,
        name: str,
        prefix: Prefix | str,
        profile: ServerProfile,
        loop: EventLoop,
        rng: random.Random,
        vip_count: int = 22,
        l7_host_count: int = 16,
        l4_count: int = 4,
        host_id_base: int = 1,
        certificate: Certificate | None = None,
        country: str = "US",
        maglev_table_size: int = 1021,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(name)
        obs = obs or NULL_OBS
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        if vip_count > prefix.size - 2:
            raise ValueError("prefix %s too small for %d VIPs" % (prefix, vip_count))
        self.prefix = prefix
        self.profile = profile
        self.loop = loop
        self.country = country
        #: VIPs start at .1 (network address excluded).
        self.vips: list[int] = [prefix.host(1 + i) for i in range(vip_count)]
        self._vip_set = set(self.vips)
        #: Host IDs are contiguous from ``host_id_base`` — the paper observes
        #: low host IDs at off-nets; scenarios set the base accordingly.
        self.hosts: list[L7LbHost] = [
            L7LbHost(
                host_id=host_id_base + i,
                profile=profile,
                loop=loop,
                rng=rng,
                send=self.send,  # direct server return: straight to the network
                certificate=certificate,
                address=prefix.host(prefix.size - 2) ,  # shared DSR address
                obs=obs,
            )
            for i in range(l7_host_count)
        ]
        shared_maglev = MaglevTable(
            [b"l7-%d" % h.host_id for h in self.hosts], table_size=maglev_table_size
        )
        quic_lb_config = getattr(profile.cid_scheme, "config", None)
        self.l4lbs: list[L4LoadBalancer] = [
            L4LoadBalancer(
                name="%s-l4-%d" % (name, i),
                address=prefix.host(prefix.size - 2),
                hosts=self.hosts,
                routing=profile.routing,
                maglev=shared_maglev,
                cid_length=profile.cid_scheme.length,
                quic_lb_config=quic_lb_config,
                obs=obs,
            )
            for i in range(l4_count)
        ]
        self._m_dropped = (
            obs.metrics.counter("lb.dropped", ("lb", "reason"))
            if obs.metrics is not None
            else None
        )

    # -- Device interface ----------------------------------------------------
    def prefixes(self) -> list[Prefix]:
        return [self.prefix]

    def handle_datagram(self, datagram: UdpDatagram, now: float) -> None:
        if datagram.dst_ip not in self._vip_set:
            if self._m_dropped is not None:
                self._m_dropped.inc_key((self.name, "non_vip"))
            return
        l4 = self._ecmp_select(datagram)
        l4.forward(datagram, now)

    def _ecmp_select(self, datagram: UdpDatagram) -> L4LoadBalancer:
        """Router ECMP: 5-tuple hash chooses the L4LB instance."""
        key = flow_key(
            datagram.src_ip, datagram.src_port, datagram.dst_ip, datagram.dst_port
        )
        digest = hashlib.sha256(b"ecmp" + key).digest()
        return self.l4lbs[digest[0] % len(self.l4lbs)]

    # -- introspection ---------------------------------------------------------
    @property
    def host_ids(self) -> list[int]:
        return [h.host_id for h in self.hosts]
