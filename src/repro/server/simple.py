"""A standalone QUIC server: one host, no LB fabric in front.

Used for "Remaining" (non-hypergiant) deployments and for hypergiant
*off-net* caches, which the paper models as few hosts with low host IDs
placed inside ISP networks.
"""

from __future__ import annotations

import random

from repro.netstack.addr import Prefix
from repro.netstack.udp import UdpDatagram
from repro.obs import Observability
from repro.server.lb.l4lb import extract_dcid
from repro.server.lb.l7lb import L7LbHost
from repro.server.profiles import ServerProfile
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Device
from repro.tls.certs import Certificate


class SimpleQuicServer(Device):
    """One QUIC server answering for one address (or a small prefix)."""

    def __init__(
        self,
        name: str,
        address: int,
        profile: ServerProfile,
        loop: EventLoop,
        rng: random.Random,
        host_id: int = 0,
        certificate: Certificate | None = None,
        prefix_length: int = 32,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(name)
        self.address = address
        self.profile = profile
        self._prefix = Prefix(address & _mask(prefix_length), prefix_length)
        self.host = L7LbHost(
            host_id=host_id,
            profile=profile,
            loop=loop,
            rng=rng,
            send=self.send,
            certificate=certificate,
            obs=obs,
        )

    def prefixes(self) -> list[Prefix]:
        return [self._prefix]

    def handle_datagram(self, datagram: UdpDatagram, now: float) -> None:
        dcid = extract_dcid(datagram, self.profile.cid_scheme.length)
        self.host.handle(datagram, dcid, now)


def _mask(length: int) -> int:
    return ((1 << length) - 1) << (32 - length) if length else 0

