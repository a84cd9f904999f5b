"""Spoofing attackers: the QUIC INITIAL floods that create backscatter.

An attacker sends valid-looking Initials to a victim VIP with randomly
spoofed source addresses.  The victim's handshake flights — and all their
RTO-driven retransmissions — go to the spoofed sources; whenever a spoofed
source falls inside the telescope prefix, the telescope captures the
backscatter.  Real floods spoof uniformly over IPv4; to keep simulations
small we bias the spoofed-address distribution toward the telescope
(``telescope_bias``), which scales volume without changing any per-flow
behaviour (DESIGN.md §5).  Flights aimed outside the telescope are
counted and dropped without being sealed (the engine's replies are
:class:`~repro.netstack.udp.DeferredDatagram`), so simulate cost follows
captured + delivered datagrams and a lower bias adds no sealing work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro.netstack.addr import Prefix
from repro.netstack.udp import QUIC_PORT, UdpDatagram
from repro.quic.version import QUIC_V1
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Device
from repro.workloads.clients import stateless_initial, weighted_versions


@dataclass
class AttackPlan:
    """One INITIAL flood event against one or more VIPs.

    A multi-VIP plan models a campaign sweeping a provider's frontends;
    each packet picks a target uniformly (every spoofed packet is an
    independent connection attempt either way).
    """

    targets: tuple[int, ...]
    packet_count: int
    start_time: float = 0.0
    duration: float = 60.0
    #: (version, weight) pairs the attack tool draws from.
    versions: tuple[tuple[int, float], ...] = ((QUIC_V1.value, 1.0),)
    #: Probability that a packet advertises a bogus (unsupported) version,
    #: provoking a Version Negotiation response.
    bogus_version_probability: float = 0.0
    #: DCID length the tool uses for the temporary server CID.
    dcid_length: int = 8
    server_name: str = ""


class SpoofingAttacker(Device):
    """Send-only device issuing spoofed Initials per :class:`AttackPlan`."""

    #: A version value no server supports (not reserved-greased, so it
    #: passes sanitization and shows up as a VN trigger).
    BOGUS_VERSION = 0xFF00007F

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        rng: random.Random,
        telescope_prefix: Prefix,
        spoof_pool: list[Prefix],
        telescope_bias: float = 0.5,
        suite: str = "fast",
    ) -> None:
        super().__init__(name)
        self.loop = loop
        self.rng = rng
        self.telescope_prefix = telescope_prefix
        self.spoof_pool = spoof_pool
        self.telescope_bias = telescope_bias
        self.suite = suite
        self.packets_sent = 0

    def prefixes(self) -> list[Prefix]:
        return []  # spoofed senders own nothing

    def launch(self, plan: AttackPlan) -> None:
        """Schedule every packet of ``plan`` on the event loop."""
        if plan.packet_count <= 0:
            raise ValueError("attack needs at least one packet")
        step = plan.duration / plan.packet_count
        fire = partial(self._fire, plan, *weighted_versions(plan.versions))
        for i in range(plan.packet_count):
            when = plan.start_time + i * step + self.rng.uniform(0, step / 2)
            self.loop.schedule_at(when, fire)

    def _spoofed_source(self) -> int:
        if self.rng.random() < self.telescope_bias or not self.spoof_pool:
            return self.telescope_prefix.random_host(self.rng)
        return self.rng.choice(self.spoof_pool).random_host(self.rng)

    def _fire(self, plan: AttackPlan, versions: list, cum_weights: list) -> None:
        """One spoofed Initial: a fresh connection attempt nobody follows up."""
        rng = self.rng
        src_ip = self._spoofed_source()
        src_port = rng.randint(1024, 65535)
        dst_ip = rng.choice(plan.targets)
        if plan.bogus_version_probability and rng.random() < plan.bogus_version_probability:
            version = self.BOGUS_VERSION
        else:
            version = rng.choices(versions, cum_weights=cum_weights)[0]
        payload = stateless_initial(
            rng, self.suite, version, plan.server_name, dcid_length=plan.dcid_length
        )
        self.send(UdpDatagram(src_ip, dst_ip, src_port, QUIC_PORT, payload))
        self.packets_sent += 1
