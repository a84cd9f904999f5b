"""Scanners and noise: the request side of telescope traffic.

Three populations, per the paper:

* :class:`ResearchScanner` — acknowledged projects sweeping the whole
  telescope, typically with reserved (greasing) versions to force version
  negotiation.  Removed during sanitization; they dominate the raw capture.
* :class:`UnknownScanner` — undocumented/malicious scanners (bots).  These
  survive sanitization and define the paper's client-side version mix.
* :class:`NoiseSource` — non-QUIC UDP/443 traffic (both directions), the
  false positives the dissector removes.

All three are ZMap-style stateless senders (:class:`StatelessSender`):
nothing waits for a reply from dark space, so a probe is an rng draw, a
:func:`~repro.workloads.clients.stateless_initial` and a ``send`` — no
connection object — and a sweep is one pending event that re-arms itself,
each probe still fired at its own ``loop.now``.
"""

from __future__ import annotations

import random

from repro.netstack.addr import Prefix
from repro.netstack.udp import QUIC_PORT, UdpDatagram
from repro.quic.packet import (
    LongHeaderPacket,
    PacketType,
    encode_datagram,
)
from repro.quic.crypto.suites import suite_by_name
from repro.quic.frames import CryptoFrame, encode_frames
from repro.quic.version import QUIC_V1
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Device
from repro.workloads.clients import stateless_initial, weighted_versions


class StatelessSender(Device):
    """A send-only device at one address, probing a prefix on a fixed schedule."""

    def __init__(
        self,
        name: str,
        address: int,
        loop: EventLoop,
        rng: random.Random,
        target_prefix: Prefix,
    ) -> None:
        super().__init__(name)
        self.address = address
        self.loop = loop
        self.rng = rng
        self.target_prefix = target_prefix
        self.packets_sent = 0

    def prefixes(self) -> list[Prefix]:
        return [Prefix(self.address, 32)]

    def sweep(self, packet_count: int, start_time: float = 0.0, duration: float = 600.0) -> None:
        """Send ``packet_count`` probes, evenly spaced over ``duration``.

        One event is pending at a time: firing probe ``i`` arms probe
        ``i + 1`` at ``start_time + (i + 1) * step`` — the time itself, not
        a running sum, so the schedule is the one a loop over ``i`` gives.
        """
        step = duration / max(packet_count, 1)
        armed = 0

        def fire() -> None:
            nonlocal armed
            armed += 1
            if armed < packet_count:
                self.loop.schedule_at(start_time + armed * step, fire)
            self.send(self._probe())
            self.packets_sent += 1

        if packet_count > 0:
            self.loop.schedule_at(start_time, fire)

    def _probe(self) -> UdpDatagram:
        raise NotImplementedError


class ResearchScanner(StatelessSender):
    """An acknowledged scanner sweeping dark space with greased versions."""

    GREASE_VERSION = 0x1A2A3A4A  # matches RFC 9000's 0x?a?a?a?a pattern

    def __init__(
        self,
        name: str,
        address: int,
        loop: EventLoop,
        rng: random.Random,
        target_prefix: Prefix,
        suite: str = "fast",
    ) -> None:
        super().__init__(name, address, loop, rng, target_prefix)
        self.suite = suite

    def _probe(self) -> UdpDatagram:
        # Stateless enumeration probes: unpadded Initials with a greased
        # version — small, cheap, and designed to trigger VN on real servers.
        src_port = self.rng.randint(30000, 60000)
        return UdpDatagram(
            self.address,
            self.target_prefix.random_host(self.rng),
            src_port,
            QUIC_PORT,
            stateless_initial(self.rng, self.suite, self.GREASE_VERSION, pad_to=0),
        )


class UnknownScanner(StatelessSender):
    """An undocumented scanner/bot probing dark space with real versions."""

    def __init__(
        self,
        name: str,
        address: int,
        loop: EventLoop,
        rng: random.Random,
        target_prefix: Prefix,
        versions: tuple[tuple[int, float], ...] = ((QUIC_V1.value, 1.0),),
        zero_rtt_probability: float = 0.0,
        pad_probability: float = 0.6,
        suite: str = "fast",
    ) -> None:
        super().__init__(name, address, loop, rng, target_prefix)
        self._versions, self._cum_weights = weighted_versions(versions)
        self.zero_rtt_probability = zero_rtt_probability
        self.pad_probability = pad_probability
        self.suite = suite

    def _probe(self) -> UdpDatagram:
        rng = self.rng
        target = self.target_prefix.random_host(rng)
        if rng.random() < self.zero_rtt_probability:
            return self._zero_rtt_packet(target)
        pad = 1200 if rng.random() < self.pad_probability else 0
        src_port = rng.randint(1024, 65535)
        version = rng.choices(self._versions, cum_weights=self._cum_weights)[0]
        return UdpDatagram(
            self.address,
            target,
            src_port,
            QUIC_PORT,
            stateless_initial(rng, self.suite, version, pad_to=pad),
        )

    def _zero_rtt_packet(self, target: int) -> UdpDatagram:
        """A 0-RTT packet replayed at dark space (session-resumption abuse)."""
        dcid = self.rng.getrandbits(64).to_bytes(8, "big")
        protection = suite_by_name(self.suite)(QUIC_V1.value, dcid)
        packet = LongHeaderPacket(
            packet_type=PacketType.ZERO_RTT,
            version=QUIC_V1.value,
            dcid=dcid,
            scid=self.rng.getrandbits(64).to_bytes(8, "big"),
            packet_number=0,
            payload=encode_frames(
                [CryptoFrame(offset=0, data=b"early-data" * 10)]
            ),
            pn_length=1,
        )
        data = encode_datagram([packet], protection, is_server=False, pad_to=0)
        return UdpDatagram(
            src_ip=self.address,
            dst_ip=target,
            src_port=self.rng.randint(1024, 65535),
            dst_port=QUIC_PORT,
            payload=data,
        )


class NoiseSource(StatelessSender):
    """Non-QUIC UDP/443 traffic: the dissector's false-positive input."""

    def _probe(self) -> UdpDatagram:
        target = self.target_prefix.random_host(self.rng)
        kind = self.rng.random()
        if kind < 0.4:
            # DTLS-flavoured: first byte 22 (handshake), never a QUIC form bit.
            payload = bytes([22, 254, 253]) + self.rng.randbytes(40)
        elif kind < 0.7:
            # Random garbage with the long-header bit set but a junk version.
            payload = bytes([0xC3]) + self.rng.randbytes(30)
        else:
            # Small unparseable blobs (misdirected media / probes).
            payload = self.rng.randbytes(self.rng.randint(1, 24))
        backscatter_like = self.rng.random() < 0.5
        return UdpDatagram(
            src_ip=self.address,
            dst_ip=target,
            src_port=QUIC_PORT if backscatter_like else self.rng.randint(1024, 65000),
            dst_port=self.rng.randint(1024, 65000) if backscatter_like else QUIC_PORT,
            payload=payload,
        )
