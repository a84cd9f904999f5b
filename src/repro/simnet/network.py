"""Packet routing between simulated devices.

Every :class:`Device` announces one or more prefixes; the network delivers
each :class:`UdpDatagram` to the device with the longest matching prefix
for the destination address.  Path latency is the sum of both endpoints'
access delays plus jitter; a global loss rate models drop on the open
Internet.  Packets to unowned space are dropped (like real traffic to
dark space that no telescope covers).

With a metrics registry attached, every transmit outcome — delivered,
lost, unrouted — is counted in ``net.delivered{device}`` or
``net.dropped{reason, device}``, so ``repro stats`` can account for every
packet.  Without one nothing is counted.

Per-packet jitter and loss are not drawn from a shared rng stream but
derived from a keyed hash of the packet itself (endpoints, send time,
payload).  A shared stream would make delays depend on the global order
in which packets happen to be transmitted; the keyed hash makes each
packet's fate a pure function of the packet, so a scenario sharded
across worker processes (``repro.simnet.shard``) reproduces the serial
run's capture exactly.

Delivery has two modes, chosen by a property of the target.  A device
that may react to what it receives gets an event-loop event at the
arrival time.  A :attr:`Device.passive` one — the telescope — is handed
the datagram at transmit time, with the arrival time as ``now``: its
delay is already known (the keyed hash again: nothing that happens in
between can change it), it may not send, so the early hand-over is
invisible to the rest of the simulation, and half the events of a month
go away.  The sink sees arrivals in transmit order and sorts them back
(:meth:`repro.netstack.capbuf.CaptureBuffer.append`).
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass

from repro.inetdata.radix import RadixTree
from repro.netstack.addr import Prefix
from repro.netstack.udp import UdpDatagram
from repro.obs import NULL_OBS, Observability
from repro.obs.trace import CAT_NET
from repro.simnet.eventloop import EventLoop

#: Transmit drop reasons (the ``reason`` label on ``net.dropped``).
DROP_LOSS = "loss"
DROP_NO_ROUTE = "no_route"


@dataclass
class PathModel:
    """Latency/loss parameters for the simulated Internet."""

    base_delay: float = 0.002  # propagation floor between any two devices
    jitter: float = 0.001  # uniform jitter added per packet
    loss_rate: float = 0.0  # independent drop probability per packet

    def __post_init__(self) -> None:
        # A negative delay would stamp an arrival before its send: an
        # active target's event could not be scheduled, and the
        # telescope's capture could not tell a final record from one
        # still in flight.
        if self.base_delay < 0:
            raise ValueError("path base_delay must be >= 0 (got %r)" % self.base_delay)
        if self.jitter < 0:
            raise ValueError("path jitter must be >= 0 (got %r)" % self.jitter)
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("path loss_rate must lie in [0, 1] (got %r)" % self.loss_rate)

    def delay_for(
        self, jitter_fraction: float, src_access: float, dst_access: float
    ) -> float:
        """One-way delay with the jitter fixed by ``jitter_fraction`` ∈ [0, 1)."""
        return self.base_delay + src_access + dst_access + jitter_fraction * self.jitter


class Device:
    """Base class for anything attached to the network."""

    #: Access delay from this device to the network core, in seconds.
    access_delay = 0.005
    #: True for a device that never sends: the network hands it each
    #: datagram at transmit time and queues no event (module docstring).
    passive = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.network: "Network | None" = None

    # -- wiring --------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        self.network = network

    def prefixes(self) -> list[Prefix]:
        """Prefixes this device answers for (empty: send-only device)."""
        return []

    # -- traffic ---------------------------------------------------------------
    def handle_datagram(self, datagram: UdpDatagram, now: float) -> None:
        """Called when a datagram addressed to this device arrives."""

    def send(self, datagram: UdpDatagram) -> None:
        if self.network is None:
            raise RuntimeError("device %s is not attached to a network" % self.name)
        if self.passive:
            raise RuntimeError("passive device %s cannot send" % self.name)
        self.network.transmit(self, datagram)


class Network:
    """The simulated Internet: routing table + latency + loss."""

    def __init__(
        self,
        loop: EventLoop,
        rng: random.Random,
        path: PathModel | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.loop = loop
        self.rng = rng
        self.path = path or PathModel()
        self.obs = obs or NULL_OBS
        metrics = self.obs.metrics
        if metrics is not None:
            self._m_delivered = metrics.counter("net.delivered", ("device",))
            self._m_dropped = metrics.counter("net.dropped", ("reason", "device"))
        else:
            self._m_delivered = self._m_dropped = None
        # Path randomness is keyed, not streamed: one construction-time
        # draw salts a per-packet hash (see module docstring).
        self._path_salt = rng.getrandbits(64).to_bytes(8, "big")
        self._routes: RadixTree[Device] = RadixTree()
        #: ``_routes`` flattened for :meth:`route`; None after a change.
        self._intervals: tuple[list[int], list[Device | None]] | None = None

    def add_device(self, device: Device) -> None:
        if device.access_delay < 0:
            raise ValueError(
                "device %s: access_delay must be >= 0 (got %r)"
                % (device.name, device.access_delay)
            )
        device.attach(self)
        for prefix in device.prefixes():
            self.add_route(prefix, device)

    def add_route(self, prefix: Prefix | str, device: Device) -> None:
        """Announce an extra prefix for an already-attached device."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        self._routes.insert(prefix, device)
        self._intervals = None

    def route(self, address: int) -> Device | None:
        """Longest-prefix match, as a ``bisect`` over the flattened table."""
        if self._intervals is None:
            self._intervals = self._routes.flatten()
        starts, devices = self._intervals
        return devices[bisect_right(starts, address) - 1]

    def transmit(self, sender: Device, datagram: UdpDatagram) -> None:
        """Route ``datagram`` to the owner of its destination address."""
        # The route comes first: a datagram nobody will receive is dropped
        # without its payload ever being read, so a deferred one (a server
        # flight, see DeferredDatagram) is never sealed.
        target = self.route(datagram.dst_ip)
        tracer = self.obs.tracer
        if target is None:
            if self._m_dropped is not None:
                self._m_dropped.inc_key((DROP_NO_ROUTE, sender.name))
            if tracer.enabled:
                tracer.emit(
                    CAT_NET,
                    "packet_dropped",
                    time=self.loop.now,
                    reason=DROP_NO_ROUTE,
                    src_device=sender.name,
                    dst_ip=datagram.dst_ip,
                    bytes=datagram.payload_length,
                )
            return
        # The packet's fate: loss and jitter fractions in [0, 1), the two
        # halves of a keyed hash of the packet (see the module docstring).
        now = self.loop.now
        hasher = hashlib.blake2b(
            b"%b%d|%d|%d|%d|%b|" % (
                self._path_salt,
                datagram.src_ip,
                datagram.dst_ip,
                datagram.src_port,
                datagram.dst_port,
                repr(now).encode(),
            ),
            digest_size=16,
        )
        hasher.update(datagram.payload)
        digest = hasher.digest()
        path = self.path
        loss_rate = path.loss_rate
        if loss_rate and int.from_bytes(digest[:8], "big") / 2**64 < loss_rate:
            if self._m_dropped is not None:
                self._m_dropped.inc_key((DROP_LOSS, target.name))
            if tracer.enabled:
                tracer.emit(
                    CAT_NET,
                    "packet_dropped",
                    time=now,
                    reason=DROP_LOSS,
                    src_device=sender.name,
                    dst_device=target.name,
                    bytes=len(datagram.payload),
                )
            return
        delay = path.delay_for(
            int.from_bytes(digest[8:], "big") / 2**64,
            sender.access_delay,
            target.access_delay,
        )
        if self._m_delivered is not None:
            self._m_delivered.inc_key((target.name,))
        if tracer.enabled:
            tracer.emit(
                CAT_NET,
                "packet_delivered",
                time=now,
                src_device=sender.name,
                dst_device=target.name,
                delay=round(delay, 6),
                bytes=len(datagram.payload),
            )
        if target.passive:
            target.handle_datagram(datagram, now + delay)
        else:
            self.loop.schedule(
                delay, lambda: target.handle_datagram(datagram, self.loop.now)
            )
