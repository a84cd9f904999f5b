"""The darknet capture device.

A telescope owns an unused prefix (CAIDA's is a /9) and records every
packet routed to it — scans addressed directly at dark space, and
backscatter: server replies to attack traffic whose spoofed sources fell
inside the prefix.  Captures serialize to standard pcap for external
tooling and deserialize back for the analysis pipeline.

The capture is not held in memory: each packet is encapsulated straight
into a :class:`~repro.netstack.capbuf.CaptureBuffer` as a pcap record,
and once the pending bytes pass :data:`~repro.netstack.capbuf.SPOOL_AFTER`
the records stamped below the event loop's clock — final, because every
later arrival is stamped ``now + delay`` with ``delay >= 0`` — go to the
buffer's anonymous spool.  The buffer keeps the canonical capture order
as records are appended, so :meth:`Telescope.write_pcap` is one copy of the spool
and the in-flight tail, and ``records`` is what a reader of that pcap
reads back.
"""

from __future__ import annotations

from typing import BinaryIO

from repro.netstack.addr import Prefix
from repro.netstack.capbuf import SPOOL_AFTER, CaptureBuffer
from repro.netstack.udp import QUIC_PORT, UdpDatagram, ip_udp_header
from repro.obs import NULL_OBS, Observability
from repro.obs.trace import CAT_TELESCOPE
from repro.simnet.network import Device

#: The UCSD network telescope operates a /9; scenarios default to it.
DEFAULT_PREFIX = "44.0.0.0/9"

#: Payload-size buckets for the capture histogram (bytes); spans the
#: paper's characteristic datagram sizes (Figure 7).
CAPTURE_SIZE_BOUNDS = (64, 128, 256, 512, 1024, 1200, 1280, 1357, 1472)


class Telescope(Device):
    """Records all traffic to its prefix."""

    #: Never responds to anything, so the network delivers to it at
    #: transmit time: ``now`` below is the arrival time, and arrivals may
    #: come slightly out of order (the capture buffer puts them in capture order).
    passive = True

    def __init__(
        self,
        name: str = "telescope",
        prefix: Prefix | str = DEFAULT_PREFIX,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(name)
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        self.prefix = prefix
        #: In-flight records in memory, final ones spooled; ``self.records``
        #: stays a sequence of :class:`PcapRecord` (a lazy view) for every
        #: existing consumer.
        self.capture = CaptureBuffer()
        self.records = self.capture.records
        obs = obs or NULL_OBS
        self._tracer = obs.tracer
        if obs.metrics is not None:
            self._m_captured = obs.metrics.counter("telescope.captured", ("kind",))
            self._m_bytes = obs.metrics.histogram(
                "telescope.payload_bytes", CAPTURE_SIZE_BOUNDS, ("kind",)
            )
        else:
            self._m_captured = None
            self._m_bytes = None

    def prefixes(self) -> list[Prefix]:
        return [self.prefix]

    def handle_datagram(self, datagram: UdpDatagram, now: float) -> None:
        # One append per record: the IP/UDP header and the payload go into
        # the contiguous capture buffer behind the pcap record header, with
        # no whole-packet intermediate.
        capture = self.capture
        payload = datagram.payload
        capture.append(now, ip_udp_header(datagram, payload), payload)
        if len(capture.data) > SPOOL_AFTER and self.network is not None:
            # Arrivals yet to come are stamped at or after the loop's
            # clock (path delays are >= 0): what lies below it is final.
            capture.release(self.network.loop.now)
        if self._m_captured is not None or self._tracer.enabled:
            # Candidate class from ports alone (sanitization refines later).
            if datagram.src_port == QUIC_PORT:
                kind = "backscatter"
            elif datagram.dst_port == QUIC_PORT:
                kind = "scan"
            else:
                kind = "other"
            if self._m_captured is not None:
                self._m_captured.inc_key((kind,))
                self._m_bytes.observe_key((kind,), len(datagram.payload))
            if self._tracer.enabled:
                self._tracer.emit(
                    CAT_TELESCOPE,
                    "capture",
                    time=now,
                    kind=kind,
                    src_ip=datagram.src_ip,
                    dst_ip=datagram.dst_ip,
                    bytes=len(datagram.payload),
                )

    # -- persistence -----------------------------------------------------------
    def write_pcap(self, fileobj: BinaryIO) -> None:
        """The capture as a pcap, in the canonical capture order."""
        self.capture.write_pcap(fileobj)

    def __len__(self) -> int:
        return len(self.records)
