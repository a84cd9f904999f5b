"""Layer-4 load balancer: Maglev over L7 hosts, IP-in-IP tunneling.

Katran-style: the L4LB does not terminate anything.  It picks an L7 host —
by consistent-hashing the 5-tuple (Facebook-style), the first 8 bytes of
the destination connection ID (CID-aware, Google-style), or by decoding a
QUIC-LB routable CID (the IETF draft) — and tunnels the client packet to
that host unchanged.

Routing 1-RTT (short-header) packets requires knowing the CID length the
deployment uses: short headers do not carry it (paper §2.2), which is why
``cid_length`` is part of the balancer's configuration.

Key classes: :class:`L4LoadBalancer` (this module),
:class:`~repro.server.lb.maglev.MaglevTable` (the backend-selection
table), :class:`~repro.quic.cid.quic_lb.QuicLbScheme` counterparts for
routable CIDs.  All selection is hashing over packet fields; nothing
here draws from an rng at dispatch time.
"""

from __future__ import annotations

from repro.netstack import encap
from repro.netstack.udp import UdpDatagram
from repro.obs import NULL_OBS, Observability
from repro.obs.trace import CAT_LB
from repro.quic.cid import quic_lb
from repro.quic.cid.quic_lb import QuicLbConfig, QuicLbError
from repro.quic.packet import FORM_BIT, PacketParseError, parse_long_header
from repro.server.lb.l7lb import L7LbHost
from repro.server.lb.maglev import MaglevTable, flow_key
from repro.server.profiles import ROUTE_CID, ROUTE_QUIC_LB


class L4LoadBalancer:
    """One L4LB instance; all instances of a cluster share the Maglev view."""

    def __init__(
        self,
        name: str,
        address: int,
        hosts: list[L7LbHost],
        routing: str,
        table_size: int = 1021,
        maglev: MaglevTable | None = None,
        cid_length: int = 8,
        quic_lb_config: QuicLbConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        if not hosts:
            raise ValueError("L4LB needs at least one L7 host")
        obs = obs or NULL_OBS
        self._tracer = obs.tracer
        self._m_dispatch = (
            obs.metrics.counter("lb.dispatch", ("lb", "routing"))
            if obs.metrics is not None
            else None
        )
        self.name = name
        self.address = address
        self.hosts = hosts
        self.routing = routing
        self.cid_length = cid_length
        self.maglev = maglev or MaglevTable(
            [b"l7-%d" % h.host_id for h in hosts], table_size=table_size
        )
        self.quic_lb_config = quic_lb_config
        #: QUIC-LB server IDs are the hosts' host IDs.
        self._host_by_server_id = {host.host_id: host for host in hosts}
        if routing == ROUTE_QUIC_LB and quic_lb_config is None:
            raise ValueError("QUIC-LB routing requires a QuicLbConfig")

    def extract_dcid(self, datagram: UdpDatagram) -> bytes:
        """Best-effort DCID (empty on failure).

        Long headers self-describe their CID lengths; short headers are
        sliced at the configured deployment CID length.
        """
        payload = datagram.payload
        if not payload:
            return b""
        if payload[0] & FORM_BIT:
            try:
                return parse_long_header(payload).dcid
            except PacketParseError:
                return b""
        if len(payload) >= 1 + self.cid_length:
            return payload[1 : 1 + self.cid_length]
        return b""

    def routing_key(self, datagram: UdpDatagram, dcid: bytes) -> bytes:
        if self.routing == ROUTE_CID and dcid:
            return b"cid|" + dcid[:8]
        return flow_key(
            datagram.src_ip, datagram.src_port, datagram.dst_ip, datagram.dst_port
        )

    def select_host(self, datagram: UdpDatagram, dcid: bytes) -> L7LbHost:
        """The routing decision, free of side effects (probes call it too)."""
        if self.routing == ROUTE_QUIC_LB and dcid and self.quic_lb_config:
            try:
                server_id, _nonce = quic_lb.decode(self.quic_lb_config, dcid)
                host = self._host_by_server_id.get(server_id)
                if host is not None:
                    return host
            except QuicLbError:
                pass
            # Unroutable CID (e.g. the client's random first DCID): fall
            # back to consistent hashing, as the draft prescribes.
            return self.hosts[self.maglev.lookup(b"cid|" + dcid[:8])]
        return self.hosts[self.maglev.lookup(self.routing_key(datagram, dcid))]

    def forward(self, datagram: UdpDatagram, now: float) -> L7LbHost:
        """Tunnel ``datagram`` to the selected host; returns that host.

        The IP-in-IP round trip is performed for real so the tunnel path is
        exercised; the host then handles the decapsulated inner packet.
        """
        dcid = self.extract_dcid(datagram)
        host = self.select_host(datagram, dcid)
        tunneled = encap.encapsulate(datagram, self.address, host.address)
        if self._m_dispatch is not None:
            self._m_dispatch.inc_key((self.name, self.routing))
        if self._tracer.enabled:
            self._tracer.emit(
                CAT_LB,
                "dispatch",
                time=now,
                lb=self.name,
                routing=self.routing,
                host_id=host.host_id,
                dcid=dcid.hex(),
                src_ip=datagram.src_ip,
            )
        _src, _dst, inner = encap.decapsulate(tunneled)
        host.handle(inner, dcid, now)
        return host
