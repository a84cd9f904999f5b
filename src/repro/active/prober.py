"""The scanning probe: drives QUIC handshakes against simulated deployments.

A single probe host (the paper scans "from a single scanning probe within a
university network") opens connections with successively decreasing source
ports — the trick that walks a consistent-hashing load balancer across its
backends — and returns each handshake's server connection ID, transport
parameters and certificate.
"""

from __future__ import annotations

import random

from repro.core.l7lb import host_id_of
from repro.netstack.addr import parse_ip
from repro.quic.cid.google import echoes_client_dcid
from repro.quic.version import QUIC_V1
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Network
from repro.workloads.clients import ClientConnection, ClientHost, HandshakeResult

DEFAULT_PROBE_ADDRESS = "198.51.100.10"  # TEST-NET-2


class Prober:
    """Synchronous handshake driver on top of the event loop."""

    def __init__(
        self,
        loop: EventLoop,
        network: Network,
        rng: random.Random | None = None,
        address: int | str = DEFAULT_PROBE_ADDRESS,
        suite: str = "null",
        timeout: float = 3.0,
    ) -> None:
        self.loop = loop
        self.network = network
        self.rng = rng or random.Random(0xB0BE)
        if isinstance(address, str):
            address = parse_ip(address)
        self.host = ClientHost("prober", address)
        network.add_device(self.host.device)
        self.suite = suite
        self.timeout = timeout
        #: The ClientConnection behind the most recent handshake() call.
        self.last_connection: ClientConnection | None = None
        self._next_port = 65000

    # ------------------------------------------------------------------ core
    def handshake(
        self,
        vip: int,
        src_port: int | None = None,
        version: int = QUIC_V1.value,
        server_name: str = "",
        dcid: bytes | None = None,
        timeout: float | None = None,
    ) -> HandshakeResult:
        """Run one handshake to completion or timeout; returns its result."""
        if src_port is None:
            src_port = self.take_port()
        connection = ClientConnection(
            rng=self.rng,
            src_ip=self.host.address,
            src_port=src_port,
            dst_ip=vip,
            version=version,
            server_name=server_name,
            dcid=dcid,
            suite=self.suite,
        )
        self.host.open(connection, self.loop.now)
        self.last_connection = connection
        self._run_until_complete(connection, timeout or self.timeout)
        return connection.result

    def _run_until_complete(self, connection: ClientConnection, timeout: float) -> None:
        deadline = self.loop.now + timeout
        while not connection.result.completed:
            next_time = self.loop.peek_time()
            if next_time is None or next_time > deadline:
                return
            self.loop.step()
        # Drain the rest of the flight (e.g. the non-coalesced Handshake
        # datagram carrying the certificate) before returning.
        grace = self.loop.now + 0.05
        while True:
            next_time = self.loop.peek_time()
            if next_time is None or next_time > grace:
                break
            self.loop.step()

    def take_port(self) -> int:
        """Successively decreasing source ports, as in the paper's scans."""
        port = self._next_port
        self._next_port -= 1
        if self._next_port < 1025:
            self._next_port = 65000
        return port

    def advance(self, seconds: float) -> None:
        """Let simulated time pass (processing due events)."""
        self.loop.run_until(self.loop.now + seconds)

    # -------------------------------------------------------------- campaigns
    def enumerate_host_ids(
        self, vip: int, handshakes: int, stop_after_stable: int = 0
    ) -> list[int | None]:
        """Host-ID sequence from ``handshakes`` port-varying handshakes.

        ``stop_after_stable`` > 0 ends the campaign early once that many
        consecutive handshakes yield no previously-unseen host ID — the
        practical convergence cutoff for bulk scans (§4.3 shows discovery
        converges quickly).
        """
        sequence: list[int | None] = []
        seen: set[int] = set()
        stable = 0
        for _ in range(handshakes):
            result = self.handshake(vip)
            host_id = host_id_of(result.server_scid) if result.completed else None
            sequence.append(host_id)
            if host_id is not None and host_id not in seen:
                seen.add(host_id)
                stable = 0
            else:
                stable += 1
                if stop_after_stable and stable >= stop_after_stable:
                    break
        return sequence

    def scan_vips(
        self,
        vips: list[int],
        handshakes_per_vip: int,
        stop_after_stable: int = 0,
    ) -> dict[int, set[int]]:
        """Paper §4.3: per-VIP host-ID sets from bulk scanning."""
        out: dict[int, set[int]] = {}
        for vip in vips:
            ids = self.enumerate_host_ids(
                vip, handshakes_per_vip, stop_after_stable=stop_after_stable
            )
            out[vip] = {h for h in ids if h is not None}
        return out

    def detect_echo_behaviour(self, vip: int, attempts: int = 3) -> bool:
        """Probe with chosen DCIDs: does the server echo them as its SCID?

        This is how the paper establishes that Google does not choose its
        own connection IDs (§4.2 "Google SCIDs").
        """
        echoes = 0
        completed = 0
        for _ in range(attempts):
            dcid = self.rng.getrandbits(96).to_bytes(12, "big")
            result = self.handshake(vip, dcid=dcid)
            if not result.completed:
                continue
            completed += 1
            if echoes_client_dcid(result.server_scid, dcid):
                echoes += 1
        return completed > 0 and echoes == completed

    def transport_parameters(self, vip: int):
        """Zirngibl-style stateful scan: the server's transport parameters."""
        return self.handshake(vip).transport_parameters

    def certificate(self, vip: int):
        return self.handshake(vip).certificate
