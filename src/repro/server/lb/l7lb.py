"""Layer-7 load balancer host: terminates QUIC, one engine per worker.

The L7LB is the entity the paper enumerates.  Each host carries a cluster-
unique ``host_id`` (encoded into mvfst SCIDs); each host runs several
worker processes, and connection state lives *per worker* — matching the
paper's finding that "Facebook server instances track QUIC connection
states per host and worker".

Worker selection hashes the first CID bytes (long headers) or the
5-tuple (short headers) — no shared random state — and engines are
created lazily from a per-host seed XOR the worker id.  Both properties
make dispatch and engine behaviour independent of packet arrival order,
which is what allows ``repro.simnet.shard`` to split a scenario across
processes and still merge back the exact serial capture.

Key classes: :class:`L7LbHost` (this module),
:class:`~repro.server.engine.QuicServerEngine` (the per-worker
terminator it multiplexes).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable

from repro.netstack.udp import UdpDatagram
from repro.obs import NULL_OBS, Observability
from repro.server.engine import QuicServerEngine
from repro.server.profiles import ROUTE_CID, ServerProfile
from repro.simnet.eventloop import EventLoop
from repro.tls.certs import Certificate


class L7LbHost:
    """One layer-7 load balancer (a physical server behind the VIPs)."""

    def __init__(
        self,
        host_id: int,
        profile: ServerProfile,
        loop: EventLoop,
        rng: random.Random,
        send: Callable[[UdpDatagram], None],
        certificate: Certificate | None = None,
        address: int = 0,
        obs: Observability | None = None,
    ) -> None:
        self.host_id = host_id
        self.profile = profile
        self.address = address  # internal (tunnel) address of the host
        self._loop = loop
        self._send = send
        self._certificate = certificate
        self._obs = obs or NULL_OBS
        # Workers are materialized lazily: large clusters have hundreds of
        # hosts and most never receive a packet in a given scenario.
        self._workers: dict[int, QuicServerEngine] = {}
        # Derive per-host determinism from the scenario RNG once.
        self._seed = rng.getrandbits(64)

    @property
    def worker_count(self) -> int:
        return self.profile.workers_per_host

    def _worker(self, worker_id: int) -> QuicServerEngine:
        engine = self._workers.get(worker_id)
        if engine is None:
            engine = QuicServerEngine(
                profile=self.profile,
                loop=self._loop,
                rng=random.Random(self._seed ^ (worker_id * 0x9E3779B97F4A7C15)),
                send=self._send,
                host_id=self.host_id,
                worker_id=worker_id,
                process_id=self.host_id & 1,
                certificate=self._certificate,
                obs=self._obs,
            )
            self._workers[worker_id] = engine
        return engine

    def select_worker_id(self, datagram: UdpDatagram, dcid: bytes) -> int:
        """Stable worker choice: keyed like the fabric routes (5-tuple or CID)."""
        if self.profile.routing == ROUTE_CID and dcid:
            key = dcid[:8]
        else:
            key = b"%d|%d" % (datagram.src_ip, datagram.src_port)
        digest = hashlib.sha256(b"worker" + key).digest()
        return digest[0] % self.worker_count

    def handle(self, datagram: UdpDatagram, dcid: bytes, now: float) -> None:
        self._worker(self.select_worker_id(datagram, dcid)).on_datagram(datagram, now)

    # -- introspection used by tests and analyses ---------------------------
    @property
    def workers(self) -> dict[int, QuicServerEngine]:
        return self._workers
