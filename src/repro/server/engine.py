"""Server-side QUIC engine: handshakes, retransmissions, state discard.

One engine instance represents one *worker* (process) on one L7LB host —
the granularity at which Facebook tracks connection state (paper §4.3).
The engine implements the behaviours the telescope observes:

* replies to client Initials with an Initial+Handshake flight, coalesced or
  not per profile, padded to the profile's characteristic datagram sizes;
* retransmits the flight on the profile's RTO schedule (exponential
  backoff) up to the instance's maximum — the Figure 3/4 signal;
* chooses SCIDs through the profile's CID scheme — the Figure 5 signal;
* silently discards packets that match an existing connection's CID but
  are inconsistent with its state (RFC 9000 §5.2) — the Appendix-D lever
  used to detect same-instance routing.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.lru import LruCache
from repro.netstack.udp import QUIC_PORT, DeferredDatagram, UdpDatagram
from repro.obs import NULL_OBS, Observability
from repro.obs.trace import (
    CAT_CONNECTIVITY,
    CAT_RECOVERY,
    CAT_SECURITY,
    CAT_TRANSPORT,
)
from repro.quic.cid.base import CidContext, RandomScheme
from repro.quic.cid.google import GoogleEchoScheme
from repro.quic.crypto.suites import (
    PacketProtection,
    ProtectionError,
    TAG_LENGTH,
    suite_by_name,
)
from repro.quic.frames import (
    AckFrame,
    AckRange,
    CryptoFrame,
    FrameParseError,
    NewConnectionIdFrame,
    PingFrame,
    decode_frames,
    encode_frames,
)
from repro.quic.packet import (
    FORM_BIT,
    PacketParseError,
    PacketType,
    RetryPacket,
    ShortHeaderPacket,
    VersionNegotiationPacket,
    decode_datagram,
    encode_retry,
    encode_short_packet,
    encode_version_negotiation,
    header_length,
    packet_template,
    parse_short_header,
    unprotect_short_packet,
)
from repro.quic.transport_params import (
    ACTIVE_CONNECTION_ID_LIMIT,
    INITIAL_SOURCE_CONNECTION_ID,
    MAX_IDLE_TIMEOUT,
    MAX_UDP_PAYLOAD_SIZE,
    TransportParameters,
)
from repro.server.profiles import ServerProfile
from repro.simnet.eventloop import Event, EventLoop
from repro.tls.certs import Certificate
from repro.tls.handshake import ServerHello, encode_handshake

#: Marker introducing the certificate blob inside Handshake CRYPTO data.
CERT_MAGIC = b"CRT1"

#: Every stateless reset is 6 unpredictable bytes plus the 16-byte token.
_STATELESS_RESET_LENGTH = 22

#: ``transport.datagram_bytes`` buckets.  The inner bounds sit exactly on
#: the profiles' characteristic padded sizes (1052/1200/1232/1242/1252),
#: so Figure 7's length signatures can be read straight off the metrics
#: without a pcap pass.
DATAGRAM_LENGTH_BOUNDS = (200, 600, 1000, 1052, 1200, 1232, 1242, 1252, 1300, 1500)


def datagram_length_bounds(expected_events: Optional[int] = None) -> tuple:
    """``transport.datagram_bytes`` buckets, densified with scenario scale.

    The static set keeps one bucket per characteristic size — fine for
    default runs, but at 10^6+ events each bucket holds so many samples
    that the shape between the characteristic sizes disappears.  The
    scale hint (the event loop's ``expected_events``, derived from the
    full scenario config so all shard workers agree) adds a 100-byte grid
    at 10^6+ and a 50-byte grid at 10^8+, always keeping the exact
    characteristic sizes as bounds.
    """
    if not expected_events or expected_events < 1_000_000:
        return DATAGRAM_LENGTH_BOUNDS
    bounds = set(DATAGRAM_LENGTH_BOUNDS)
    step = 50 if expected_events >= 100_000_000 else 100
    bounds.update(range(step, 1551, step))
    return tuple(sorted(bounds))


#: What the engine puts into a :class:`DeferredDatagram`: the payload
#: length and the builder that produces those bytes on first read.
_Planned = tuple[int, Callable[[], bytes]]


def _ready(data: bytes) -> _Planned:
    """Already-built bytes, in the shape a planned datagram takes."""
    return len(data), lambda: data


class ConnState(enum.Enum):
    AWAIT_CLIENT = 1  # flight sent, waiting for client Handshake/ACK
    ESTABLISHED = 2
    CLOSED = 3


@dataclass
class ServerConnection:
    """Per-connection server state."""

    scid: bytes  # server-chosen CID (S2)
    original_dcid: bytes  # client's temporary server CID (S1)
    client_cid: bytes  # client-chosen CID (C1)
    client_ip: int
    client_port: int
    vip: int
    version: int
    protection: PacketProtection
    state: ConnState = ConnState.AWAIT_CLIENT
    created_at: float = 0.0
    last_active: float = 0.0
    retransmits_done: int = 0
    max_retransmits: int = 0
    retransmit_event: Optional[Event] = None
    next_packet_number: int = 0
    coalesced: bool = False
    #: Additional CIDs issued via NEW_CONNECTION_ID (sequence order).
    issued_cids: list[bytes] = field(default_factory=list)
    short_packet_number: int = 0
    #: Private rng derived from the engine seed and the client's
    #: (address, port, DCID) — see :meth:`QuicServerEngine._derive_rng`.
    rng: Optional[random.Random] = None
    #: This connection's bound flight, built when it first sends one.
    flight_layout: Optional["_ConnFlight"] = None

    def consistent_with(self, datagram: UdpDatagram, client_scid: bytes) -> bool:
        """Does this packet plausibly continue the stored connection?"""
        return (
            datagram.src_ip == self.client_ip
            and datagram.src_port == self.client_port
            and client_scid == self.client_cid
        )


class _FlightLayout:
    """Precomputed Initial+Handshake flight bytes for one flight *shape*.

    Everything in a handshake flight is determined by the connection's
    shape — ``(version, dcid length, scid length, coalesced)`` — except
    the 32-byte ServerHello random, the server CID, the two header CIDs
    and the two packet numbers: the transport parameters, ACK and CRYPTO
    framing, padding, both header skeletons (via
    :func:`~repro.quic.packet.packet_template`) and the padding deficits
    (computed analytically from
    :func:`~repro.quic.packet.header_length`) are all shared.  A layout
    is a function of its constructor arguments alone — four profile
    fields, the Handshake CRYPTO payload (the certificate), the shape —
    and never written after ``__init__``, so one is built per *deployment*
    shape and shared by every worker that serves it (:data:`_LAYOUTS`, an
    engine's own dict being the first lookup).  :meth:`bind` splices a
    connection's CIDs into copies of the skeletons once, after which every
    flight — and the retransmissions that dominate emission — reduces to:
    one rng draw at send time and, if anybody ever reads the datagram, a
    three-way payload join, a header copy with a one-byte PN patch, and
    one AEAD seal per packet.  The datagram lengths follow from the
    shape too, so a flight can be counted and traced without being built.

    The scid's offset inside the encrypted payload (it rides in the
    INITIAL_SOURCE_CONNECTION_ID transport parameter) is located by
    encoding the payload twice with two distinct sentinel CIDs and
    diffing — collision-proof, unlike searching for a magic substring.
    """

    __slots__ = (
        "prefix",
        "mid",
        "suffix",
        "handshake_payload",
        "initial_padding",
        "handshake_padding",
        "initial_template",
        "handshake_template",
        "coalesced",
    )

    #: ServerHello random sentinel; replaced per flight by the rng draw.
    _RANDOM_SENTINEL = bytes(range(32))

    def __init__(
        self,
        idle_timeout: float,
        initial_datagram_size: int,
        handshake_datagram_size: int,
        coalesced_datagram_size: int,
        handshake_payload: bytes,
        version: int,
        dcid_len: int,
        scid_len: int,
        coalesced: bool,
    ) -> None:
        payload_a = self._initial_payload(idle_timeout, b"\x00" * scid_len)
        payload_b = self._initial_payload(idle_timeout, b"\xff" * scid_len)
        diff = [i for i in range(len(payload_a)) if payload_a[i] != payload_b[i]]
        if scid_len:
            scid_offset = diff[0]
            if diff != list(range(scid_offset, scid_offset + scid_len)):
                raise AssertionError("scid region is not contiguous in payload")
        else:
            scid_offset = len(payload_a)
        random_offset = payload_a.index(self._RANDOM_SENTINEL)
        if random_offset + 32 > scid_offset:
            raise AssertionError("ServerHello random must precede the scid")
        prefix = payload_a[:random_offset]
        mid = payload_a[random_offset + 32 : scid_offset]
        suffix = payload_a[scid_offset + scid_len :]

        def encoded_length(packet_type: PacketType, payload_len: int) -> int:
            return (
                header_length(packet_type, dcid_len, scid_len, 0, payload_len, 1)
                + payload_len
                + TAG_LENGTH
            )

        initial_len = len(payload_a)
        handshake_len = len(handshake_payload)
        initial_pad = 0
        if coalesced:
            total = encoded_length(PacketType.INITIAL, initial_len) + encoded_length(
                PacketType.HANDSHAKE, handshake_len
            )
            handshake_pad = max(0, coalesced_datagram_size - total)
        else:
            initial_pad = max(
                0,
                initial_datagram_size
                - encoded_length(PacketType.INITIAL, initial_len),
            )
            handshake_pad = max(
                0,
                handshake_datagram_size
                - encoded_length(PacketType.HANDSHAKE, handshake_len),
            )
            initial_len += initial_pad
        handshake_len += handshake_pad

        self.prefix = prefix
        self.mid = mid
        self.suffix = suffix
        self.handshake_payload = handshake_payload
        # The PADDING after each payload, counted: the seal writes it.
        self.initial_padding = initial_pad
        self.handshake_padding = handshake_pad
        self.initial_template = packet_template(
            PacketType.INITIAL, version, dcid_len, scid_len, 0, initial_len, 1
        )
        self.handshake_template = packet_template(
            PacketType.HANDSHAKE, version, dcid_len, scid_len, 0, handshake_len, 1
        )
        self.coalesced = coalesced

    @staticmethod
    def _initial_payload(idle_timeout: float, scid: bytes) -> bytes:
        params = TransportParameters()
        params.set(INITIAL_SOURCE_CONNECTION_ID, scid)
        params.set(MAX_IDLE_TIMEOUT, int(idle_timeout * 1000))
        params.set(MAX_UDP_PAYLOAD_SIZE, 1472)
        params.set(ACTIVE_CONNECTION_ID_LIMIT, 4)
        hello = encode_handshake(
            ServerHello(
                random=_FlightLayout._RANDOM_SENTINEL,
                quic_transport_parameters=params.encode(),
            )
        )
        return encode_frames(
            [
                AckFrame(largest_acked=0, ranges=(AckRange(0, 0),)),
                CryptoFrame(offset=0, data=hello),
            ]
        )

    def bind(self, conn: ServerConnection) -> "_ConnFlight":
        """Splice one connection's CIDs into the shared skeletons."""
        return _ConnFlight(
            prefix=self.prefix,
            suffix=b"".join((self.mid, conn.scid, self.suffix)),
            handshake_payload=self.handshake_payload,
            initial_padding=self.initial_padding,
            handshake_padding=self.handshake_padding,
            initial_header=bytearray(
                self.initial_template.render(conn.client_cid, conn.scid, 0)
            ),
            handshake_header=bytearray(
                self.handshake_template.render(conn.client_cid, conn.scid, 0)
            ),
            coalesced=self.coalesced,
        )


#: The process's flight layouts by ``_FlightLayout``'s arguments: ≈150 in a
#: month with thousands of workers; past the bound one is rebuilt, same bytes.
_LAYOUTS = LruCache(512)


class _ConnFlight:
    """One connection's bound flight: headers rendered, payload split."""

    __slots__ = (
        "prefix",
        "suffix",
        "handshake_payload",
        "initial_padding",
        "handshake_padding",
        "initial_header",
        "handshake_header",
        "initial_length",
        "handshake_length",
        "coalesced",
    )

    def __init__(
        self,
        prefix: bytes,
        suffix: bytes,
        handshake_payload: bytes,
        initial_padding: int,
        handshake_padding: int,
        initial_header: bytearray,
        handshake_header: bytearray,
        coalesced: bool,
    ) -> None:
        self.prefix = prefix
        self.suffix = suffix
        self.handshake_payload = handshake_payload
        self.initial_padding = initial_padding
        self.handshake_padding = handshake_padding
        self.initial_header = initial_header
        self.handshake_header = handshake_header
        # Sealed sizes, known without sealing: header + payload + tag.
        self.initial_length = (
            len(initial_header)
            + len(prefix)
            + 32
            + len(suffix)
            + initial_padding
            + TAG_LENGTH
        )
        self.handshake_length = (
            len(handshake_header)
            + len(handshake_payload)
            + handshake_padding
            + TAG_LENGTH
        )
        self.coalesced = coalesced

    def datagrams(self, conn: ServerConnection, rng: random.Random) -> list[_Planned]:
        """Plan one flight's datagrams (one 256-bit rng draw per flight).

        Everything that makes this flight differ from the connection's
        next one — the ServerHello random and the packet numbers — is
        fixed here, at send time; the builders only render and seal, so
        they give the same bytes whenever, and in whatever order, the
        datagrams are read.
        """
        random32 = rng.getrandbits(256).to_bytes(32, "big")
        pn = conn.next_packet_number
        conn.next_packet_number += 2
        protection = conn.protection

        def initial() -> bytes:
            header = self.initial_header.copy()
            header[-1] = pn & 0xFF  # pn_length is 1 in every flight
            return protection.protect(
                True,
                header,
                pn,
                b"".join((self.prefix, random32, self.suffix)),
                self.initial_padding,
            )

        def handshake() -> bytes:
            header = self.handshake_header.copy()
            header[-1] = (pn + 1) & 0xFF
            return protection.protect(
                True, header, pn + 1, self.handshake_payload, self.handshake_padding
            )

        if self.coalesced:
            return [
                (
                    self.initial_length + self.handshake_length,
                    lambda: initial() + handshake(),
                )
            ]
        return [(self.initial_length, initial), (self.handshake_length, handshake)]


class QuicServerEngine:
    """One QUIC-terminating worker process."""

    def __init__(
        self,
        profile: ServerProfile,
        loop: EventLoop,
        rng: random.Random,
        send: Callable[[UdpDatagram], None],
        host_id: int = 0,
        worker_id: int = 0,
        process_id: int = 0,
        certificate: Certificate | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.profile = profile
        self.loop = loop
        self.rng = rng
        self._send = send
        self.host_id = host_id
        self.worker_id = worker_id
        self.process_id = process_id
        self.certificate = certificate
        obs = obs or NULL_OBS
        # Per-worker scoped tracer: every event carries profile/host/worker.
        self._tracer = (
            obs.tracer.scoped(
                profile=profile.name, host=host_id, worker=worker_id
            )
            if obs.tracer.enabled
            else obs.tracer
        )
        self._m_events = (
            obs.metrics.counter("engine.events", ("event", "profile"))
            if obs.metrics is not None
            else None
        )
        # Flight-level transport telemetry (ROADMAP: per-flight byte counts
        # so Figure 7 cross-checks need no pcap pass).
        if obs.metrics is not None:
            self._m_datagrams = obs.metrics.counter(
                "transport.datagrams_sent", ("profile",)
            )
            self._m_flight_bytes = obs.metrics.counter(
                "transport.flight_bytes", ("profile",)
            )
            self._m_datagram_bytes = obs.metrics.histogram(
                "transport.datagram_bytes",
                datagram_length_bounds(getattr(loop, "expected_events", None)),
                ("profile",),
            )
        else:
            self._m_datagrams = None
            self._m_flight_bytes = None
            self._m_datagram_bytes = None
        self._suite = suite_by_name(profile.protection_suite)
        #: Lazily encoded Handshake CRYPTO payload (constant per engine).
        self._handshake_payload: Optional[bytes] = None
        self._flight_layouts: dict[tuple, _FlightLayout] = {}
        #: Connections addressable by the server-chosen CID.
        self._by_scid: dict[bytes, ServerConnection] = {}
        #: Dedup of client Initials: (src, sport, original dcid) → connection.
        self._by_origin: dict[tuple[int, int, bytes], ServerConnection] = {}
        self._max_retransmits = profile.draw_max_retransmits(rng)
        # One construction-time draw seeds all per-connection randomness:
        # each connection derives its own rng from (this seed, client ip,
        # port, DCID), so every reply is a pure function of the arriving
        # packet rather than of global event interleaving.  That property
        # is what lets sharded multi-process runs merge into the exact
        # capture a serial run produces.
        self._conn_seed = rng.getrandbits(64)
        # CID rotation: echo schemes cannot mint *new* IDs (they only
        # reflect the client's DCID), so rotation falls back to random —
        # exactly the property that breaks migration under CID-aware
        # routing without encoded information (paper §2.2).
        if isinstance(profile.cid_scheme, GoogleEchoScheme):
            self._rotation_scheme = RandomScheme(length=profile.cid_scheme.length)
        else:
            self._rotation_scheme = profile.cid_scheme

    # ------------------------------------------------------------------ API
    def holds(self, cid: bytes) -> bool:
        """Does a 1-RTT packet to ``cid`` reach one of this engine's connections?"""
        return cid in self._by_scid

    def _count(self, event: str) -> None:
        """The one count of a server event: ``engine.events{event, profile}``."""
        if self._m_events is not None:
            self._m_events.inc_key((event, self.profile.name))

    def _derive_rng(self, src_ip: int, src_port: int, dcid: bytes) -> random.Random:
        """An rng keyed by the engine seed and one client's identity."""
        key = b"%d|%d|%d|" % (self._conn_seed, src_ip, src_port) + dcid
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return random.Random(int.from_bytes(digest, "big"))

    def on_datagram(self, datagram: UdpDatagram, now: float) -> None:
        """Entry point: one UDP datagram addressed to this worker."""
        if datagram.payload and not datagram.payload[0] & FORM_BIT:
            self._on_short(datagram, now)
            return
        try:
            packets = decode_datagram(datagram.payload)
        except PacketParseError:
            self._count("non_quic_ignored")
            return
        parsed, _raw = packets[0]
        if self._tracer.enabled:
            self._tracer.emit(
                CAT_TRANSPORT,
                "packet_received",
                time=now,
                packet_type=parsed.packet_type.name.lower(),
                dcid=parsed.dcid.hex(),
                src_ip=datagram.src_ip,
                bytes=len(datagram.payload),
            )
        self._count("packets_received")

        if parsed.packet_type is PacketType.VERSION_NEGOTIATION:
            return  # servers never act on VN
        existing = self._by_scid.get(parsed.dcid)
        if existing is not None:
            self._on_existing(existing, datagram, parsed, now)
            return
        if parsed.packet_type is PacketType.INITIAL:
            self._on_new_initial(datagram, parsed, now)
        elif parsed.packet_type is PacketType.ZERO_RTT:
            # 0-RTT without cached state: silently dropped.
            self._count("discarded_inconsistent")
        else:
            # A Handshake packet for no connection: silently dropped.
            self._count("unknown_connection")

    # ----------------------------------------------------------- internals
    def _on_existing(
        self, conn: ServerConnection, datagram: UdpDatagram, parsed, now: float
    ) -> None:
        if (
            conn.state is ConnState.ESTABLISHED
            and now - conn.last_active > self.profile.idle_timeout
        ):
            self._expire(conn, now)
            if parsed.packet_type is PacketType.INITIAL:
                self._on_new_initial(datagram, parsed, now)
            return
        if not conn.consistent_with(datagram, parsed.scid):
            # RFC 9000 §5.2: inconsistent packets for a known CID are
            # silently discarded.  This is the Appendix-D observable.
            self._count("discarded_inconsistent")
            return
        conn.last_active = now
        if conn.state is ConnState.AWAIT_CLIENT:
            conn.state = ConnState.ESTABLISHED
            self._count("connections_established")
            if self._tracer.enabled:
                self._tracer.emit(
                    CAT_CONNECTIVITY,
                    "connection_established",
                    time=now,
                    cid=conn.scid.hex(),
                    retransmits=conn.retransmits_done,
                )
            if conn.retransmit_event is not None:
                conn.retransmit_event.cancel()
                conn.retransmit_event = None
            self._issue_new_cid(conn)

    def _on_new_initial(self, datagram: UdpDatagram, parsed, now: float) -> None:
        origin_key = (datagram.src_ip, datagram.src_port, parsed.dcid)
        if origin_key in self._by_origin:
            # Duplicate client Initial: the flight is already scheduled.
            self._count("duplicate_initial")
            return
        if parsed.version not in self.profile.supported_versions:
            self._send_version_negotiation(datagram, parsed)
            return
        conn_rng = self._derive_rng(datagram.src_ip, datagram.src_port, parsed.dcid)
        if (
            self.profile.retry_probability
            and not parsed.token
            and conn_rng.random() < self.profile.retry_probability
        ):
            self._send_retry(datagram, parsed, conn_rng)
            return

        context = CidContext(
            host_id=self.host_id,
            worker_id=self.worker_id,
            process_id=self.process_id,
            client_dcid=parsed.dcid,
        )
        scid = self.profile.cid_scheme.generate(conn_rng, context)
        protection = self._suite(parsed.version, parsed.dcid)
        conn = ServerConnection(
            scid=scid,
            original_dcid=parsed.dcid,
            client_cid=parsed.scid,
            client_ip=datagram.src_ip,
            client_port=datagram.src_port,
            vip=datagram.dst_ip,
            version=parsed.version,
            protection=protection,
            created_at=now,
            last_active=now,
            max_retransmits=self._max_retransmits,
            coalesced=conn_rng.random() < self.profile.coalesce_probability,
            rng=conn_rng,
        )
        self._by_scid[scid] = conn
        self._by_origin[origin_key] = conn
        self._count("connections_created")
        if self._tracer.enabled:
            self._tracer.emit(
                CAT_CONNECTIVITY,
                "connection_created",
                time=now,
                cid=scid.hex(),
                client_cid=parsed.scid.hex(),
                client_ip=datagram.src_ip,
                version="0x%08x" % parsed.version,
                coalesced=conn.coalesced,
            )
        self._send_flight(conn, datagram)
        self._schedule_retransmit(conn, datagram, self.profile.initial_rto)

    # -------------------------------------------------------- 1-RTT traffic
    def _on_short(self, datagram: UdpDatagram, now: float) -> None:
        """Handle a 1-RTT packet: continuation, migration, or reset."""
        self._count("short_packets_received")
        try:
            parsed = parse_short_header(
                datagram.payload, self.profile.cid_scheme.length
            )
        except PacketParseError:
            self._count("non_quic_ignored")
            return
        conn = self._by_scid.get(parsed.dcid)
        if conn is not None and conn.state is ConnState.AWAIT_CLIENT:
            # RFC 9001 §5.7: no 1-RTT before the handshake completes; the
            # packet goes, the half-open connection stays.
            self._count("discarded_before_handshake")
            return
        if conn is None or now - conn.last_active > self.profile.idle_timeout:
            if conn is not None:
                self._expire(conn, now)
            # RFC 9000 §10.3: no matching connection -> stateless reset.
            self._send_stateless_reset(datagram, parsed.dcid)
            return
        try:
            plain = unprotect_short_packet(
                parsed, datagram.payload, conn.protection, from_server=False
            )
            decode_frames(plain.payload)
        except (ProtectionError, FrameParseError):
            self._count("discarded_inconsistent")
            return
        if (datagram.src_ip, datagram.src_port) != (conn.client_ip, conn.client_port):
            # Valid packet from a new path: connection migration.  (Path
            # validation is collapsed into immediate acceptance.)
            conn.client_ip = datagram.src_ip
            conn.client_port = datagram.src_port
            self._count("migrations_accepted")
            if self._tracer.enabled:
                self._tracer.emit(
                    CAT_CONNECTIVITY,
                    "migration_accepted",
                    time=now,
                    cid=parsed.dcid.hex(),
                    new_ip=datagram.src_ip,
                )
        conn.last_active = now
        self._send_short(conn, [PingFrame()])

    def _issue_new_cid(self, conn: ServerConnection) -> None:
        """Send NEW_CONNECTION_ID with a spare CID after establishment."""
        context = CidContext(
            host_id=self.host_id,
            worker_id=self.worker_id,
            process_id=self.process_id,
            client_dcid=conn.original_dcid,
        )
        rng = conn.rng if conn.rng is not None else self.rng
        new_cid = self._rotation_scheme.generate(rng, context)
        if new_cid in self._by_scid:
            return  # astronomically unlikely collision; skip the rotation
        conn.issued_cids.append(new_cid)
        self._by_scid[new_cid] = conn
        self._count("new_cids_issued")
        if self._tracer.enabled:
            self._tracer.emit(
                CAT_CONNECTIVITY,
                "new_cid_issued",
                time=self.loop.now,
                cid=conn.scid.hex(),
                new_cid=new_cid.hex(),
            )
        frame = NewConnectionIdFrame(
            sequence_number=len(conn.issued_cids),
            retire_prior_to=0,
            connection_id=new_cid,
            stateless_reset_token=rng.getrandbits(128).to_bytes(16, "big"),
        )
        self._send_short(conn, [frame])

    def _send_short(self, conn: ServerConnection, frames: list) -> None:
        payload = encode_frames(frames)
        if len(payload) < 24:
            # Keep the packet long enough for the header-protection sample
            # (RFC 9001 §5.4.2) — real stacks pad tiny 1-RTT packets too.
            payload += b"\x00" * (24 - len(payload))
        packet = ShortHeaderPacket(
            dcid=conn.client_cid,
            packet_number=conn.short_packet_number,
            payload=payload,
        )
        conn.short_packet_number += 1
        data = encode_short_packet(packet, conn.protection, is_server=True)
        self._send(
            DeferredDatagram(
                conn.vip, conn.client_ip, QUIC_PORT, conn.client_port, *_ready(data)
            )
        )

    def _send_stateless_reset(self, request: UdpDatagram, dcid: bytes) -> None:
        """RFC 9000 §10.3: unpredictable bytes ending in a reset token.

        §10.3.3: a reset must be smaller than the packet that triggered
        it, or two endpoints without connection state (a spoofed source
        that is itself a server) answer each other's resets for ever.
        """
        if len(request.payload) <= _STATELESS_RESET_LENGTH:
            return
        rng = self._derive_rng(request.src_ip, request.src_port, dcid)
        filler_len = _STATELESS_RESET_LENGTH - 16
        filler = bytearray(rng.getrandbits(8 * filler_len).to_bytes(filler_len, "big"))
        filler[0] = 0x40 | (filler[0] & 0x3F)  # looks like a short header
        token = rng.getrandbits(128).to_bytes(16, "big")
        self._reply_to(request, request.dst_ip, *_ready(bytes(filler) + token))
        self._count("stateless_resets_sent")
        if self._tracer.enabled:
            self._tracer.emit(
                CAT_SECURITY,
                "stateless_reset_sent",
                time=self.loop.now,
                dcid=dcid.hex(),
                dst_ip=request.src_ip,
            )

    def _schedule_retransmit(
        self, conn: ServerConnection, datagram: UdpDatagram, timeout: float
    ) -> None:
        def fire() -> None:
            if conn.state is not ConnState.AWAIT_CLIENT:
                return
            if conn.retransmits_done >= conn.max_retransmits:
                conn.state = ConnState.CLOSED
                self._drop_connection(conn)
                self._count("flights_abandoned")
                if self._tracer.enabled:
                    self._tracer.emit(
                        CAT_RECOVERY,
                        "flight_abandoned",
                        time=self.loop.now,
                        cid=conn.scid.hex(),
                        retransmits=conn.retransmits_done,
                    )
                return
            conn.retransmits_done += 1
            self._count("retransmissions")
            if self._tracer.enabled:
                self._tracer.emit(
                    CAT_RECOVERY,
                    "rto_fired",
                    time=self.loop.now,
                    cid=conn.scid.hex(),
                    attempt=conn.retransmits_done,
                    timeout=round(timeout, 6),
                )
            self._send_flight(conn, datagram)
            self._schedule_retransmit(conn, datagram, timeout * self.profile.rto_backoff)

        conn.retransmit_event = self.loop.schedule(timeout, fire)

    def _expire(self, conn: ServerConnection, now: float) -> None:
        """Forget a connection idle past the profile's timeout."""
        self._drop_connection(conn)
        self._count("connections_expired")
        if self._tracer.enabled:
            self._tracer.emit(
                CAT_CONNECTIVITY, "connection_expired", time=now, cid=conn.scid.hex()
            )

    def _drop_connection(self, conn: ServerConnection) -> None:
        self._by_scid.pop(conn.scid, None)
        for issued in conn.issued_cids:
            self._by_scid.pop(issued, None)
        self._by_origin.pop((conn.client_ip, conn.client_port, conn.original_dcid), None)
        if conn.retransmit_event is not None:
            conn.retransmit_event.cancel()
            conn.retransmit_event = None

    # --------------------------------------------------------- flight build
    def _handshake_payload_bytes(self) -> bytes:
        """The (engine-constant) Handshake CRYPTO payload, encoded once."""
        if self._handshake_payload is None:
            raw = self.certificate.encode() if self.certificate is not None else b""
            data = CERT_MAGIC + len(raw).to_bytes(2, "big") + raw
            self._handshake_payload = encode_frames([CryptoFrame(offset=0, data=data)])
        return self._handshake_payload

    def _send_flight(self, conn: ServerConnection, request: UdpDatagram) -> None:
        flight = conn.flight_layout
        if flight is None:
            shape = (conn.version, len(conn.client_cid), len(conn.scid), conn.coalesced)
            layout = self._flight_layouts.get(shape)
            if layout is None:
                p = self.profile
                key = (p.idle_timeout, p.initial_datagram_size,
                       p.handshake_datagram_size, p.coalesced_datagram_size,
                       self._handshake_payload_bytes(), *shape)
                layout = self._flight_layouts[shape] = _LAYOUTS.get_or_build(
                    key, _FlightLayout, *key
                )
            flight = conn.flight_layout = layout.bind(conn)
        rng = conn.rng if conn.rng is not None else self.rng
        datagrams = flight.datagrams(conn, rng)
        profile = self.profile
        lengths = [length for length, _build in datagrams]
        for length, build in datagrams:
            self._reply_to(request, conn.vip, length, build)
        self._count("flights_sent")
        if self._m_datagrams is not None:
            key = (profile.name,)
            self._m_datagrams.inc_key(key, len(lengths))
            self._m_flight_bytes.inc_key(key, sum(lengths))
            for length in lengths:
                self._m_datagram_bytes.observe_key(key, length)
        if self._tracer.enabled:
            self._tracer.emit(
                CAT_TRANSPORT,
                "packet_sent",
                time=self.loop.now,
                kind="handshake_flight",
                cid=conn.scid.hex(),
                dst_ip=request.src_ip,
                coalesced=conn.coalesced,
            )
            self._tracer.emit(
                CAT_TRANSPORT,
                "datagrams_sent",
                time=self.loop.now,
                cid=conn.scid.hex(),
                coalesced=conn.coalesced,
                lengths=lengths,
                bytes=sum(lengths),
                packets=2,
            )

    def _send_version_negotiation(self, request: UdpDatagram, parsed) -> None:
        packet = VersionNegotiationPacket(
            dcid=parsed.scid,
            scid=parsed.dcid,
            supported_versions=self.profile.supported_versions,
        )
        self._reply_to(
            request, request.dst_ip, *_ready(encode_version_negotiation(packet))
        )
        self._count("version_negotiations")
        if self._tracer.enabled:
            self._tracer.emit(
                CAT_SECURITY,
                "version_negotiation_sent",
                time=self.loop.now,
                offered="0x%08x" % parsed.version,
                dst_ip=request.src_ip,
            )

    def _send_retry(
        self, request: UdpDatagram, parsed, rng: random.Random | None = None
    ) -> None:
        if rng is None:
            rng = self._derive_rng(request.src_ip, request.src_port, parsed.dcid)
        context = CidContext(
            host_id=self.host_id,
            worker_id=self.worker_id,
            process_id=self.process_id,
            client_dcid=parsed.dcid,
        )
        scid = self.profile.cid_scheme.generate(rng, context)
        token = b"retry-" + rng.getrandbits(64).to_bytes(8, "big")
        packet = RetryPacket(
            version=parsed.version, dcid=parsed.scid, scid=scid, retry_token=token
        )
        self._reply_to(request, request.dst_ip, *_ready(encode_retry(packet)))
        self._count("retries_sent")
        if self._tracer.enabled:
            self._tracer.emit(
                CAT_SECURITY,
                "retry_sent",
                time=self.loop.now,
                scid=scid.hex(),
                dst_ip=request.src_ip,
            )

    def _reply_to(
        self,
        request: UdpDatagram,
        vip: int,
        payload_length: int,
        build: Callable[[], bytes],
    ) -> None:
        """Answer ``request`` from ``vip``, ports mirrored, payload unbuilt.

        ``build`` runs when the datagram's ``.payload`` is first read —
        for a routed datagram inside ``Network.transmit``, in this same
        call stack; for one aimed at space nobody announces, never.
        """
        self._send(
            DeferredDatagram(
                vip,
                request.src_ip,
                request.dst_port,
                request.src_port,
                payload_length,
                build,
            )
        )
