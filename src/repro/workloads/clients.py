"""Client-side QUIC: the client Initial, connection objects, a host device.

The client Initial has one implementation, :func:`_initial_plaintext` (a
splice into the :class:`_InitialLayout` of its shape), and two sealers.
:func:`stateless_initial` is for senders that never read a reply — the
scanners and the spoofing attacker — and keeps nothing: it derives the
client direction's key bytes alone and hands them to the suite's ``seal``.
:class:`ClientConnection` drives one handshake: it emits that Initial,
unprotects the server's flight (possible because Initial keys derive
from the client's own DCID), extracts the server's SCID, transport
parameters and certificate, and produces the confirmation flight that
completes the handshake on the server.  The active prober (paper §3.2,
Appendix D) is built on top of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from repro.lru import LruCache
from repro.netstack.udp import QUIC_PORT, UdpDatagram
from repro.quic.crypto.initial import initial_direction
from repro.quic.crypto.suites import TAG_LENGTH, ProtectionError, suite_by_name
from repro.quic.frames import (
    AckFrame,
    AckRange,
    CryptoFrame,
    FrameParseError,
    crypto_payload,
    decode_frames,
    encode_frames,
)
from repro.quic.packet import (
    MIN_INITIAL_DATAGRAM,
    LongHeaderPacket,
    PacketParseError,
    PacketType,
    decode_datagram,
    encode_datagram,
    header_length,
    packet_template,
    unprotect_packet,
)
from repro.quic.transport_params import (
    INITIAL_SOURCE_CONNECTION_ID,
    TransportParameters,
)
from repro.quic.version import QUIC_V1
from repro.server.engine import CERT_MAGIC
from repro.tls.certs import Certificate, CertificateError
from repro.tls.handshake import ClientHello, TlsParseError, decode_handshake, encode_handshake

#: Frame payloads of the confirmation flight, encoded once at import: the
#: Initial ACK and the Handshake "finished" CRYPTO are byte-identical for
#: every client, so per-connection work on this emitter reduces to header
#: templating + sealing inside :func:`~repro.quic.packet.encode_datagram`
#: (the write-side template plane; see ARCHITECTURE.md).
_CONFIRM_ACK_PAYLOAD = encode_frames(
    [AckFrame(largest_acked=0, ranges=(AckRange(0, 0),))]
)
_CONFIRM_FINISHED_PAYLOAD = encode_frames([CryptoFrame(offset=0, data=b"finished")])


class _InitialLayout:
    """The client Initial of one probe *shape*, encoded once.

    A stateless sender's Initials differ only in the 32-byte ClientHello
    ``random``, the SCID (in the header and in the
    ``initial_source_connection_id`` transport parameter) and the DCID;
    everything else — ClientHello, CRYPTO framing, PADDING, the header
    skeleton — follows from ``(version, DCID length, SCID length,
    server_name, pad_to)``.  The client-side twin of the engine's
    ``_FlightLayout``: the payload is kept as the three constant pieces
    around the two spliced fields, whose offsets are found by encoding
    with two distinct sentinels and diffing (``server_name`` is the
    caller's, so a substring search could match inside it), and the
    padding is the deficit :func:`~repro.quic.packet.encode_datagram`
    computes from :func:`~repro.quic.packet.header_length`.
    """

    __slots__ = ("prefix", "mid", "suffix", "padding", "template")

    def __init__(
        self, version: int, dcid_len: int, scid_len: int, server_name: str, pad_to: int
    ) -> None:
        payload = self._payload(bytes(32), bytes(scid_len), server_name)
        other = self._payload(b"\xff" * 32, b"\xff" * scid_len, server_name)
        differing = [
            i for i, (a, b) in enumerate(zip(payload, other, strict=True)) if a != b
        ]
        random_offset = differing[0]
        scid_offset = differing[32] if scid_len else len(payload)
        if scid_offset <= random_offset + 32 or differing != [
            *range(random_offset, random_offset + 32),
            *range(scid_offset, scid_offset + scid_len),
        ]:
            raise AssertionError("random and scid are not two separate runs")
        self.prefix = payload[:random_offset]
        self.mid = payload[random_offset + 32 : scid_offset]
        suffix = payload[scid_offset + scid_len :]
        length = len(payload)
        natural = (
            header_length(PacketType.INITIAL, dcid_len, scid_len, 0, length, 1)
            + length
            + TAG_LENGTH
        )
        #: The PADDING after ``suffix``, counted: the seal writes it.
        self.padding = max(0, pad_to - natural)
        length += self.padding
        self.suffix = suffix
        self.template = packet_template(
            PacketType.INITIAL, version, dcid_len, scid_len, 0, length, 1
        )

    @staticmethod
    def _payload(random32: bytes, scid: bytes, server_name: str) -> bytes:
        hello = ClientHello(
            random=random32,
            server_name=server_name,
            quic_transport_parameters=TransportParameters()
            .set(INITIAL_SOURCE_CONNECTION_ID, scid)
            .encode(),
        )
        return encode_frames([CryptoFrame(offset=0, data=encode_handshake(hello))])


#: Bounded: ``server_name`` is whatever the active prober is pointed at.
_INITIAL_LAYOUTS = LruCache(256)


def _initial_plaintext(
    rng: random.Random, version: int, dcid: bytes, scid: bytes, server_name: str,
    pad_to: int,
) -> tuple[bytes, bytes, int]:
    """The client Initial before its seal: ``(header, payload, padding)``.

    Draws the ClientHello random and splices the shape's layout; packet
    number 0.
    """
    random32 = rng.getrandbits(256).to_bytes(32, "big")
    shape = (version, len(dcid), len(scid), server_name, pad_to)
    layout = _INITIAL_LAYOUTS.get_or_build(shape, _InitialLayout, *shape)
    return (
        layout.template.render(dcid, scid, 0),
        b"".join((layout.prefix, random32, layout.mid, scid, layout.suffix)),
        layout.padding,
    )


def weighted_versions(pairs: tuple[tuple[int, float], ...]) -> tuple[list[int], list[float]]:
    """``(versions, cum_weights)`` for ``rng.choices``: summed once per sender,
    and drawn exactly as ``choices(versions, weights=...)`` draws."""
    return [v for v, _w in pairs], list(accumulate(w for _v, w in pairs))


def stateless_initial(
    rng: random.Random,
    suite: str,
    version: int,
    server_name: str = "",
    pad_to: int = MIN_INITIAL_DATAGRAM,
    dcid_length: int = 8,
) -> bytes:
    """A fresh client Initial from a sender that will never read a reply.

    Draws DCID, SCID and random in the order a :class:`ClientConnection`
    does and seals the same bytes, from the client direction's keys alone:
    no protection or key object is built, and nothing is kept.
    """
    dcid = rng.getrandbits(8 * dcid_length).to_bytes(dcid_length, "big")
    scid = rng.getrandbits(64).to_bytes(8, "big")
    key, iv, hp = initial_direction(version, dcid)
    header, payload, padding = _initial_plaintext(
        rng, version, dcid, scid, server_name, pad_to
    )
    # Packet number 0: the nonce is the IV itself.
    return suite_by_name(suite).seal(key, iv, hp, header, payload, padding)


@dataclass
class HandshakeResult:
    """What a completed (or failed) handshake attempt yields."""

    completed: bool = False
    server_scid: bytes = b""
    version: int = 0
    transport_parameters: Optional[TransportParameters] = None
    certificate: Optional[Certificate] = None
    rtt: float = 0.0
    coalesced_response: bool = False
    version_negotiation: tuple[int, ...] = ()
    #: Spare CIDs the server issued via NEW_CONNECTION_ID.
    new_connection_ids: list = field(default_factory=list)
    #: 1-RTT responses received (used by the migration experiments).
    pongs: int = 0


class ClientConnection:
    """One client-initiated QUIC connection attempt."""

    def __init__(
        self,
        rng: random.Random,
        src_ip: int,
        src_port: int,
        dst_ip: int,
        dst_port: int = QUIC_PORT,
        version: int = QUIC_V1.value,
        server_name: str = "",
        dcid: bytes | None = None,
        scid: bytes | None = None,
        suite: str = "fast",
        pad_to: int = MIN_INITIAL_DATAGRAM,
    ) -> None:
        self.rng = rng
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.version = version
        self.server_name = server_name
        #: Temporary server CID (S1 in the paper's Figure 1).
        self.dcid = dcid if dcid is not None else self._random_cid(8)
        #: Client's own CID (C1).
        self.scid = scid if scid is not None else self._random_cid(8)
        self.pad_to = pad_to
        self.protection = suite_by_name(suite)(version, self.dcid)
        self.result = HandshakeResult()
        self.sent_at = 0.0
        self._confirmed = False

    def _random_cid(self, length: int) -> bytes:
        return self.rng.getrandbits(8 * length).to_bytes(length, "big")

    # -- outbound ----------------------------------------------------------
    def initial_datagram(self, now: float = 0.0) -> UdpDatagram:
        """The first flight: a padded Initial carrying the ClientHello."""
        self.sent_at = now
        header, payload, padding = _initial_plaintext(
            self.rng, self.version, self.dcid, self.scid, self.server_name, self.pad_to
        )
        return UdpDatagram(
            self.src_ip, self.dst_ip, self.src_port, self.dst_port,
            self.protection.protect(False, header, 0, payload, padding),
        )

    # -- inbound -----------------------------------------------------------
    def on_datagram(self, datagram: UdpDatagram, now: float = 0.0) -> Optional[UdpDatagram]:
        """Process a server datagram; returns the confirmation flight once."""
        payload = datagram.payload
        if payload and not payload[0] & 0x80:
            self._on_short(payload)
            return None
        try:
            packets = decode_datagram(payload)
        except PacketParseError:
            return None
        self.result.coalesced_response = self.result.coalesced_response or (
            len(packets) > 1
        )
        reply_needed = False
        for parsed, raw in packets:
            if parsed.packet_type is PacketType.VERSION_NEGOTIATION:
                self.result.version_negotiation = parsed.supported_versions
                return None
            if parsed.dcid != self.scid:
                continue  # not for this connection
            if parsed.packet_type is PacketType.INITIAL:
                self.result.server_scid = parsed.scid
                self.result.version = parsed.version
                self._read_initial(parsed, raw)
                reply_needed = True
            elif parsed.packet_type is PacketType.HANDSHAKE:
                self.result.server_scid = self.result.server_scid or parsed.scid
                self._read_handshake(parsed, raw)
                reply_needed = True
        if reply_needed and not self._confirmed:
            self._confirmed = True
            self.result.completed = True
            self.result.rtt = now - self.sent_at
            return self._confirmation_datagram()
        return None

    def _read_initial(self, parsed, raw: bytes) -> None:
        try:
            plain = unprotect_packet(parsed, raw, self.protection, from_server=True)
            frames = decode_frames(plain.payload)
            hello = decode_handshake(crypto_payload(frames))
        except (ProtectionError, FrameParseError, TlsParseError, ValueError):
            return
        if getattr(hello, "quic_transport_parameters", b""):
            try:
                self.result.transport_parameters = TransportParameters.decode(
                    hello.quic_transport_parameters
                )
            except ValueError:
                pass

    def _read_handshake(self, parsed, raw: bytes) -> None:
        try:
            plain = unprotect_packet(parsed, raw, self.protection, from_server=True)
            data = crypto_payload(decode_frames(plain.payload))
        except (ProtectionError, FrameParseError, ValueError):
            return
        if data[:4] == CERT_MAGIC and len(data) >= 6:
            length = int.from_bytes(data[4:6], "big")
            if length and len(data) >= 6 + length:
                try:
                    self.result.certificate = Certificate.decode(data[6 : 6 + length])
                except CertificateError:
                    pass

    def _on_short(self, payload: bytes) -> None:
        """1-RTT traffic from the server: NEW_CONNECTION_ID, PING replies."""
        from repro.quic.frames import NewConnectionIdFrame, PingFrame
        from repro.quic.packet import parse_short_header, unprotect_short_packet

        try:
            parsed = parse_short_header(payload, len(self.scid))
            if parsed.dcid != self.scid:
                return
            plain = unprotect_short_packet(
                parsed, payload, self.protection, from_server=True
            )
            frames = decode_frames(plain.payload)
        except (PacketParseError, ProtectionError, FrameParseError):
            return  # possibly a stateless reset: indistinguishable noise
        for frame in frames:
            if isinstance(frame, NewConnectionIdFrame):
                if frame.connection_id not in self.result.new_connection_ids:
                    self.result.new_connection_ids.append(frame.connection_id)
            elif isinstance(frame, PingFrame):
                self.result.pongs += 1

    def migration_datagram(
        self, new_src_port: int, dcid: bytes | None = None
    ) -> UdpDatagram:
        """A 1-RTT PING from a *new* 5-tuple — the client-migration probe.

        ``dcid`` selects which server CID to address: the handshake CID
        (default) or one issued via NEW_CONNECTION_ID (CID rotation).
        """
        from repro.quic.frames import PingFrame
        from repro.quic.packet import ShortHeaderPacket, encode_short_packet

        if not self.result.completed:
            raise RuntimeError("cannot migrate before the handshake completes")
        packet = ShortHeaderPacket(
            dcid=dcid if dcid is not None else self.result.server_scid,
            packet_number=7,
            payload=encode_frames([PingFrame()]) + b"\x00" * 24,
        )
        data = encode_short_packet(packet, self.protection, is_server=False)
        return UdpDatagram(
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            src_port=new_src_port,
            dst_port=self.dst_port,
            payload=data,
        )

    def _confirmation_datagram(self) -> UdpDatagram:
        """Initial ACK + Handshake — the flight that establishes the server."""
        server_scid = self.result.server_scid
        initial_ack = LongHeaderPacket(
            packet_type=PacketType.INITIAL,
            version=self.version,
            dcid=server_scid,
            scid=self.scid,
            packet_number=1,
            payload=_CONFIRM_ACK_PAYLOAD,
            pn_length=1,
        )
        handshake = LongHeaderPacket(
            packet_type=PacketType.HANDSHAKE,
            version=self.version,
            dcid=server_scid,
            scid=self.scid,
            packet_number=0,
            payload=_CONFIRM_FINISHED_PAYLOAD,
            pn_length=1,
        )
        data = encode_datagram(
            [initial_ack, handshake],
            self.protection,
            is_server=False,
            pad_to=MIN_INITIAL_DATAGRAM,
        )
        return UdpDatagram(
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            src_port=self.src_port,
            dst_port=self.dst_port,
            payload=data,
        )


class ClientHost:
    """A device hosting many client connections, demuxed by local port."""

    def __init__(self, name: str, address: int, access_delay: float = 0.005) -> None:
        self._device = _ClientDevice(name, address, self)
        self._device.access_delay = access_delay
        self.address = address
        self._connections: dict[int, ClientConnection] = {}
        self.completed: list[ClientConnection] = []

    @property
    def device(self) -> "Device":
        return self._device

    def open(self, connection: ClientConnection, now: float = 0.0) -> None:
        """Register and launch a connection from one of our ports."""
        if connection.src_ip != self.address:
            raise ValueError("connection source does not match host address")
        self._connections[connection.src_port] = connection
        self._device.send(connection.initial_datagram(now))

    def register_alias(self, port: int, connection: ClientConnection) -> None:
        """Bind an extra local port to ``connection`` (migration paths)."""
        self._connections[port] = connection

    def send_raw(self, datagram: UdpDatagram) -> None:
        """Transmit a prepared datagram (e.g. a migration probe)."""
        self._device.send(datagram)

    def _handle(self, datagram: UdpDatagram, now: float) -> None:
        connection = self._connections.get(datagram.dst_port)
        if connection is None:
            return
        reply = connection.on_datagram(datagram, now)
        if reply is not None:
            self._device.send(reply)
            self.completed.append(connection)


from repro.netstack.addr import Prefix  # noqa: E402  (device plumbing below)
from repro.simnet.network import Device  # noqa: E402


class _ClientDevice(Device):
    def __init__(self, name: str, address: int, owner: ClientHost) -> None:
        super().__init__(name)
        self.address = address
        self._owner = owner

    def prefixes(self) -> list[Prefix]:
        return [Prefix(self.address, 32)]

    def handle_datagram(self, datagram: UdpDatagram, now: float) -> None:
        self._owner._handle(datagram, now)
