"""Frame-by-frame server flights: the reference the flight layouts are held to.

``QuicServerEngine`` sends flights from a shape-keyed ``_FlightLayout``:
frames encoded once per shape, the connection's CIDs and the per-flight
ServerHello random spliced in, padding computed analytically.  The build
it replaced survives here, and only here: per flight it draws the random,
builds ``TransportParameters`` → ``ServerHello`` → ACK + CRYPTO frames →
``LongHeaderPacket``s from scratch, and pads by encoding and measuring
(:mod:`tests.quic.reference`).  Nothing is deferred: the bytes exist when
the engine sends.
"""

from contextlib import contextmanager
from unittest import mock

from repro.quic.frames import AckFrame, AckRange, CryptoFrame, encode_frames
from repro.quic.packet import LongHeaderPacket, PacketType
from repro.quic.transport_params import (
    ACTIVE_CONNECTION_ID_LIMIT,
    INITIAL_SOURCE_CONNECTION_ID,
    MAX_IDLE_TIMEOUT,
    MAX_UDP_PAYLOAD_SIZE,
    TransportParameters,
)
from repro.server.engine import CERT_MAGIC, _ConnFlight
from repro.tls.handshake import ServerHello, encode_handshake
from tests.quic.reference import encode_datagram


def flight(profile, certificate, conn, random32):
    """The datagrams of ``conn``'s next flight, built from its parts."""
    params = TransportParameters()
    params.set(INITIAL_SOURCE_CONNECTION_ID, conn.scid)
    params.set(MAX_IDLE_TIMEOUT, int(profile.idle_timeout * 1000))
    params.set(MAX_UDP_PAYLOAD_SIZE, 1472)
    params.set(ACTIVE_CONNECTION_ID_LIMIT, 4)
    hello = ServerHello(random=random32, quic_transport_parameters=params.encode())
    raw_certificate = certificate.encode() if certificate is not None else b""

    def packet(packet_type, packet_number, frames):
        return LongHeaderPacket(
            packet_type=packet_type,
            version=conn.version,
            dcid=conn.client_cid,
            scid=conn.scid,
            packet_number=packet_number,
            payload=encode_frames(frames),
            pn_length=1,
        )

    pn = conn.next_packet_number
    conn.next_packet_number += 2
    initial = packet(
        PacketType.INITIAL,
        pn,
        [
            AckFrame(largest_acked=0, ranges=(AckRange(0, 0),)),
            CryptoFrame(offset=0, data=encode_handshake(hello)),
        ],
    )
    handshake = packet(
        PacketType.HANDSHAKE,
        pn + 1,
        [
            CryptoFrame(
                offset=0,
                data=CERT_MAGIC
                + len(raw_certificate).to_bytes(2, "big")
                + raw_certificate,
            )
        ],
    )
    if conn.coalesced:
        plan = [([initial, handshake], profile.coalesced_datagram_size)]
    else:
        plan = [
            ([initial], profile.initial_datagram_size),
            ([handshake], profile.handshake_datagram_size),
        ]
    return [
        encode_datagram(packets, conn.protection, is_server=True, pad_to=pad_to)
        for packets, pad_to in plan
    ]


@contextmanager
def frame_by_frame_flights(profile, certificate=None):
    """Engines of ``profile`` send every flight through :func:`flight`.

    The stand-in takes the place of ``_ConnFlight.datagrams`` and keeps
    its contract: one 256-bit draw from the connection's rng per flight,
    then ``(length, builder)`` pairs — here over bytes already built.
    """

    def datagrams(_bound, conn, rng):
        random32 = rng.getrandbits(256).to_bytes(32, "big")
        built = flight(profile, certificate, conn, random32)
        return [(len(data), lambda data=data: data) for data in built]

    with mock.patch.object(_ConnFlight, "datagrams", datagrams):
        yield
