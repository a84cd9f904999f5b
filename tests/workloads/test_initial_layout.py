"""The shape-keyed client Initial layout against the field-by-field build.

``ClientConnection.initial_datagram`` splices a ClientHello random and an
SCID into bytes encoded once per shape.  ``reference_initial_datagram``
below is the object-building body it replaced, kept here as the
reference: every test holds the layout to it byte for byte, rng draw for
rng draw.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netstack.addr import Prefix, parse_ip
from repro.netstack.udp import UdpDatagram
from repro.quic.crypto.memo import clear_crypto_memos
from repro.quic.frames import CryptoFrame, crypto_payload, decode_frames, encode_frames
from repro.quic.packet import (
    LongHeaderPacket,
    PacketType,
    encode_datagram,
    parse_long_header,
    unprotect_packet,
)
from repro.quic.transport_params import (
    INITIAL_SOURCE_CONNECTION_ID,
    TransportParameters,
)
from repro.quic.version import DRAFT_29, QUIC_V1, QUIC_V2
from repro.server.engine import QuicServerEngine
from repro.server.profiles import (
    cloudflare_profile,
    facebook_profile,
    generic_profile,
    google_profile,
    quic_lb_profile,
)
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Device, Network, PathModel
from repro.tls.handshake import ClientHello, decode_handshake, encode_handshake
from repro.workloads import clients
from repro.workloads.attackers import AttackPlan, SpoofingAttacker
from repro.workloads.clients import ClientConnection
from repro.workloads.scanners import ResearchScanner, UnknownScanner
from tests.server.metered import engine_events, metered

CLIENT = parse_ip("44.1.2.3")
VIP = parse_ip("157.240.1.10")
TELESCOPE = "44.0.0.0/9"

VERSIONS = (
    QUIC_V1.value,
    QUIC_V2.value,
    DRAFT_29.value,
    ResearchScanner.GREASE_VERSION,
    SpoofingAttacker.BOGUS_VERSION,
)
#: The last name's wire bytes hold the layout's all-zero sentinel (the
#: random's 32 and any SCID's) and the engine layout's ``bytes(range(32))``;
#: 0xFF bytes cannot survive IDNA, so the other sentinel cannot occur.
SERVER_NAMES = (
    "",
    "www.example.org",
    "bücher.example",
    "\x00" * 40 + "." + bytes(range(32)).decode("ascii") + ".example",
)

PROFILES = {
    "cloudflare": lambda: cloudflare_profile(colo_id=3),
    "facebook": facebook_profile,
    "google": google_profile,
    "quic_lb": quic_lb_profile,
    "generic": lambda: generic_profile("generic-1234", random.Random(1234)),
}


def reference_initial_datagram(self: ClientConnection, now: float = 0.0) -> UdpDatagram:
    """``ClientConnection.initial_datagram`` as it was: build every object."""
    hello = ClientHello(
        random=self.rng.getrandbits(256).to_bytes(32, "big"),
        server_name=self.server_name,
        quic_transport_parameters=TransportParameters()
        .set(INITIAL_SOURCE_CONNECTION_ID, self.scid)
        .encode(),
    )
    payload = encode_frames([CryptoFrame(offset=0, data=encode_handshake(hello))])
    packet = LongHeaderPacket(
        packet_type=PacketType.INITIAL,
        version=self.version,
        dcid=self.dcid,
        scid=self.scid,
        packet_number=0,
        payload=payload,
        pn_length=1,
    )
    self.sent_at = now
    data = encode_datagram(
        [packet], self.protection, is_server=False, pad_to=self.pad_to
    )
    return UdpDatagram(
        src_ip=self.src_ip,
        dst_ip=self.dst_ip,
        src_port=self.src_port,
        dst_port=self.dst_port,
        payload=data,
    )


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_crypto_memos()
    clients._INITIAL_LAYOUTS.clear()
    yield
    clear_crypto_memos()
    clients._INITIAL_LAYOUTS.clear()


def _connection(seed, **fields):
    return ClientConnection(
        rng=random.Random(seed), src_ip=CLIENT, src_port=4242, dst_ip=VIP, **fields
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    version=st.sampled_from(VERSIONS),
    dcid=st.binary(min_size=0, max_size=20),
    scid=st.binary(min_size=0, max_size=20),
    pad_to=st.sampled_from((0, 300, 1200, 1350)),
    server_name=st.sampled_from(SERVER_NAMES),
)
def test_layout_matches_the_field_by_field_build(
    seed, version, dcid, scid, pad_to, server_name
):
    fields = dict(
        version=version, dcid=dcid, scid=scid, pad_to=pad_to, server_name=server_name
    )
    spliced, built = _connection(seed, **fields), _connection(seed, **fields)
    # Twice: the first call may build the layout, the second only reads it.
    for now in (0.5, 1.5):
        assert spliced.initial_datagram(now) == reference_initial_datagram(built, now)
        assert spliced.sent_at == built.sent_at == now
    assert spliced.rng.getstate() == built.rng.getstate()


def test_drawn_cids_match_the_field_by_field_build():
    """The default 8-byte CIDs are drawn before the ClientHello random."""
    spliced, built = _connection(11), _connection(11)
    assert spliced.initial_datagram() == reference_initial_datagram(built)
    assert len(spliced.initial_datagram().payload) == 1200


class _Sink(Device):
    def __init__(self, name, prefix):
        super().__init__(name)
        self._prefix = Prefix.parse(prefix)
        self.received = []

    def prefixes(self):
        return [self._prefix]

    def handle_datagram(self, datagram, now):
        self.received.append(datagram)


def _run_senders():
    """One of each stateless sender under seeded rngs; what they sent."""
    loop = EventLoop()
    net = Network(loop, random.Random(5), PathModel(jitter=0.0))
    telescope = _Sink("telescope", TELESCOPE)
    victim = _Sink("victim", "157.240.1.0/24")
    net.add_device(telescope)
    net.add_device(victim)
    research = ResearchScanner(
        name="research",
        address=parse_ip("141.212.0.7"),
        loop=loop,
        rng=random.Random(1),
        target_prefix=Prefix.parse(TELESCOPE),
    )
    unknown = UnknownScanner(
        name="unknown",
        address=parse_ip("87.128.9.9"),
        loop=loop,
        rng=random.Random(2),
        target_prefix=Prefix.parse(TELESCOPE),
        versions=((QUIC_V1.value, 0.5), (DRAFT_29.value, 0.3), (QUIC_V2.value, 0.2)),
        zero_rtt_probability=0.1,
    )
    attacker = SpoofingAttacker(
        name="attacker",
        loop=loop,
        rng=random.Random(3),
        telescope_prefix=Prefix.parse(TELESCOPE),
        spoof_pool=[Prefix.parse("87.128.0.0/16")],
    )
    for device in (research, unknown, attacker):
        net.add_device(device)
    research.sweep(40, duration=5.0)
    unknown.sweep(60, duration=5.0)
    attacker.launch(
        AttackPlan(
            targets=(VIP,),
            packet_count=50,
            duration=5.0,
            server_name="victim.example",
            dcid_length=12,
            bogus_version_probability=0.2,
        )
    )
    loop.run()
    sent = [
        (d.src_ip, d.dst_ip, d.src_port, d.dst_port, d.payload)
        for d in telescope.received + victim.received
    ]
    return sent, [s.rng.getstate() for s in (research, unknown, attacker)]


def test_stateless_senders_draw_and_send_as_before(monkeypatch):
    """Draw order is the contract: same datagrams, same rng state after."""
    sent, states = _run_senders()
    clear_crypto_memos()
    monkeypatch.setattr(ClientConnection, "initial_datagram", reference_initial_datagram)
    reference_sent, reference_states = _run_senders()
    assert len(sent) == 150
    assert sent == reference_sent
    assert states == reference_states


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_handshake_completes_on_a_spliced_client_hello(name):
    profile = PROFILES[name]()
    sent = []
    obs = metered()
    engine = QuicServerEngine(
        profile=profile,
        loop=EventLoop(),
        rng=random.Random(5),
        send=sent.append,
        obs=obs,
    )
    connection = _connection(
        77, version=profile.supported_versions[0], server_name="www.example.org"
    )
    initial = connection.initial_datagram(0.0)

    # What a server reads out of the splice: a well-formed ClientHello
    # whose SCID parameter is the header's SCID.
    parsed = parse_long_header(initial.payload)
    plain = unprotect_packet(
        parsed, initial.payload, connection.protection, from_server=False
    )
    hello = decode_handshake(crypto_payload(decode_frames(plain.payload)))
    assert hello.server_name == "www.example.org"
    params = TransportParameters.decode(hello.quic_transport_parameters)
    assert params.get(INITIAL_SOURCE_CONNECTION_ID) == connection.scid == parsed.scid

    engine.on_datagram(initial, 0.0)
    confirmation = None
    for reply in list(sent):
        confirmation = connection.on_datagram(reply, 0.05) or confirmation
    assert connection.result.completed
    engine.on_datagram(confirmation, 0.1)
    assert engine_events(obs)["connections_established"] == 1


def test_layout_cache_is_bounded_under_distinct_server_names():
    for index in range(10_000):
        _connection(index, server_name="host-%d.example" % index).initial_datagram()
    cache = clients._INITIAL_LAYOUTS
    assert len(cache) == cache.maxsize
    assert cache.misses == 10_000
