"""Seal on delivery: an engine reply is planned at send, built at first read.

``_ConnFlight.datagrams`` fixes everything a flight depends on — the
ServerHello random, the packet numbers, the lengths — when the flight is
sent, and hands ``_reply`` a builder.  These tests hold the builder to
the recorded flights (``flight_vectors.json``) and, over arbitrary CID
shapes, to the eager frame-by-frame build in :mod:`tests.server.reference`;
to read-order independence and to running at most once; and hold an
engine whose replies nobody can receive to sealing nothing while every
counter, timer and trace field stays what it is for a routed twin.
"""

import io
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.netstack.addr import Prefix
from repro.obs import JsonlTracer, MetricsRegistry, Observability
from repro.quic.crypto.suites import FastProtection
from repro.server.simple import SimpleQuicServer
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Device, Network, PathModel
from tests.server.flight_vectors import (
    CERT,
    PROFILES,
    VIP,
    assert_recorded,
    client_initial,
    engine_for as _engine,
    exchange,
    shaped as _profile,
)
from tests.server.reference import frame_by_frame_flights


@pytest.fixture
def protect_calls(monkeypatch):
    """Packet numbers of the server-side ``FastProtection.protect`` calls
    made while the test runs (the client seals its own Initial)."""
    calls = []
    original = FastProtection.protect

    def counting(self, is_server, header, packet_number, payload, padding=0):
        if is_server:
            calls.append(packet_number)
        return original(self, is_server, header, packet_number, payload, padding)

    monkeypatch.setattr(FastProtection, "protect", counting)
    return calls


def _initial(profile, **client):
    return client_initial(profile.supported_versions[0], **client)


def _whole_ladder(profile, certificate=None, **client):
    """Every flight one handshake attempt emits, retransmissions included."""
    sent = []
    engine = _engine(profile, sent, certificate)
    engine.on_datagram(_initial(profile, **client), 0.0)
    engine.loop.run()
    return sent


@pytest.mark.parametrize("coalesced", (False, True), ids=("split", "coalesced"))
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_deferred_flight_equals_the_eager_rebuild(name, coalesced):
    case = "exchange/%s/%s" % (name, "coalesced" if coalesced else "split")
    deferred = [d for _step, datagrams in exchange(name, coalesced) for d in datagrams]
    assert len(deferred) > (1 if coalesced else 2)
    # The lengths are read first: they must not come from building.
    lengths = [datagram.payload_length for datagram in deferred]
    assert all("payload" not in vars(datagram) for datagram in deferred)
    built = [datagram.payload for datagram in deferred]
    assert lengths == [len(payload) for payload in built]
    assert_recorded(case, built)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(PROFILES)),
    coalesced=st.booleans(),
    certificate=st.sampled_from((None, CERT)),
    dcid=st.binary(min_size=8, max_size=20),
    scid=st.binary(min_size=0, max_size=20),
)
def test_any_shape_equals_the_frame_by_frame_flight(
    name, coalesced, certificate, dcid, scid
):
    # No Retry: `generic` answers 1 DCID in 2,000 with one, and a ladder
    # of a single Retry has no flight to compare.
    profile = replace(_profile(name, coalesced), retry_probability=0.0)
    deferred = _whole_ladder(profile, certificate, dcid=dcid, scid=scid)
    with frame_by_frame_flights(profile, certificate):
        eager = _whole_ladder(profile, certificate, dcid=dcid, scid=scid)
    assert len(deferred) == len(eager) > 1
    assert [d.payload for d in deferred] == [d.payload for d in eager]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(PROFILES)),
    coalesced=st.booleans(),
    dcid=st.binary(min_size=8, max_size=20),
    scid=st.binary(min_size=0, max_size=20),
)
def test_payload_length_is_the_built_length(name, coalesced, dcid, scid):
    profile = _profile(name, coalesced)
    for datagram in _whole_ladder(profile, dcid=dcid, scid=scid):
        assert datagram.payload_length == len(datagram.payload)


def test_flights_read_in_reverse_give_in_order_bytes():
    """pn and the ServerHello random are captured at send, not at read."""
    profile = _profile("facebook", False)
    in_order = []
    engine = _engine(profile, in_order)
    engine._send = lambda datagram: in_order.append(datagram.payload)
    engine.on_datagram(_initial(profile), 0.0)
    engine.loop.run()

    late = _whole_ladder(profile)
    assert len(late) == len(in_order) >= 4
    reversed_reads = [datagram.payload for datagram in reversed(late)]
    assert reversed_reads[::-1] == in_order
    assert len(set(in_order)) == len(in_order)  # every flight differs


def test_payload_read_three_times_seals_once(protect_calls):
    profile = _profile("google", True)
    sent = []
    engine = _engine(profile, sent)
    engine.on_datagram(_initial(profile), 0.0)
    (datagram,) = sent
    assert protect_calls == []
    reads = {datagram.payload, datagram.payload, datagram.payload}
    assert len(reads) == 1
    assert protect_calls == [0, 1]  # Initial pn 0 + Handshake pn 1, once each


# ---------------------------------------------------------------- behind a net
class _Client(Device):
    """Owns the client's prefix, so replies to it are routed."""

    def __init__(self):
        super().__init__("client")
        self.received = []

    def prefixes(self):
        return [Prefix.parse("44.0.0.0/9")]

    def handle_datagram(self, datagram, now):
        self.received.append((now, datagram.payload))


def _served(profile, routed, loss_rate=0.0):
    """One handshake attempt against a server on a network; the client's
    prefix is announced only when ``routed``."""
    sink = io.StringIO()
    obs = Observability(tracer=JsonlTracer(sink), metrics=MetricsRegistry())
    loop = EventLoop(obs)
    net = Network(loop, random.Random(1), PathModel(loss_rate=loss_rate), obs=obs)
    server = SimpleQuicServer(
        "server", VIP, profile, loop, random.Random(5), host_id=7, obs=obs
    )
    client = _Client()
    net.add_device(server)
    if routed:
        net.add_device(client)
    server.handle_datagram(_initial(profile), 0.0)
    (engine,) = server.host.workers.values()
    (conn,) = engine._by_origin.values()
    loop.run()
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    return engine, conn, client, obs.metrics.snapshot()["counters"], events


def _named(events, name):
    return [
        (event["time"], event["data"]) for event in events if event["name"] == name
    ]


@pytest.mark.parametrize("coalesced", (False, True), ids=("split", "coalesced"))
def test_unrouted_replies_are_never_sealed(protect_calls, coalesced):
    profile = _profile("facebook", coalesced)
    engine, conn, _client, counters, events = _served(profile, routed=False)
    assert protect_calls == []
    unrouted_state = (
        conn.next_packet_number,
        counters["engine.events"],
        counters["transport.flight_bytes"],
        counters["transport.datagrams_sent"],
        _named(events, "rto_fired"),
        _named(events, "datagrams_sent"),
    )
    dropped = [data["bytes"] for _t, data in _named(events, "packet_dropped")]
    assert dropped
    assert counters["net.dropped"]["values"] == {"no_route|server": len(dropped)}
    assert protect_calls == []  # the tracer and the metrics read lengths only

    engine, conn, client, counters, events = _served(profile, routed=True)
    flights = counters["engine.events"]["values"]["flights_sent|" + profile.name]
    assert len(protect_calls) == 2 * flights > 0
    assert unrouted_state == (
        conn.next_packet_number,
        counters["engine.events"],
        counters["transport.flight_bytes"],
        counters["transport.datagrams_sent"],
        _named(events, "rto_fired"),
        _named(events, "datagrams_sent"),
    )
    assert conn.next_packet_number == 2 * flights
    # What the drop events reported is what the routed twin delivered and
    # what the engine's own flight events listed.
    delivered = [data["bytes"] for _t, data in _named(events, "packet_delivered")]
    assert dropped == delivered
    # (jitter reorders arrivals, so the receiver's view is compared unordered)
    assert sorted(delivered) == sorted(len(payload) for _t, payload in client.received)
    listed = [
        length
        for _t, data in _named(events, "datagrams_sent")
        for length in data["lengths"]
    ]
    assert listed == delivered
    assert sum(listed) == counters["transport.flight_bytes"]["values"][profile.name]


def test_lossy_path_drops_by_the_sealed_bytes():
    """The loss hash covers the payload, so a deferred flight must be lost
    or delivered exactly as the same bytes sent eagerly are."""
    profile = _profile("cloudflare", False)
    _e, _c, client, counters, _ev = _served(profile, routed=True, loss_rate=0.5)
    with frame_by_frame_flights(profile):
        _e, _c, eager_client, eager_counters, _ev = _served(
            profile, routed=True, loss_rate=0.5
        )
    lost = counters["net.dropped"]["values"]
    assert lost == eager_counters["net.dropped"]["values"]
    assert lost.get("loss|client", 0) > 0
    assert client.received == eager_client.received != []
