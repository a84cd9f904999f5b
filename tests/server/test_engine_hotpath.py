"""Flight layouts: what the engine sends is what was recorded.

``_send_flight`` sends from a shape-keyed flight layout: frames
encoded once per shape, each connection's CIDs spliced in, one 256-bit
rng draw per flight before the packet numbers advance.  For every server
profile the bytes are held to ``flight_vectors.json``, recorded from the
frame-by-frame build the layouts replaced (see
:mod:`tests.server.flight_vectors`).
"""

import random

import pytest

from repro.server.profiles import facebook_profile
from tests.server.flight_vectors import (
    CASES,
    CERT,
    PROFILES,
    assert_recorded,
    client_initial,
    engine_for,
    exchange,
    handshakes,
    payloads,
)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_flights_byte_identical_per_profile(name):
    assert_recorded("handshakes/%s" % name, payloads(handshakes(name)))


@pytest.mark.parametrize("name", ("cloudflare", "google"))
def test_flights_byte_identical_with_certificate(name):
    with_certificate = payloads(handshakes(name, CERT))
    assert_recorded("handshakes/%s/cert" % name, with_certificate)
    # The certificate actually changes the flight (it rides in the
    # Handshake CRYPTO stream), so parity above is not vacuous.
    assert with_certificate != payloads(handshakes(name))


def test_retransmitted_flights_stay_identical():
    """Later flights of a connection reuse its bound layout; a duplicate
    Initial is deduplicated by origin and answers nothing."""
    steps = exchange("facebook", coalesced=False)
    emitted = {label: len(datagrams) for label, datagrams in steps}
    assert emitted["rto_retransmit"] == 2 and emitted["rest_of_ladder"] > 2
    assert emitted["duplicate_initial"] == 0
    assert_recorded("exchange/facebook/split", payloads(steps))


@pytest.mark.parametrize(
    "case",
    [
        case
        for case in CASES
        if case.endswith("/cert") and case.startswith("exchange/")
    ]
    + ["retry", "version_negotiation", "stateless_reset"],
)
def test_recorded_case_replays(case):
    """Certificate-bearing ladders and the three stateless replies."""
    _call, drive = CASES[case]
    assert_recorded(case, payloads(drive()))


def test_layouts_shared_across_connections():
    """Same flight shape → one `_FlightLayout`, per-connection binds."""
    sent = []
    engine = engine_for(facebook_profile(), sent)
    version = engine.profile.supported_versions[0]
    client_rng = random.Random(77)
    for port in (4242, 4243, 4244):
        engine.on_datagram(client_initial(version, port, client_rng), 0.0)
    assert len(engine._flight_layouts) == 1
    assert sent
