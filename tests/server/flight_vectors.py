"""Recorded server-flight vectors: the drives, the fixture, the comparison.

``flight_vectors.json`` holds the bytes ``QuicServerEngine`` emitted for a
fixed set of drives when it was recorded: every profile's handshake
exchange (first flight, one RTO retransmit, a duplicate Initial, the rest
of the ladder) split and coalesced, with a certificate for
cloudflare/google, a dozen handshakes per profile at its native
coalescing mix, and one Retry, one Version Negotiation and one stateless
reset.  The first datagram of a case is kept as hex, so a failure shows
the byte that moved; the rest as blake2b-128.

The drives below are the only description of what was recorded; the
tests replay them and hand the payloads to :func:`assert_recorded`.  A
change that means to move these bytes re-records, naming the commit and
the reason in the fixture header::

    PYTHONPATH=src python -m tests.server.flight_vectors "<commit>: <why>"
"""

import functools
import hashlib
import json
import os
import random
from dataclasses import replace

from repro.netstack.addr import parse_ip
from repro.netstack.udp import UdpDatagram
from repro.server.engine import QuicServerEngine
from repro.server.profiles import (
    cloudflare_profile,
    facebook_profile,
    generic_profile,
    google_profile,
    quic_lb_profile,
)
from repro.simnet.eventloop import EventLoop
from repro.tls.certs import Certificate
from repro.workloads.clients import ClientConnection

FIXTURE = os.path.join(os.path.dirname(__file__), "flight_vectors.json")

VIP = parse_ip("157.240.1.10")
CLIENT = parse_ip("44.1.2.3")

CERT = Certificate(
    subject="*.example.com", subject_alt_names=("*.example.com", "*.example.net")
)

PROFILES = {
    "cloudflare": lambda: cloudflare_profile(colo_id=3),
    "facebook": lambda: facebook_profile(),
    "google": lambda: google_profile(),
    "quic_lb": lambda: quic_lb_profile(),
    "generic": lambda: generic_profile("generic-1234", random.Random(1234)),
}


def shaped(name, coalesced):
    """Profile ``name`` with every flight forced split or coalesced."""
    return replace(PROFILES[name](), coalesce_probability=1.0 if coalesced else 0.0)


def engine_for(profile, sent, certificate=None, obs=None):
    return QuicServerEngine(
        profile=profile,
        loop=EventLoop(),
        rng=random.Random(5),
        send=sent.append,
        host_id=7,
        worker_id=3,
        certificate=certificate,
        obs=obs,
    )


def client_initial(version, port=4242, rng=None, dcid=None, scid=None):
    return ClientConnection(
        rng=rng or random.Random(77),
        src_ip=CLIENT,
        src_port=port,
        dst_ip=VIP,
        version=version,
        dcid=dcid,
        scid=scid,
    ).initial_datagram()


# ---------------------------------------------------------------- the drives
# Each returns ``[(step, [datagram, ...]), ...]`` in emission order.


def exchange(name, coalesced, certificate=None):
    """One handshake attempt nobody completes, with a duplicate Initial
    after the first RTO.  (The duplicate is deduplicated by origin and
    answers nothing — except under Google's echoed CID, where it matches
    the connection, establishes it and draws a NEW_CONNECTION_ID.)"""
    profile = shaped(name, coalesced)
    sent = []
    engine = engine_for(profile, sent, certificate)
    initial = client_initial(profile.supported_versions[0])
    steps = []

    def step(label, action):
        before = len(sent)
        action()
        steps.append((label, sent[before:]))

    step("first_flight", lambda: engine.on_datagram(initial, 0.0))
    step("rto_retransmit", engine.loop.step)
    step("duplicate_initial", lambda: engine.on_datagram(initial, engine.loop.now))
    step("rest_of_ladder", engine.loop.run)
    return steps


def handshakes(name, certificate=None, clients=12, obs=None):
    """Fresh handshakes from ``clients`` ports at the profile's own
    coalescing mix: one layout per shape, spliced per connection."""
    sent = []
    engine = engine_for(PROFILES[name](), sent, certificate, obs)
    version = engine.profile.supported_versions[0]
    client_rng = random.Random(77)
    for port in range(4242, 4242 + clients):
        engine.on_datagram(client_initial(version, port, client_rng), 0.0)
    return [("first_flights", sent)]


def retry():
    sent = []
    profile = replace(PROFILES["generic"](), retry_probability=1.0)
    engine = engine_for(profile, sent)
    engine.on_datagram(client_initial(profile.supported_versions[0]), 0.0)
    return [("retry", sent)]


def version_negotiation():
    sent = []
    engine = engine_for(facebook_profile(), sent)
    engine.on_datagram(client_initial(0x1A2A3A4A), 0.0)
    return [("version_negotiation", sent)]


def stateless_reset():
    sent = []
    engine = engine_for(facebook_profile(), sent)
    orphan = UdpDatagram(
        src_ip=CLIENT,
        dst_ip=VIP,
        src_port=4242,
        dst_port=443,
        payload=b"\x40" + bytes(range(8)) + b"\x5a" * 40,
    )
    engine.on_datagram(orphan, 0.0)
    return [("stateless_reset", sent)]


def _cases():
    cases = {}
    for name in sorted(PROFILES):
        for coalesced in (False, True):
            shape = "coalesced" if coalesced else "split"
            cases["exchange/%s/%s" % (name, shape)] = (
                "exchange(%r, coalesced=%r)" % (name, coalesced),
                lambda n=name, c=coalesced: exchange(n, c),
            )
            if name in ("cloudflare", "google"):
                cases["exchange/%s/%s/cert" % (name, shape)] = (
                    "exchange(%r, coalesced=%r, certificate=CERT)" % (name, coalesced),
                    lambda n=name, c=coalesced: exchange(n, c, CERT),
                )
        cases["handshakes/%s" % name] = (
            "handshakes(%r)" % name,
            lambda n=name: handshakes(n),
        )
        if name in ("cloudflare", "google"):
            cases["handshakes/%s/cert" % name] = (
                "handshakes(%r, certificate=CERT)" % name,
                lambda n=name: handshakes(n, CERT),
            )
    cases["retry"] = ("retry()", retry)
    cases["version_negotiation"] = ("version_negotiation()", version_negotiation)
    cases["stateless_reset"] = ("stateless_reset()", stateless_reset)
    return cases


#: case name -> (the driver call as recorded in the fixture, the call)
CASES = _cases()


# ------------------------------------------------------- fixture and compare
def _digest(data):
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def payloads(steps):
    return [datagram.payload for _label, datagrams in steps for datagram in datagrams]


def _entry(call, steps):
    built = payloads(steps)
    return {
        "call": call,
        "steps": {label: len(datagrams) for label, datagrams in steps},
        "lengths": [len(payload) for payload in built],
        "first": built[0].hex(),
        "rest": [_digest(payload) for payload in built[1:]],
    }


@functools.lru_cache(maxsize=None)
def load():
    with open(FIXTURE, encoding="utf-8") as fileobj:
        return json.load(fileobj)["cases"]


def assert_recorded(case, built):
    """``built`` (payload bytes, emission order) is what ``case`` recorded."""
    want = load()[case]
    assert [len(payload) for payload in built] == want["lengths"]
    assert built[0].hex() == want["first"]
    assert [_digest(payload) for payload in built[1:]] == want["rest"]


def record(recorded_from):
    doc = {
        "about": "QuicServerEngine reply bytes per drive in "
        "tests/server/flight_vectors.py: 'first' is the first datagram in "
        "hex, 'rest' the blake2b-128 of each later one, 'steps' how many "
        "datagrams each step of the drive emitted.",
        "recorded_from": recorded_from,
        "record_command": "PYTHONPATH=src python -m tests.server.flight_vectors",
        "cases": {
            case: _entry(call, drive()) for case, (call, drive) in CASES.items()
        },
    }
    with open(FIXTURE, "w", encoding="utf-8") as fileobj:
        json.dump(doc, fileobj, indent=1)
        fileobj.write("\n")
    return doc


if __name__ == "__main__":
    import sys

    doc = record(" ".join(sys.argv[1:]) or "an unnamed working tree")
    print("recorded %d cases into %s" % (len(doc["cases"]), FIXTURE))
