"""The trace and the registry report each server-engine event alike.

The engine counts an event into ``engine.events`` and, when a tracer is
live, emits it; both are read off one run here, so a site that counts
without emitting (or the reverse) fails.
"""

import io
import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.active.migration import migration_outcomes
from repro.active.prober import Prober
from repro.netstack.addr import parse_ip
from repro.obs import JsonlTracer, MetricsRegistry, Observability
from repro.server.engine import QuicServerEngine
from repro.server.profiles import facebook_profile
from repro.simnet.eventloop import EventLoop
from repro.workloads.clients import ClientConnection
from repro.workloads.scenario import ScenarioConfig, build_lb_lab, build_scenario
from tests.server.metered import engine_events

#: Traced event name -> its ``engine.events`` value.
PAIRS = {
    "packet_received": "packets_received",
    "packet_sent": "flights_sent",
    "connection_created": "connections_created",
    "connection_established": "connections_established",
    "connection_expired": "connections_expired",
    "migration_accepted": "migrations_accepted",
    "new_cid_issued": "new_cids_issued",
    "stateless_reset_sent": "stateless_resets_sent",
    "rto_fired": "retransmissions",
    "flight_abandoned": "flights_abandoned",
    "retry_sent": "retries_sent",
    "version_negotiation_sent": "version_negotiations",
}


def _traced():
    sink = io.StringIO()
    return sink, Observability(tracer=JsonlTracer(sink), metrics=MetricsRegistry())


def _traced_counts(sink):
    counts = Counter()
    for line in sink.getvalue().splitlines():
        event = json.loads(line)
        name = event["name"]
        if name == "packet_sent" and event["data"]["kind"] != "handshake_flight":
            continue
        counts[name] += 1
    return counts


def _lab_probes(obs):
    lab = build_lb_lab(
        google_hosts=6, facebook_hosts=6, quic_lb_hosts=6, seed=5, obs=obs
    )
    migration_outcomes(
        {
            name: (
                Prober(lab.loop, lab.network, address="198.51.100.%d" % (10 + i)),
                lab.vips(name),
            )
            for i, name in enumerate(("Facebook", "Google", "QuicLB"))
        },
        probes_per_cell=3,
    )


def _engine_past_idle_timeout(obs):
    """An established connection, then a 1-RTT packet after its idle
    timeout; and an engine that answers every Initial with a Retry."""
    client = parse_ip("198.51.100.7")
    vip = parse_ip("157.240.1.10")
    retrying = replace(facebook_profile(), retry_probability=1.0)
    for profile in (facebook_profile(), retrying):
        sent = []
        engine = QuicServerEngine(
            profile=profile,
            loop=EventLoop(),
            rng=random.Random(1),
            send=sent.append,
            obs=obs,
        )
        connection = ClientConnection(
            rng=random.Random(99),
            src_ip=client,
            src_port=5000,
            dst_ip=vip,
            version=profile.supported_versions[0],
        )
        engine.on_datagram(connection.initial_datagram(), 0.0)
        for datagram in list(sent):
            reply = connection.on_datagram(datagram, 0.01)
            if reply is not None:
                engine.on_datagram(reply, 0.02)
        if connection.result.completed:
            late = profile.idle_timeout + 5.0
            engine.on_datagram(connection.migration_datagram(5000), late)


def _month(obs):
    build_scenario(ScenarioConfig(seed=20220101).scaled(0.02), obs=obs).run()


RUNS = {
    "lab-probes": _lab_probes,
    "engine-idle": _engine_past_idle_timeout,
    "month": _month,
}


@pytest.fixture(scope="module")
def reports():
    """Per run: the traced event counts and the ``engine.events`` counts."""
    out = {}
    for name, run in RUNS.items():
        sink, obs = _traced()
        run(obs)
        out[name] = (_traced_counts(sink), engine_events(obs))
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_traced_engine_event_is_counted(reports, name):
    traced, counted = reports[name]
    assert {trace: traced[trace] for trace in PAIRS} == {
        trace: counted[event] for trace, event in PAIRS.items()
    }


def test_the_runs_exercise_every_pair(reports):
    seen = sum((counted for _traced, counted in reports.values()), Counter())
    assert [event for event in PAIRS.values() if not seen[event]] == []
