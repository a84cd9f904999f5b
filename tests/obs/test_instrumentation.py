"""Observability hooks threaded through simnet, servers, and the telescope."""

import io
import json
import random

from repro.obs import JsonlTracer, MetricsRegistry, Observability
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Device, Network, PathModel
from repro.netstack.addr import Prefix, parse_ip
from repro.netstack.udp import UdpDatagram


class Sink(Device):
    def __init__(self, name, prefix):
        super().__init__(name)
        self._prefix = Prefix.parse(prefix)
        self.received = []

    def prefixes(self):
        return [self._prefix]

    def handle_datagram(self, datagram, now):
        self.received.append(datagram)


def make_obs():
    sink = io.StringIO()
    return Observability(tracer=JsonlTracer(sink), metrics=MetricsRegistry()), sink


def events_of(sink):
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def dgram(src, dst, payload=b"x"):
    return UdpDatagram(
        src_ip=parse_ip(src), dst_ip=parse_ip(dst), src_port=1000, dst_port=443,
        payload=payload,
    )


class TestNetworkInstrumentation:
    def test_every_outcome_labelled(self):
        obs, sink = make_obs()
        loop = EventLoop(obs)
        net = Network(loop, random.Random(1), PathModel(jitter=0.0), obs=obs)
        receiver = Sink("r", "10.0.0.0/8")
        sender = Sink("s", "192.0.2.0/24")
        net.add_device(receiver)
        net.add_device(sender)
        sender.send(dgram("192.0.2.1", "10.0.0.1"))  # delivered
        sender.send(dgram("192.0.2.1", "203.0.113.9"))  # unrouted
        loop.run()
        counters = obs.metrics.snapshot()["counters"]
        assert counters["net.delivered"]["values"]["r"] == 1
        assert counters["net.dropped"]["values"]["no_route|s"] == 1
        names = {(e["category"], e["name"]) for e in events_of(sink)}
        assert ("net", "packet_delivered") in names
        assert ("net", "packet_dropped") in names

    def test_loss_gets_its_own_drop_reason(self):
        obs, _sink = make_obs()
        loop = EventLoop(obs)
        net = Network(
            loop, random.Random(1), PathModel(jitter=0.0, loss_rate=1.0), obs=obs
        )
        receiver = Sink("r", "10.0.0.0/8")
        sender = Sink("s", "192.0.2.0/24")
        net.add_device(receiver)
        net.add_device(sender)
        for _ in range(4):
            sender.send(dgram("192.0.2.1", "10.0.0.1"))
        loop.run()
        counters = obs.metrics.snapshot()["counters"]
        assert counters["net.dropped"]["values"] == {"loss|r": 4}
        assert counters["net.delivered"]["values"] == {}

    def test_nothing_counted_without_a_registry(self):
        loop = EventLoop()
        net = Network(loop, random.Random(1), PathModel(jitter=0.0))
        assert (net._m_delivered, net._m_dropped) == (None, None)
        receiver = Sink("r", "10.0.0.0/8")
        sender = Sink("s", "192.0.2.0/24")
        net.add_device(receiver)
        net.add_device(sender)
        sender.send(dgram("192.0.2.1", "10.0.0.1"))  # delivered
        sender.send(dgram("192.0.2.1", "203.0.113.9"))  # unrouted
        loop.run()
        assert len(receiver.received) == 1

    def test_every_transmit_is_delivered_or_dropped(self, monkeypatch):
        """The ledger of a lossy month: each transmit lands in exactly one
        of ``net.delivered`` and ``net.dropped``."""
        from dataclasses import replace

        from repro.workloads.scenario import ScenarioConfig, build_scenario

        transmits = []
        transmit = Network.transmit

        def spy(self, sender, datagram):
            transmits.append(datagram)
            transmit(self, sender, datagram)

        monkeypatch.setattr(Network, "transmit", spy)
        obs = Observability(metrics=MetricsRegistry())
        config = replace(ScenarioConfig(seed=5).scaled(0.02), loss_rate=0.05)
        build_scenario(config, obs=obs).run()
        delivered = obs.metrics.counter("net.delivered", ("device",)).total()
        dropped = obs.metrics.counter("net.dropped", ("reason", "device"))
        assert {reason for reason, _device in dropped.values} == {"loss", "no_route"}
        assert delivered > 0
        assert len(transmits) == delivered + dropped.total()


class TestEventLoopInstrumentation:
    def test_run_start_and_end_events(self):
        obs, sink = make_obs()
        loop = EventLoop(obs)
        loop.schedule(1.0, lambda: None)
        loop.run()
        names = [(e["category"], e["name"]) for e in events_of(sink)]
        assert ("sim", "run_start") in names
        assert ("sim", "run_end") in names
        counters = obs.metrics.snapshot()["counters"]
        assert counters["sim.events_processed"]["values"][""] == 1
        gauges = obs.metrics.snapshot()["gauges"]
        assert "sim.sim_to_wall_ratio" in gauges

    def test_budget_raise_still_works_instrumented(self):
        import pytest

        obs, _sink = make_obs()
        loop = EventLoop(obs)

        def rearm():
            loop.schedule(0.001, rearm)

        loop.schedule(0.001, rearm)
        with pytest.raises(RuntimeError):
            loop.run(max_events=50)


class TestScenarioTracing:
    def test_tiny_scenario_emits_core_categories(self):
        from repro.workloads.scenario import ScenarioConfig, build_scenario

        obs, sink = make_obs()
        config = ScenarioConfig(seed=5).scaled(0.01)
        scenario = build_scenario(config, obs=obs)
        scenario.run()
        categories = {e["category"] for e in events_of(sink)}
        for expected in (
            "sim",
            "net",
            "lb",
            "transport",
            "recovery",
            "connectivity",
            "telescope",
            "workload",
        ):
            assert expected in categories, categories
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["telescope.captured"]["values"]
        hist = snapshot["histograms"]["telescope.payload_bytes"]
        assert hist["label_names"] == ["kind"]
        assert any(series["count"] for series in hist["values"].values())

    def test_classify_counts_every_drop(self):
        from repro.telescope.classify import classify_capture
        from repro.workloads.scenario import ScenarioConfig, build_scenario

        scenario = build_scenario(ScenarioConfig(seed=5).scaled(0.01))
        scenario.run()
        obs, sink = make_obs()
        capture = classify_capture(scenario.telescope.records, obs=obs)
        stage = obs.metrics.counter("sanitize.packets", ("stage",))
        kept = stage.value(stage="kept_backscatter") + stage.value(stage="kept_scan")
        assert kept == len(capture)
        dropped = stage.total() - kept
        assert dropped == capture.stats.removed
        drop_events = [
            e for e in events_of(sink) if (e["category"], e["name"]) == ("sanitize", "drop")
        ]
        assert len(drop_events) == capture.stats.removed
        assert all("reason" in e["data"] for e in drop_events)
