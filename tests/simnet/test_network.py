"""Routing, latency, loss, and spoofed-reply semantics."""

import random

import pytest

from repro.netstack.addr import Prefix, parse_ip
from repro.netstack.udp import DeferredDatagram, UdpDatagram
from repro.obs import JsonlTracer, MetricsRegistry, Observability
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Device, Network, PathModel
from repro.telescope.darknet import Telescope


class Sink(Device):
    """Records everything delivered to its prefix."""

    def __init__(self, name, prefix):
        super().__init__(name)
        self._prefix = Prefix.parse(prefix)
        self.received = []

    def prefixes(self):
        return [self._prefix]

    def handle_datagram(self, datagram, now):
        self.received.append((now, datagram))


class Echo(Sink):
    """Replies to every datagram (like a server replying to spoofed src)."""

    def handle_datagram(self, datagram, now):
        super().handle_datagram(datagram, now)
        self.send(datagram.reply(b"reply"))


def make_net(loss=0.0, jitter=0.0):
    """A network with a registry attached, so its transmits are counted."""
    loop = EventLoop()
    net = Network(
        loop,
        random.Random(1),
        PathModel(jitter=jitter, loss_rate=loss),
        obs=Observability(metrics=MetricsRegistry()),
    )
    return loop, net


def counted(net, name):
    """The values of ``net.delivered`` or ``net.dropped`` by snapshot key."""
    return net.obs.metrics.snapshot()["counters"][name]["values"]


def dgram(src, dst, payload=b"x", sport=1000, dport=443):
    return UdpDatagram(
        src_ip=parse_ip(src),
        dst_ip=parse_ip(dst),
        src_port=sport,
        dst_port=dport,
        payload=payload,
    )


class TestRouting:
    def test_longest_prefix_delivery(self):
        loop, net = make_net()
        wide = Sink("wide", "10.0.0.0/8")
        narrow = Sink("narrow", "10.1.0.0/16")
        sender = Sink("sender", "192.0.2.0/24")
        for device in (wide, narrow, sender):
            net.add_device(device)
        sender.send(dgram("192.0.2.1", "10.1.2.3"))
        sender.send(dgram("192.0.2.1", "10.2.0.1"))
        loop.run()
        assert len(narrow.received) == 1
        assert len(wide.received) == 1

    def test_unrouted_dropped_and_counted(self):
        loop, net = make_net()
        sender = Sink("sender", "192.0.2.0/24")
        net.add_device(sender)
        sender.send(dgram("192.0.2.1", "203.0.113.9"))
        loop.run()
        assert counted(net, "net.dropped") == {"no_route|sender": 1}
        assert counted(net, "net.delivered") == {}

    def test_latency_is_positive_and_orderly(self):
        loop, net = make_net()
        receiver = Sink("r", "10.0.0.0/8")
        sender = Sink("s", "192.0.2.0/24")
        net.add_device(receiver)
        net.add_device(sender)
        sender.send(dgram("192.0.2.1", "10.0.0.1"))
        loop.run()
        arrival, _ = receiver.received[0]
        assert arrival >= 0.002  # base propagation delay

    def test_add_route_extra_prefix(self):
        loop, net = make_net()
        receiver = Sink("r", "10.0.0.0/8")
        sender = Sink("s", "192.0.2.0/24")
        net.add_device(receiver)
        net.add_device(sender)
        net.add_route("172.16.0.0/12", receiver)
        sender.send(dgram("192.0.2.1", "172.16.1.1"))
        loop.run()
        assert len(receiver.received) == 1

    def test_route_lookup(self):
        _loop, net = make_net()
        receiver = Sink("r", "10.0.0.0/8")
        net.add_device(receiver)
        assert net.route(parse_ip("10.1.1.1")) is receiver
        assert net.route(parse_ip("11.1.1.1")) is None


class TestSpoofedBackscatter:
    def test_reply_to_spoofed_source_reaches_telescope_prefix(self):
        """The paper's core mechanism: spoofed request, reply lands in the
        darknet."""
        loop, net = make_net()
        server = Echo("server", "157.240.0.0/16")
        telescope = Sink("telescope", "44.0.0.0/9")
        attacker = Sink("attacker", "198.18.0.0/15")
        for device in (server, telescope, attacker):
            net.add_device(device)
        # Attacker spoofs a telescope address as source.
        attacker.send(dgram("44.1.2.3", "157.240.1.1"))
        loop.run()
        assert len(server.received) == 1
        assert len(telescope.received) == 1
        _, backscatter = telescope.received[0]
        assert backscatter.payload == b"reply"
        assert backscatter.src_ip == parse_ip("157.240.1.1")


class TestLoss:
    def test_all_lost_at_rate_one(self):
        loop, net = make_net(loss=1.0)
        receiver = Sink("r", "10.0.0.0/8")
        sender = Sink("s", "192.0.2.0/24")
        net.add_device(receiver)
        net.add_device(sender)
        for _ in range(10):
            sender.send(dgram("192.0.2.1", "10.0.0.1"))
        loop.run()
        assert receiver.received == []
        assert counted(net, "net.dropped") == {"loss|r": 10}

    def test_partial_loss(self):
        # Loss is a keyed hash of the packet, so the sample needs distinct
        # packets (identical packets at the same instant share one fate).
        loop, net = make_net(loss=0.5)
        receiver = Sink("r", "10.0.0.0/8")
        sender = Sink("s", "192.0.2.0/24")
        net.add_device(receiver)
        net.add_device(sender)
        for i in range(200):
            sender.send(dgram("192.0.2.1", "10.0.0.1", payload=b"pkt-%d" % i))
        loop.run()
        assert 50 < len(receiver.received) < 150

    def test_identical_packets_share_fate(self):
        """Packet fate is a pure function of the packet — the property that
        lets sharded runs reproduce a serial capture exactly."""
        loop, net = make_net(loss=0.5)
        receiver = Sink("r", "10.0.0.0/8")
        sender = Sink("s", "192.0.2.0/24")
        net.add_device(receiver)
        net.add_device(sender)
        for _ in range(20):
            sender.send(dgram("192.0.2.1", "10.0.0.1"))
        loop.run()
        assert len(receiver.received) in (0, 20)


class TestDeferredPayload:
    """The route is resolved before anything reads the payload."""

    @staticmethod
    def deferred(dst, payload, builds):
        def build():
            builds.append(payload)
            return payload

        return DeferredDatagram(
            parse_ip("192.0.2.1"), parse_ip(dst), 1000, 443, len(payload), build
        )

    def test_unrouted_datagram_is_dropped_unbuilt(self):
        import io
        import json

        sink = io.StringIO()
        loop = EventLoop()
        obs = Observability(tracer=JsonlTracer(sink), metrics=MetricsRegistry())
        net = Network(loop, random.Random(1), obs=obs)
        sender = Sink("s", "192.0.2.0/24")
        net.add_device(sender)
        builds = []
        sender.send(self.deferred("203.0.113.9", b"never built", builds))
        loop.run()
        assert builds == []
        assert counted(net, "net.dropped") == {"no_route|s": 1}
        (event,) = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert event["name"] == "packet_dropped"
        assert event["data"]["bytes"] == len(b"never built")

    def test_routed_datagram_is_built_once_and_delivered(self):
        loop, net = make_net(jitter=0.001)
        receiver = Sink("r", "10.0.0.0/8")
        sender = Sink("s", "192.0.2.0/24")
        net.add_device(receiver)
        net.add_device(sender)
        builds = []
        sender.send(self.deferred("10.0.0.1", b"sealed", builds))
        assert builds == [b"sealed"]  # in transmit's own call stack
        loop.run()
        ((_, delivered),) = receiver.received
        assert delivered.payload == b"sealed"
        assert builds == [b"sealed"]

    def test_loss_and_jitter_are_those_of_the_built_bytes(self):
        arrivals = []
        for deferred in (True, False):
            loop, net = make_net(loss=0.5, jitter=0.001)
            receiver = Sink("r", "10.0.0.0/8")
            sender = Sink("s", "192.0.2.0/24")
            net.add_device(receiver)
            net.add_device(sender)
            for i in range(200):
                payload = b"pkt-%d" % i
                if deferred:
                    sender.send(self.deferred("10.0.0.1", payload, []))
                else:
                    sender.send(dgram("192.0.2.1", "10.0.0.1", payload=payload))
            loop.run()
            arrivals.append([(now, d.payload) for now, d in receiver.received])
            assert 50 < len(receiver.received) < 150
        assert arrivals[0] == arrivals[1]


class TestDeviceErrors:
    def test_unattached_send_raises(self):
        device = Sink("lonely", "10.0.0.0/8")
        with pytest.raises(RuntimeError):
            device.send(dgram("10.0.0.1", "10.0.0.2"))

    def test_a_passive_device_that_answers_raises(self):
        # A passive device is handed datagrams ahead of their arrival time;
        # one that sent from there would act before the packet reached it.
        class AnsweringTelescope(Telescope):
            def handle_datagram(self, datagram, now):
                super().handle_datagram(datagram, now)
                self.send(datagram.reply(b"nobody home"))

        loop, net = make_net()
        telescope = AnsweringTelescope(prefix="44.0.0.0/9")
        sender = Sink("sender", "192.0.2.0/24")
        net.add_device(telescope)
        net.add_device(sender)
        with pytest.raises(RuntimeError, match="passive device telescope cannot send"):
            sender.send(dgram("192.0.2.1", "44.1.2.3"))


class TestPathValidation:
    """No delay below zero reaches a device: an arrival would precede its
    send, and the telescope spools what lies below the loop's clock."""

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"base_delay": -0.5, "jitter": 0.0},
            {"jitter": -0.01},
            {"loss_rate": 1.5},
            {"loss_rate": -0.1},
        ),
    )
    def test_a_path_model_out_of_range_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="path "):
            PathModel(**kwargs)

    def test_the_edges_of_the_ranges_are_accepted(self):
        PathModel(base_delay=0.0, jitter=0.0, loss_rate=0.0)
        PathModel(loss_rate=1.0)

    def test_a_negative_access_delay_is_refused(self):
        loop, net = make_net()
        telescope = Telescope(prefix="44.0.0.0/9")
        telescope.access_delay = -0.5
        with pytest.raises(ValueError, match="telescope: access_delay"):
            net.add_device(telescope)
        assert net.route(parse_ip("44.1.2.3")) is None
        assert telescope.network is None

    def test_a_negative_jitter_scenario_is_refused_when_built(self):
        from repro.workloads.scenario import ScenarioConfig, build_scenario

        with pytest.raises(ValueError, match="jitter"):
            build_scenario(ScenarioConfig(jitter=-0.01))


class TestDeliveryModes:
    def test_passive_sink_gets_the_arrival_time_and_no_event(self):
        loop, net = make_net(jitter=0.001)
        telescope = Telescope(prefix="44.0.0.0/9")
        reactive = Sink("reactive", "10.0.0.0/8")
        sender = Sink("sender", "192.0.2.0/24")
        for device in (telescope, reactive, sender):
            net.add_device(device)
        loop.schedule_at(2.5, lambda: sender.send(dgram("192.0.2.1", "44.1.2.3")))
        loop.schedule_at(2.5, lambda: sender.send(dgram("192.0.2.1", "10.1.2.3")))
        loop.run()
        # Two sends; one delivery event, for the device that could react.
        assert loop.events_processed == 3
        assert len(telescope) == len(reactive.received) == 1
        # base 2 ms + two 5 ms access delays + up to 1 ms of jitter.
        assert 2.5 + 0.012 <= telescope.records[0].timestamp < 2.5 + 0.013
        assert loop.now == reactive.received[0][0]
        assert counted(net, "net.delivered") == {"reactive": 1, "telescope": 1}
