"""Frontend clusters: VIPs, ECMP, routing modes, direct server return."""

import random

import pytest

from repro.netstack.addr import Prefix, parse_ip
from repro.quic.packet import parse_long_header
from repro.server.engine import QuicServerEngine
from repro.server.lb.cluster import FrontendCluster
from repro.server.lb.l4lb import extract_dcid
from repro.server.lb.l7lb import L7LbHost
from repro.server.profiles import facebook_profile, google_profile
from repro.server.simple import SimpleQuicServer
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Device, Network, PathModel
from repro.workloads.clients import ClientConnection
from tests.server.metered import engine_events, metered

CLIENT = parse_ip("198.51.100.7")


def make_cluster(profile=None, hosts=8, vips=4, obs=None):
    loop = EventLoop()
    net = Network(loop, random.Random(2), PathModel(jitter=0.0))
    cluster = FrontendCluster(
        name="test-pop",
        prefix="157.240.1.0/24",
        profile=profile or facebook_profile(),
        loop=loop,
        rng=random.Random(1),
        vip_count=vips,
        l7_host_count=hosts,
        host_id_base=100,
        obs=obs,
    )
    net.add_device(cluster)
    return cluster, loop, net


def initial_to(vip, src_port, version=1, dcid=None):
    connection = ClientConnection(
        rng=random.Random(src_port),
        src_ip=CLIENT,
        src_port=src_port,
        dst_ip=vip,
        version=version,
        dcid=dcid,
    )
    return connection.initial_datagram()


class _ClientDevice(Device):
    """The client's /32: records what the servers send it."""

    def __init__(self, received):
        super().__init__("client")
        self.received = received

    def prefixes(self):
        return [Prefix(CLIENT, 32)]

    def handle_datagram(self, datagram, now):
        self.received.append(datagram)


class TestClusterBasics:
    def test_vip_layout(self):
        cluster, _loop, _net = make_cluster(vips=4)
        assert [v & 0xFF for v in cluster.vips] == [1, 2, 3, 4]
        assert cluster.host_ids == list(range(100, 108))

    def test_non_vip_addresses_dropped(self):
        obs = metered()
        cluster, loop, _net = make_cluster(vips=2, obs=obs)
        datagram = initial_to(cluster.prefix.host(200), 4000)
        cluster.handle_datagram(datagram, 0.0)
        dropped = obs.metrics.counter("lb.dropped", ("lb", "reason"))
        assert dropped.values == {("test-pop", "non_vip"): 1}
        assert engine_events(obs)["connections_created"] == 0

    def test_vip_accepts_and_creates_connection(self):
        obs = metered()
        cluster, loop, _net = make_cluster(obs=obs)
        cluster.handle_datagram(initial_to(cluster.vips[0], 4000), 0.0)
        assert engine_events(obs)["connections_created"] == 1

    def test_prefix_too_small_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            FrontendCluster(
                name="x",
                prefix="10.0.0.0/30",
                profile=facebook_profile(),
                loop=loop,
                rng=random.Random(1),
                vip_count=8,
                l7_host_count=2,
            )


class TestRouting:
    def test_5tuple_routing_spreads_over_hosts(self):
        cluster, loop, _net = make_cluster(hosts=8)
        vip = cluster.vips[0]
        for port in range(2000, 2400):
            cluster.handle_datagram(initial_to(vip, port), 0.0)
        hosts_hit = sum(1 for h in cluster.hosts if h.workers)
        assert hosts_hit == 8

    def test_5tuple_routing_is_stable_per_flow(self):
        cluster, loop, _net = make_cluster(hosts=8)
        vip = cluster.vips[0]
        datagram = initial_to(vip, 3333)
        l4 = cluster.l4lbs[0]
        dcid = extract_dcid(datagram, l4.cid_length)
        key_a = l4.routing_key(datagram, dcid)
        key_b = l4.routing_key(datagram, dcid)
        assert key_a == key_b
        assert l4.maglev.lookup(key_a) == l4.maglev.lookup(key_b)

    def test_cid_routing_follows_dcid_not_port(self):
        cluster, loop, _net = make_cluster(google_profile(), hosts=8)
        vip = cluster.vips[0]
        dcid = bytes(range(8))
        a = initial_to(vip, 1111, dcid=dcid)
        b = initial_to(vip, 9999, dcid=dcid)
        l4 = cluster.l4lbs[0]
        assert l4.maglev.lookup(l4.routing_key(a, dcid)) == l4.maglev.lookup(
            l4.routing_key(b, dcid)
        )

    def test_all_l4lbs_share_the_maglev_view(self):
        cluster, _loop, _net = make_cluster(hosts=8)
        key = b"some-flow"
        picks = {l4.maglev.lookup(key) for l4 in cluster.l4lbs}
        assert len(picks) == 1

    def test_host_handles_the_datagram_it_was_handed(self, monkeypatch):
        """The fabric routes; it does not re-serialize or copy the datagram."""
        handled = []
        on_datagram = QuicServerEngine.on_datagram

        def spy(engine, datagram, now):
            handled.append(datagram)
            return on_datagram(engine, datagram, now)

        monkeypatch.setattr(QuicServerEngine, "on_datagram", spy)
        obs = metered()
        cluster, loop, net = make_cluster(obs=obs)
        received = []
        net.add_device(_ClientDevice(received))
        vip = cluster.vips[0]
        datagram = initial_to(vip, 4000)
        cluster.handle_datagram(datagram, 0.0)
        assert len(handled) == 1 and handled[0] is datagram
        assert obs.metrics.counter("lb.dispatch", ("lb", "routing")).total() == 1
        loop.run_until(0.1)
        assert received
        assert all(d.src_ip == vip for d in received)


class TestDirectServerReturn:
    def test_reply_comes_from_vip(self):
        cluster, loop, net = make_cluster()
        received = []
        net.add_device(_ClientDevice(received))
        vip = cluster.vips[1]
        cluster.handle_datagram(initial_to(vip, 7777), 0.0)
        loop.run_until(0.1)
        assert received
        assert all(d.src_ip == vip for d in received)


class TestWorkerState:
    """The paper: Facebook tracks connection state per host *and* worker."""

    def test_workers_materialized_lazily(self):
        cluster, _loop, _net = make_cluster(hosts=8)
        assert all(not h.workers for h in cluster.hosts)
        cluster.handle_datagram(initial_to(cluster.vips[0], 4000), 0.0)
        materialized = [len(h.workers) for h in cluster.hosts if h.workers]
        assert materialized == [1]

    def test_worker_selection_stable(self):
        host = L7LbHost(
            host_id=1,
            profile=facebook_profile(),
            loop=EventLoop(),
            rng=random.Random(1),
            send=lambda d: None,
        )
        datagram = initial_to(parse_ip("157.240.1.1"), 4000)
        a = host.select_worker_id(datagram, b"")
        b = host.select_worker_id(datagram, b"")
        assert a == b

    def test_engine_stats_aggregation(self):
        obs = metered()
        cluster, _loop, _net = make_cluster(obs=obs)
        cluster.handle_datagram(initial_to(cluster.vips[0], 4000), 0.0)
        stats = engine_events(obs)
        assert stats["connections_created"] == 1
        assert stats["flights_sent"] == 1


class TestSimpleServer:
    def test_answers_on_its_address(self):
        obs = metered()
        loop = EventLoop()
        net = Network(loop, random.Random(3), PathModel(jitter=0.0))
        address = parse_ip("87.128.1.99")
        server = SimpleQuicServer(
            name="cache",
            address=address,
            profile=facebook_profile(),
            loop=loop,
            rng=random.Random(1),
            host_id=5,
            obs=obs,
        )
        net.add_device(server)
        server.handle_datagram(initial_to(address, 4000), 0.0)
        assert engine_events(obs)["connections_created"] == 1

    def test_host_id_in_scids(self):
        loop = EventLoop()
        sent = []
        address = parse_ip("87.128.1.99")
        server = SimpleQuicServer(
            name="cache",
            address=address,
            profile=facebook_profile(),
            loop=loop,
            rng=random.Random(1),
            host_id=5,
        )
        server.host._send = sent.append  # bypass network
        server.handle_datagram(initial_to(address, 4001), 0.0)
        from repro.quic.cid import mvfst

        parsed = parse_long_header(sent[0].payload)
        assert mvfst.decode(parsed.scid).host_id == 5
