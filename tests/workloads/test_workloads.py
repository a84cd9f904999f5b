"""Traffic generators: clients, attackers, scanners, scenario wiring."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.netstack.addr import Prefix, parse_ip
from repro.obs import MetricsRegistry, Observability
from repro.quic.packet import PacketType, parse_long_header
from repro.quic.version import DRAFT_29, QUIC_V1, QUIC_V2
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Device, Network, PathModel
from repro.telescope.darknet import Telescope
from repro.workloads.attackers import AttackPlan, SpoofingAttacker
from repro.workloads.clients import ClientConnection, stateless_initial
from repro.workloads.scanners import NoiseSource, ResearchScanner, UnknownScanner
from repro.workloads.scenario import (
    ScenarioConfig,
    april_2021_config,
    build_scenario,
    plan_traffic_units,
)
from tests.integration.test_golden_pcap import ONE_SIDED


class Recorder(Device):
    def __init__(self, name, prefix):
        super().__init__(name)
        self._prefix = Prefix.parse(prefix)
        self.received = []

    def prefixes(self):
        return [self._prefix]

    def handle_datagram(self, datagram, now):
        self.received.append(datagram)


class TestClientConnection:
    def test_initial_padded_to_1200(self):
        connection = ClientConnection(
            rng=random.Random(1),
            src_ip=parse_ip("1.1.1.1"),
            src_port=4000,
            dst_ip=parse_ip("2.2.2.2"),
        )
        datagram = connection.initial_datagram()
        assert len(datagram.payload) == 1200
        parsed = parse_long_header(datagram.payload)
        assert parsed.packet_type is PacketType.INITIAL
        assert parsed.dcid == connection.dcid

    def test_version_negotiation_recorded(self):
        connection = ClientConnection(
            rng=random.Random(1),
            src_ip=parse_ip("1.1.1.1"),
            src_port=4000,
            dst_ip=parse_ip("2.2.2.2"),
        )
        from repro.quic.packet import VersionNegotiationPacket, encode_version_negotiation
        from repro.netstack.udp import UdpDatagram

        vn = encode_version_negotiation(
            VersionNegotiationPacket(
                dcid=connection.scid, scid=connection.dcid, supported_versions=(1, 0xFF00001D)
            )
        )
        reply = connection.on_datagram(
            UdpDatagram(
                src_ip=parse_ip("2.2.2.2"),
                dst_ip=parse_ip("1.1.1.1"),
                src_port=443,
                dst_port=4000,
                payload=vn,
            )
        )
        assert reply is None
        assert connection.result.version_negotiation == (1, 0xFF00001D)
        assert not connection.result.completed

    def test_ignores_unrelated_datagram(self):
        connection = ClientConnection(
            rng=random.Random(1),
            src_ip=parse_ip("1.1.1.1"),
            src_port=4000,
            dst_ip=parse_ip("2.2.2.2"),
        )
        from repro.netstack.udp import UdpDatagram

        assert (
            connection.on_datagram(
                UdpDatagram(
                    src_ip=parse_ip("2.2.2.2"),
                    dst_ip=parse_ip("1.1.1.1"),
                    src_port=443,
                    dst_port=4000,
                    payload=b"garbage",
                )
            )
            is None
        )


class TestStatelessInitial:
    @pytest.mark.parametrize("dcid_length", [8, 12])
    def test_draws_and_seals_what_a_connection_would(self, dcid_length):
        """Same seed, same bytes: DCID, SCID, random drawn in one order."""
        rng = random.Random(77)
        connection = ClientConnection(
            rng=rng,
            src_ip=1,
            src_port=2,
            dst_ip=3,
            version=0xFACEB002,
            server_name="example.org",
            dcid=None
            if dcid_length == 8
            else rng.getrandbits(8 * dcid_length).to_bytes(dcid_length, "big"),
        )
        assert stateless_initial(
            random.Random(77),
            "fast",
            0xFACEB002,
            "example.org",
            dcid_length=dcid_length,
        ) == connection.initial_datagram().payload


    @settings(max_examples=150, deadline=None)
    @given(
        suite=st.sampled_from(("fast", "rfc9001", "null")),
        version=st.sampled_from(
            (
                QUIC_V1.value,
                QUIC_V2.value,  # its own salt and key/iv/hp labels
                DRAFT_29.value,
                0xFACEB002,  # mvfst: the draft-29 salt
                0x1A2A3A4A,  # GREASE, as the research scanner sends
                0xFF00007F,  # the attackers' bogus draft
            )
        ),
        dcid_length=st.integers(0, 20),
        pad_to=st.sampled_from((0, 1200)),
        server_name=st.sampled_from(("", "example.org", "www.facebook.com")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_suite_and_shape_seals_what_a_connection_would(
        self, suite, version, dcid_length, pad_to, server_name, seed
    ):
        """The one-shot seal (client keys alone, the suite's ``seal``)
        against the connection's (a ``PacketProtection`` and its schedule)."""
        rng = random.Random(seed)
        connection = ClientConnection(
            rng=rng,
            src_ip=1,
            src_port=2,
            dst_ip=3,
            version=version,
            server_name=server_name,
            dcid=rng.getrandbits(8 * dcid_length).to_bytes(dcid_length, "big"),
            suite=suite,
            pad_to=pad_to,
        )
        assert stateless_initial(
            random.Random(seed), suite, version, server_name, pad_to, dcid_length
        ) == connection.initial_datagram().payload


class TestAttacker:
    def make(self, bias=1.0):
        loop = EventLoop()
        net = Network(loop, random.Random(5), PathModel(jitter=0.0))
        telescope = Recorder("telescope", "44.0.0.0/9")
        victim = Recorder("victim", "157.240.1.0/24")
        net.add_device(telescope)
        net.add_device(victim)
        attacker = SpoofingAttacker(
            name="atk",
            loop=loop,
            rng=random.Random(7),
            telescope_prefix=Prefix.parse("44.0.0.0/9"),
            spoof_pool=[Prefix.parse("87.128.0.0/16")],
            telescope_bias=bias,
        )
        net.add_device(attacker)
        return loop, telescope, victim, attacker

    def test_flood_reaches_victim_with_spoofed_sources(self):
        loop, telescope, victim, attacker = self.make(bias=1.0)
        attacker.launch(
            AttackPlan(
                targets=(parse_ip("157.240.1.10"),), packet_count=50, duration=10.0
            )
        )
        loop.run()
        assert len(victim.received) == 50
        telescope_prefix = Prefix.parse("44.0.0.0/9")
        assert all(d.src_ip in telescope_prefix for d in victim.received)
        assert attacker.packets_sent == 50

    def test_bias_splits_spoof_pool(self):
        loop, _telescope, victim, attacker = self.make(bias=0.5)
        attacker.launch(
            AttackPlan(
                targets=(parse_ip("157.240.1.10"),), packet_count=300, duration=10.0
            )
        )
        loop.run()
        telescope_prefix = Prefix.parse("44.0.0.0/9")
        inside = sum(1 for d in victim.received if d.src_ip in telescope_prefix)
        assert 90 < inside < 210

    def test_multi_target_plan(self):
        loop, _telescope, victim, attacker = self.make()
        targets = tuple(parse_ip("157.240.1.%d" % i) for i in range(1, 11))
        attacker.launch(AttackPlan(targets=targets, packet_count=200, duration=5.0))
        loop.run()
        assert len({d.dst_ip for d in victim.received}) == 10

    def test_bogus_version_share(self):
        loop, _telescope, victim, attacker = self.make()
        attacker.launch(
            AttackPlan(
                targets=(parse_ip("157.240.1.10"),),
                packet_count=100,
                duration=5.0,
                bogus_version_probability=1.0,
            )
        )
        loop.run()
        versions = {parse_long_header(d.payload).version for d in victim.received}
        assert versions == {SpoofingAttacker.BOGUS_VERSION}

    def test_empty_plan_rejected(self):
        _loop, _telescope, _victim, attacker = self.make()
        with pytest.raises(ValueError):
            attacker.launch(AttackPlan(targets=(1,), packet_count=0))


class TestScanners:
    def make_net(self):
        loop = EventLoop()
        net = Network(loop, random.Random(5), PathModel(jitter=0.0))
        telescope = Recorder("telescope", "44.0.0.0/9")
        net.add_device(telescope)
        return loop, net, telescope

    def test_research_scanner_uses_grease_version(self):
        loop, net, telescope = self.make_net()
        scanner = ResearchScanner(
            name="umich",
            address=parse_ip("141.212.0.7"),
            loop=loop,
            rng=random.Random(1),
            target_prefix=Prefix.parse("44.0.0.0/9"),
        )
        net.add_device(scanner)
        scanner.sweep(20, duration=5.0)
        loop.run()
        assert len(telescope.received) == 20
        versions = {parse_long_header(d.payload).version for d in telescope.received}
        assert versions == {ResearchScanner.GREASE_VERSION}
        # Stateless probes are small (unpadded).
        assert all(len(d.payload) < 600 for d in telescope.received)

    def test_unknown_scanner_version_mix(self):
        loop, net, telescope = self.make_net()
        scanner = UnknownScanner(
            name="bot",
            address=parse_ip("87.128.9.9"),
            loop=loop,
            rng=random.Random(1),
            target_prefix=Prefix.parse("44.0.0.0/9"),
            versions=((1, 0.5), (0xFACEB002, 0.5)),
        )
        net.add_device(scanner)
        scanner.sweep(200, duration=5.0)
        loop.run()
        versions = [parse_long_header(d.payload).version for d in telescope.received]
        assert versions.count(1) > 50
        assert versions.count(0xFACEB002) > 50

    def test_zero_rtt_scanner(self):
        loop, net, telescope = self.make_net()
        scanner = UnknownScanner(
            name="bot0rtt",
            address=parse_ip("87.128.9.9"),
            loop=loop,
            rng=random.Random(1),
            target_prefix=Prefix.parse("44.0.0.0/9"),
            zero_rtt_probability=1.0,
        )
        net.add_device(scanner)
        scanner.sweep(10, duration=1.0)
        loop.run()
        types = {
            parse_long_header(d.payload).packet_type for d in telescope.received
        }
        assert types == {PacketType.ZERO_RTT}

    def test_a_sweep_is_one_pending_event_per_probe(self):
        loop = EventLoop()
        net = Network(loop, random.Random(5))
        net.add_device(Telescope())
        scanner = ResearchScanner(
            name="umich",
            address=parse_ip("141.212.0.7"),
            loop=loop,
            rng=random.Random(1),
            target_prefix=Prefix.parse("44.0.0.0/9"),
        )
        net.add_device(scanner)
        scanner.sweep(7, start_time=1.0, duration=3.5)
        sent_at = []
        while loop.pending:
            assert loop.pending == 1
            loop.step()
            sent_at.append(loop.now)
        # The times a loop over i would have pushed, not a running sum.
        assert sent_at == [1.0 + i * (3.5 / 7) for i in range(7)]
        assert scanner.packets_sent == 7
        scanner.sweep(0)
        assert loop.pending == 0

    def test_noise_is_not_quic(self):
        from repro.core.dissector import is_quic_datagram

        loop, net, telescope = self.make_net()
        noise = NoiseSource(
            name="noise",
            address=parse_ip("87.128.1.1"),
            loop=loop,
            rng=random.Random(1),
            target_prefix=Prefix.parse("44.0.0.0/9"),
        )
        net.add_device(noise)
        noise.sweep(50, duration=5.0)
        loop.run()
        assert len(telescope.received) == 50
        assert not any(is_quic_datagram(d.payload) for d in telescope.received)


class TestScenarioBuilder:
    def test_2021_config_scaled(self):
        cfg = april_2021_config()
        base = ScenarioConfig()
        assert cfg.year == 2021
        assert cfg.attacks_google < base.attacks_google / 4
        assert cfg.unknown_scan_packets < base.unknown_scan_packets / 7

    def test_scaled_helper(self):
        cfg = ScenarioConfig().scaled(0.1)
        assert cfg.attacks_facebook == ScenarioConfig().attacks_facebook // 10

    def test_a_scan_only_scenario_is_one_event_per_record(self):
        """Nobody answers a stateless probe and the telescope is handed its
        arrivals at transmit time: N probes, N events, N records."""
        config = replace(
            ScenarioConfig(seed=3).scaled(0.02),
            **{knob: 0 for knob in ONE_SIDED["scans-only-20220101-x0.05"]},
        )
        probes = sum(unit.count for unit in plan_traffic_units(config))
        obs = Observability(metrics=MetricsRegistry())
        scenario = build_scenario(config, obs=obs)
        scenario.run()
        assert probes == 772
        assert scenario.loop.events_processed == probes
        assert len(scenario.telescope.records) == probes
        assert obs.metrics.counter("net.delivered", ("device",)).total() == probes

    def test_small_scenario_wiring(self, small_scenario):
        scenario = small_scenario
        assert len(scenario.clusters["Facebook"]) == 3
        assert scenario.vips("Facebook")
        assert scenario.attacker is not None
        assert len(scenario.telescope.records) > 1000
        # Host IDs disjoint across Facebook clusters.
        all_ids = [
            host_id
            for cluster in scenario.clusters["Facebook"]
            for host_id in cluster.host_ids
        ]
        assert len(all_ids) == len(set(all_ids))

    def test_classification_has_all_populations(self, small_capture):
        origins = {p.origin for p in small_capture.backscatter}
        assert {"Facebook", "Google", "Cloudflare", "Remaining"} <= origins
        assert small_capture.stats.acknowledged_scanner > 0
        assert small_capture.stats.failed_dissection > 0
        assert small_capture.stats.scans > 0
