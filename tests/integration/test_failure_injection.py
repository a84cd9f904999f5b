"""Failure injection: loss, corruption, and hostile inputs.

The pipeline must stay correct when the network drops packets, when
captures contain corrupted bytes, and when counts are tiny.
"""

import random

import pytest

from repro.active.prober import Prober
from repro.core.timing import timing_profiles
from repro.netstack.pcap import PcapRecord
from repro.telescope.classify import classify_capture
from repro.workloads.scenario import (
    ScenarioConfig,
    build_lb_lab,
    build_scenario,
)


class TestPacketLoss:
    def test_handshakes_complete_despite_loss(self):
        """Client retries are not modelled, but server retransmissions
        recover from lost flights."""
        lab = build_lb_lab(google_hosts=4, facebook_hosts=4, seed=3)
        lab.network.path.loss_rate = 0.2
        prober = Prober(lab.loop, lab.network, timeout=10.0)
        completed = 0
        for _ in range(30):
            result = prober.handshake(lab.vips("Facebook")[0], timeout=10.0)
            completed += result.completed
        # With a 20% loss rate most handshakes still complete (server
        # retransmits its flight on the RTO ladder).
        assert completed >= 20

    def test_lossy_telescope_still_yields_rto_estimates(self):
        config = ScenarioConfig(
            facebook_clusters=2,
            google_clusters=1,
            cloudflare_clusters=1,
            remaining_servers=10,
            facebook_offnets=2,
            cloudflare_offnets=0,
            attacks_facebook=150,
            attacks_google=80,
            attacks_cloudflare=20,
            attacks_offnet=30,
            attacks_remaining=30,
            research_scan_packets=200,
            unknown_scan_packets=100,
            zero_rtt_scan_packets=0,
            noise_packets=50,
        )
        scenario = build_scenario(config)
        scenario.network.path.loss_rate = 0.1
        scenario.run()
        capture = scenario.classify()
        profiles = timing_profiles(capture.backscatter)
        # Despite 10% loss, the RTO mode survives.
        assert profiles["Facebook"].initial_rto == pytest.approx(0.4, abs=0.06)


class TestCorruptedCaptures:
    def test_truncated_and_garbled_records_are_skipped(self, small_scenario):
        rng = random.Random(7)
        records = list(small_scenario.telescope.records[:500])
        mangled = []
        for record in records:
            roll = rng.random()
            if roll < 0.1:
                mangled.append(PcapRecord(record.timestamp, record.data[:10]))
            elif roll < 0.2:
                data = bytearray(record.data)
                data[rng.randrange(len(data))] ^= 0xFF
                mangled.append(PcapRecord(record.timestamp, bytes(data)))
            else:
                mangled.append(record)
        capture = classify_capture(mangled, asdb=small_scenario.asdb)
        # No exception, and the majority of intact records classified.
        assert len(capture) > 300
        assert capture.stats.total_records == 500

    def test_empty_capture(self):
        capture = classify_capture([])
        assert len(capture) == 0
        assert capture.stats.removed_share == 0.0

    def test_all_garbage_capture(self):
        records = [
            PcapRecord(float(i), bytes([i % 256]) * (i % 40 + 1))
            for i in range(50)
        ]
        capture = classify_capture(records)
        assert len(capture) == 0
        assert capture.stats.removed == 50


class TestTinyScenarios:
    def test_single_attack_packet(self):
        config = ScenarioConfig(
            facebook_clusters=1,
            google_clusters=1,
            cloudflare_clusters=1,
            remaining_servers=2,
            facebook_offnets=1,
            cloudflare_offnets=0,
            attacks_facebook=1,
            attacks_google=1,
            attacks_cloudflare=1,
            attacks_offnet=1,
            attacks_remaining=1,
            telescope_bias=1.0,
            research_scan_packets=1,
            unknown_scan_packets=1,
            zero_rtt_scan_packets=0,
            noise_packets=1,
        )
        scenario = build_scenario(config)
        scenario.run()
        capture = scenario.classify()
        # Every spoofed packet had a telescope source -> backscatter exists.
        assert capture.stats.backscatter > 0
        profiles = timing_profiles(capture.backscatter)
        assert profiles  # analyses cope with single-session populations


class TestSpoofedServerSource:
    def test_seed_whose_spoofed_source_is_a_server_drains(self):
        """`simulate --scale 0.25 --seed 109`: a spoofed source address
        equals a server's, so a victim's flight lands on a second server
        and the two used to answer each other's stateless resets for ever."""
        scenario = build_scenario(ScenarioConfig(seed=109).scaled(0.25))
        # A finished run needs 1-1.5 events per unit of planned weight.
        scenario.loop.run(max_events=8 * scenario.loop.expected_events)
        assert scenario.loop.pending == 0
        assert len(scenario.telescope.records) == 19035
