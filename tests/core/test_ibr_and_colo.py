"""IBR activity analysis: the flood events behind a capture's backscatter."""

from collections import Counter

import pytest

from repro.core.ibr_activity import FloodEvents, detect_flood_events
from repro.telescope.classify import CapturedPacket, PacketClass


def synth_packet(ts, src=1, dst=2):
    """A minimal CapturedPacket for event-detection logic tests."""
    from repro.quic.packet import PacketType, ParsedLongHeader

    header = ParsedLongHeader(
        packet_type=PacketType.INITIAL,
        version=1,
        dcid=b"\x01" * 8,
        scid=b"\x02" * 8,
        token=b"",
        pn_offset=20,
        packet_length=1200,
        payload_length=1180,
    )
    return CapturedPacket(
        timestamp=ts,
        src_ip=src,
        dst_ip=dst,
        src_port=443,
        dst_port=4000,
        udp_payload_length=1200,
        packets=[header],
        klass=PacketClass.BACKSCATTER,
        origin="Facebook",
    )


class TestFloodDetection:
    def test_single_burst(self):
        packets = [synth_packet(float(t)) for t in range(20)]
        events = detect_flood_events(packets, quiet_gap=60, min_packets=5)
        assert len(events) == 1
        event = events[0]
        assert event.packets == 20
        assert event.duration == 19.0
        assert event.rate == pytest.approx(20 / 19)

    def test_quiet_gap_splits_events(self):
        packets = [synth_packet(float(t)) for t in range(15)]
        packets += [synth_packet(500.0 + t) for t in range(15)]
        events = detect_flood_events(packets, quiet_gap=120, min_packets=5)
        assert len(events) == 2
        assert events[0].end < events[1].start

    def test_min_packets_filters_noise(self):
        packets = [synth_packet(0.0), synth_packet(1.0)]
        assert detect_flood_events(packets, min_packets=5) == []

    def test_distinct_victims_distinct_events(self):
        packets = [synth_packet(float(t), src=1) for t in range(10)]
        packets += [synth_packet(float(t), src=2) for t in range(10)]
        events = detect_flood_events(packets, min_packets=5)
        assert {e.victim for e in events} == {1, 2}

    def test_spoofed_target_count(self):
        packets = [synth_packet(float(t), dst=100 + t % 7) for t in range(14)]
        events = detect_flood_events(packets, min_packets=5)
        assert events[0].spoofed_targets == 7

    def test_on_simulated_month(self, small_capture):
        events = detect_flood_events(small_capture.backscatter, min_packets=4)
        assert len({e.victim for e in events}) > 50
        per_origin = Counter(e.origin for e in events)
        assert per_origin["Facebook"] > 0
        assert per_origin["Google"] > 0

    def test_an_open_burst_counts_once_it_is_big_enough(self):
        events = FloodEvents(quiet_gap=60, min_packets=3)
        for t in (0.0, 1.0):
            events.add_values(1, 2, "Facebook", t)
        assert events.events() == []
        events.add_values(1, 2, "Facebook", 2.0)
        (open_burst,) = events.events()
        events.add_values(1, 2, "Facebook", 500.0)  # closes it, opens a burst of one
        assert events.events() == [open_burst] and open_burst.packets == 3

