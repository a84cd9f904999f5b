"""Darknet capture, acknowledged scanners, and the sanitization pipeline."""

import hashlib
import io
import random
from bisect import bisect_left

import pytest

from repro.core.dissector import dissect_datagram
from repro.inetdata.asdb import AsDatabase
from repro.netstack.addr import Prefix, parse_ip
from repro.netstack.pcap import PcapReader, PcapRecord, record_sort_key, split_timestamp
from repro.netstack.udp import UdpDatagram, encode_udp
from repro.simnet.eventloop import EventLoop
from repro.simnet.network import Device, Network, PathModel
from repro.telescope import darknet
from repro.telescope.acknowledged import AcknowledgedScanners
from repro.telescope.classify import PacketClass, classify_capture
from repro.telescope.darknet import Telescope
from repro.workloads.clients import ClientConnection


def quic_record(src, dst, sport, dport, ts=1.0, version=1, pad=1200):
    connection = ClientConnection(
        rng=random.Random(sport),
        src_ip=parse_ip(src),
        src_port=sport,
        dst_ip=parse_ip(dst),
        dst_port=dport,
        version=version,
        pad_to=pad,
    )
    datagram = connection.initial_datagram()
    # For backscatter-style records we need the source port to be 443.
    datagram = UdpDatagram(
        src_ip=datagram.src_ip,
        dst_ip=datagram.dst_ip,
        src_port=sport,
        dst_port=dport,
        payload=datagram.payload,
    )
    return PcapRecord(timestamp=ts, data=encode_udp(datagram))


def noise_record(src, dst, sport, dport, payload=b"\x16\x03\x03junk"):
    datagram = UdpDatagram(
        src_ip=parse_ip(src),
        dst_ip=parse_ip(dst),
        src_port=sport,
        dst_port=dport,
        payload=payload,
    )
    return PcapRecord(timestamp=1.0, data=encode_udp(datagram))


class TestTelescopeDevice:
    def test_records_and_serializes(self):
        telescope = Telescope(prefix="44.0.0.0/9")
        datagram = UdpDatagram(
            src_ip=parse_ip("1.2.3.4"),
            dst_ip=parse_ip("44.0.0.1"),
            src_port=443,
            dst_port=5,
            payload=b"x",
        )
        telescope.handle_datagram(datagram, 12.5)
        assert len(telescope) == 1
        buf = io.BytesIO()
        telescope.write_pcap(buf)
        buf.seek(0)
        records = list(PcapReader(buf))
        assert len(records) == 1
        assert abs(records[0].timestamp - 12.5) < 1e-6

    def test_owns_prefix(self):
        telescope = Telescope()
        assert telescope.prefixes() == [Prefix.parse("44.0.0.0/9")]


class TestCaptureOrder:
    """The pcap is in arrival order; equal microseconds in packet-byte order.

    So the capture is a function of its records alone, whichever process
    captured them.  Real captures hold such ties too — on the benchmark's
    ``month_2022``, 46 of 38,460 records changed place when ties went to
    byte order — but here there is no jitter and every delay is a power
    of two, so arrival times tie exactly, in a pattern chosen to show
    the rule.
    """

    #: blake2b-128 of the pcap below.
    PCAP_DIGEST = "0801fa6df10c3c321819f26304ad472d"

    def test_ties_in_byte_order_a_later_send_arrives_first(self):
        loop = EventLoop()
        net = Network(loop, random.Random(1), PathModel(base_delay=0.125, jitter=0.0))
        telescope = Telescope()
        telescope.access_delay = 0.125
        senders = {}
        for name, access_delay in (("a", 0.5), ("b", 0.5), ("near", 0.25), ("nearer", 0.0625)):
            senders[name] = sender = Device(name)
            sender.access_delay = access_delay
        for device in (telescope, *senders.values()):
            net.add_device(device)

        def send(name, i):
            senders[name].send(
                UdpDatagram(
                    src_ip=parse_ip("198.51.100.%d" % (1 + ord(name[0]) % 200)),
                    dst_ip=parse_ip("44.0.0.%d" % i),
                    src_port=40000 + len(name),
                    dst_port=443,
                    payload=b"%s-%d" % (name.encode(), i),
                )
            )

        for i in range(6):
            at = float(i)
            # a and b transmit at the same instant over equal paths ...
            loop.schedule_at(at, lambda i=i: send("a", i))
            loop.schedule_at(at, lambda i=i: send("b", i))
            # ... "near" leaves 0.25 later over a path 0.25 shorter (same
            # arrival time, transmitted last) and "nearer" leaves 0.125
            # later over a path 0.4375 shorter (arrives before all three).
            loop.schedule_at(at + 0.25, lambda i=i: send("near", i))
            loop.schedule_at(at + 0.125, lambda i=i: send("nearer", i))
        loop.run()

        records = list(telescope.records)
        # "b" sorts before "a": its higher source address lowers the IPv4
        # checksum, the first byte where the two packets differ.
        order = ("nearer", "b", "a", "near")
        assert [bytes(record.data[28:]).decode() for record in records] == [
            "%s-%d" % (name, i) for i in range(6) for name in order
        ]
        assert records == sorted(records, key=record_sort_key)
        assert records[1].timestamp == records[2].timestamp == records[3].timestamp
        buf = io.BytesIO()
        telescope.write_pcap(buf)
        assert (
            hashlib.blake2b(buf.getvalue(), digest_size=16).hexdigest()
            == self.PCAP_DIGEST
        )


class TestSpool:
    """Final records leave memory; the pcap keeps every byte and its order."""

    SPOOL_AFTER = 1 << 16  # a small run outgrows it more than ten times over

    def _run(self, monkeypatch, spool_after, watch=None):
        from repro.workloads.scenario import ScenarioConfig, build_scenario

        monkeypatch.setattr(darknet, "SPOOL_AFTER", spool_after)
        if watch is not None:
            handle = Telescope.handle_datagram

            def watched(telescope, datagram, now):
                handle(telescope, datagram, now)
                watch(telescope)

            monkeypatch.setattr(Telescope, "handle_datagram", watched)
        scenario = build_scenario(ScenarioConfig(seed=7).scaled(0.02))
        scenario.run()
        buf = io.BytesIO()
        scenario.telescope.write_pcap(buf)
        monkeypatch.undo()
        return scenario.telescope, buf.getvalue()

    def test_pending_bytes_stay_below_the_bound_and_the_bytes_stay_put(
        self, monkeypatch
    ):
        def watch(telescope):
            capture = telescope.capture
            now = telescope.network.loop.now
            sec, usec = split_timestamp(now)
            first = bisect_left(capture.keys, sec * 1_000_000 + usec)  # in flight
            in_flight = (
                len(capture.data) - (capture.offsets[first] - capture.released_bytes)
                if first < len(capture.keys)
                else 0
            )
            assert len(capture.data) <= self.SPOOL_AFTER + in_flight

        spooled, pcap = self._run(monkeypatch, self.SPOOL_AFTER, watch)
        assert len(pcap) >= 10 * self.SPOOL_AFTER
        assert spooled.capture.released_bytes >= 9 * self.SPOOL_AFTER
        in_memory, reference = self._run(monkeypatch, len(pcap) + 1)
        assert in_memory.capture.released_bytes == 0
        assert pcap == reference
        assert list(spooled.records) == list(in_memory.records)
        assert list(spooled.records) == list(PcapReader(io.BytesIO(pcap)))


class TestAcknowledgedScanners:
    def test_lookup(self):
        scanners = AcknowledgedScanners()
        scanners.register("141.212.0.0/16", "umich", "University of Michigan")
        assert scanners.is_acknowledged(parse_ip("141.212.5.5"))
        assert not scanners.is_acknowledged(parse_ip("141.213.5.5"))
        entry = scanners.lookup(parse_ip("141.212.1.1"))
        assert entry.name == "umich"
        assert len(scanners) == 1
        assert scanners.names == {"umich"}


class TestClassification:
    def test_backscatter_vs_scan_by_port(self):
        records = [
            quic_record("157.240.1.1", "44.1.1.1", 443, 4000),  # backscatter
            quic_record("5.6.7.8", "44.1.1.2", 4000, 443),  # scan
        ]
        capture = classify_capture(records)
        assert capture.stats.backscatter == 1
        assert capture.stats.scans == 1
        assert capture.backscatter[0].klass is PacketClass.BACKSCATTER

    def test_non_443_removed(self):
        capture = classify_capture([noise_record("1.1.1.1", "44.0.0.1", 53, 53)])
        assert capture.stats.non_port_443 == 1
        assert len(capture) == 0

    def test_non_udp_removed(self):
        capture = classify_capture([PcapRecord(1.0, b"\x45" + b"\x00" * 10)])
        assert capture.stats.non_udp == 1

    def test_dissector_removes_false_positives(self):
        capture = classify_capture(
            [noise_record("1.1.1.1", "44.0.0.1", 443, 9999)]
        )
        assert capture.stats.failed_dissection == 1

    def test_acknowledged_scanner_removed_from_scans(self):
        scanners = AcknowledgedScanners()
        scanners.register("141.212.0.0/16", "umich")
        records = [quic_record("141.212.1.1", "44.1.1.1", 5000, 443)]
        capture = classify_capture(records, acknowledged=scanners)
        assert capture.stats.acknowledged_scanner == 1
        assert capture.stats.scans == 0

    def test_acknowledged_source_does_not_affect_backscatter(self):
        scanners = AcknowledgedScanners()
        scanners.register("157.240.0.0/16", "oops")
        records = [quic_record("157.240.1.1", "44.1.1.1", 443, 4000)]
        capture = classify_capture(records, acknowledged=scanners)
        assert capture.stats.backscatter == 1

    def test_origin_mapping(self):
        db = AsDatabase.with_hypergiants()
        records = [quic_record("157.240.1.1", "44.1.1.1", 443, 4000)]
        capture = classify_capture(records, asdb=db)
        assert capture.backscatter[0].origin == "Facebook"

    def test_crypto_validation_rejects_corrupted_initial(self):
        record = quic_record("5.6.7.8", "44.1.1.2", 4000, 443)
        corrupted = bytearray(record.data)
        corrupted[-1] ^= 0xFF  # damage the AEAD tag
        capture = classify_capture(
            [PcapRecord(1.0, bytes(corrupted))], validate_crypto_scans=True
        )
        assert capture.stats.failed_dissection == 1

    def test_removed_share(self):
        records = [
            quic_record("5.6.7.8", "44.1.1.2", 4000, 443),
            noise_record("1.1.1.1", "44.0.0.1", 443, 9999),
        ]
        capture = classify_capture(records)
        assert capture.stats.removed == 1
        assert capture.stats.removed_share == pytest.approx(0.5)


class TestDissector:
    def test_accepts_valid_initial(self):
        record = quic_record("5.6.7.8", "44.1.1.2", 4000, 443)
        datagram = record.data[28:]  # strip IP+UDP headers
        dissected = dissect_datagram(datagram, validate_crypto=True)
        assert dissected.crypto_validated
        assert not dissected.coalesced

    @pytest.mark.parametrize("suite", ["fast", "rfc9001"])
    def test_accepts_a_draft_32_initial_sealed_under_the_draft_29_salt(self, suite):
        # Drafts 30-32 kept draft-29's salt, as real stacks sealed them.
        from repro.core.dissector import dissect_at
        from repro.quic.crypto.suites import suite_by_name

        connection = ClientConnection(
            rng=random.Random(32),
            src_ip=parse_ip("5.6.7.8"),
            src_port=4000,
            dst_ip=parse_ip("44.1.1.2"),
            version=0xFF000020,
            suite=suite,
        )
        connection.protection = suite_by_name(suite)(0xFF00001D, connection.dcid)
        payload = connection.initial_datagram().payload
        assert payload[1:5] == b"\xff\x00\x00\x20"
        packets = dissect_at(payload, 0, len(payload), validate_crypto=True)
        assert [scanned[2] for scanned in packets] == [0xFF000020]

    def test_rejects_unknown_version(self):
        from repro.core.dissector import DissectError

        record = quic_record("5.6.7.8", "44.1.1.2", 4000, 443, version=0x12345678)
        with pytest.raises(DissectError):
            dissect_datagram(record.data[28:])

    def test_rejects_tiny_payload(self):
        from repro.core.dissector import DissectError

        with pytest.raises(DissectError):
            dissect_datagram(b"\xc0\x00\x00")

    def test_is_quic_datagram_helper(self):
        from repro.core.dissector import is_quic_datagram

        record = quic_record("5.6.7.8", "44.1.1.2", 4000, 443)
        assert is_quic_datagram(record.data[28:])
        assert not is_quic_datagram(b"\x16\x03\x03\x00\x01xxxxx")
