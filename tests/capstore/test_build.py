"""Build parity: one pcap == its records in memory.

Classification is stateless per record, so every record source must
yield the *same* columnar table — these tests pin that invariant, plus
agreement with the legacy object pipeline it replaced.
"""

from dataclasses import replace

import pytest

from repro.capstore import build_capture_table, default_acknowledged, default_asdb
from repro.capstore.build import build_from_records
from repro.core import dissector
from repro.netstack.pcap import iter_pcap, read_pcap, scan_pcap_offsets
from repro.quic.crypto import initial, suites
from repro.quic.packet import PacketType
from repro.telescope.classify import PacketClass, classify_capture
from repro.workloads.scenario import ScenarioConfig, build_scenario


@pytest.fixture(scope="module")
def serial_build(month_pcap):
    return build_capture_table(month_pcap)


class TestSerialBuild:
    def test_matches_legacy_object_pipeline(self, month_pcap, serial_build):
        table, stats = serial_build
        legacy = classify_capture(
            read_pcap(month_pcap),
            asdb=default_asdb(),
            acknowledged=default_acknowledged(),
        )
        assert stats == legacy.stats
        rows = [table.materialize(i) for i in range(table.num_rows)]
        assert [p for p in rows if p.klass is PacketClass.BACKSCATTER] == (
            legacy.backscatter
        )
        assert [p for p in rows if p.klass is PacketClass.SCAN] == legacy.scans

    def test_streaming_equals_materialized_input(self, month_pcap):
        streamed, _ = build_from_records(
            iter_pcap(month_pcap), asdb=default_asdb(), acknowledged=default_acknowledged()
        )
        materialized, _ = build_from_records(
            read_pcap(month_pcap), asdb=default_asdb(), acknowledged=default_acknowledged()
        )
        assert streamed == materialized

    def test_offset_scan_counts_records(self, month_pcap):
        offsets = scan_pcap_offsets(month_pcap)
        assert len(offsets) == len(read_pcap(month_pcap))
        assert offsets == sorted(offsets)


class TestKeySchedulePerInitial:
    def test_one_derivation_per_validated_initial(self, tmp_path, monkeypatch):
        """Every suite tried on a client Initial shares one key schedule.

        Sealed with ``rfc9001``, each Initial fails the ``fast`` check
        first, then authenticates under the same derived keys.
        """
        config = replace(
            ScenarioConfig(seed=20220101, suite="rfc9001").scaled(0.01),
            research_scan_packets=0,
            attacks_facebook=0,
            attacks_google=0,
            attacks_cloudflare=0,
            attacks_offnet=0,
            attacks_remaining=0,
        )
        scenario = build_scenario(config)
        scenario.run()
        pcap = tmp_path / "rfc9001.pcap"
        with open(pcap, "wb") as fileobj:
            scenario.telescope.write_pcap(fileobj)

        derived, validated = [], []

        def derive(version, dcid):
            derived.append(dcid)
            return initial.derive_initial_keys(version, dcid)

        def validate(data, packets, real=dissector._validate_client_initial):
            if any(scanned[1] == PacketType.INITIAL.value for scanned in packets):
                validated.append(packets)
            return real(data, packets)

        monkeypatch.setattr(dissector, "derive_initial_keys", derive, raising=False)
        monkeypatch.setattr(suites, "derive_initial_keys", derive)
        monkeypatch.setattr(dissector, "_validate_client_initial", validate)
        _table, stats = build_capture_table(str(pcap))
        assert stats.scans >= len(validated) > 0
        assert len(derived) == len(validated)
