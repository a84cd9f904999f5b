"""Build parity: one pcap == its records in memory.

Classification is stateless per record, so every record source must
yield the *same* columnar table — these tests pin that invariant, plus
agreement with the legacy object pipeline it replaced.
"""

import pytest

from repro.capstore import build_capture_table, default_acknowledged, default_asdb
from repro.capstore.build import build_from_records
from repro.netstack.pcap import iter_pcap, read_pcap, scan_pcap_offsets
from repro.telescope.classify import PacketClass, classify_capture


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
