"""Adapter-view equivalence: every analyze table renders byte-identically
whether it consumes the legacy object pipeline or the columnar store."""

import pytest

from repro.capstore import default_acknowledged, default_asdb, load_or_build
from repro.cli import VALID_TABLES, render_analysis
from repro.netstack.pcap import read_pcap
from repro.telescope.classify import classify_capture

ALL_TABLES = set(VALID_TABLES)


@pytest.fixture(scope="module")
def legacy(month_pcap):
    return classify_capture(
        read_pcap(month_pcap),
        asdb=default_asdb(),
        acknowledged=default_acknowledged(),
    )


@pytest.fixture(scope="module")
def columnar(month_pcap):
    view, _hit = load_or_build(month_pcap, use_cache=False)
    return view


class TestRenderEquivalence:
    @pytest.mark.parametrize("table", sorted(ALL_TABLES))
    def test_each_table_renders_identically(self, legacy, columnar, table):
        assert render_analysis(columnar, {table}) == render_analysis(
            legacy, {table}
        )

    def test_all_tables_at_once(self, legacy, columnar):
        assert render_analysis(columnar, ALL_TABLES) == render_analysis(
            legacy, ALL_TABLES
        )


class TestRowView:
    def test_views_mirror_captured_packets(self, legacy, columnar):
        # The split lists hold real CapturedPackets: plain equality.
        assert columnar.backscatter + columnar.scans == (
            legacy.backscatter + legacy.scans
        )

    def test_to_classified_capture_materializes_everything(self, legacy, columnar):
        capture = columnar.to_classified_capture()
        assert capture.backscatter == legacy.backscatter
        assert capture.scans == legacy.scans
        assert capture.stats == legacy.stats

    def test_len_matches_legacy(self, legacy, columnar):
        assert len(columnar) == len(legacy.backscatter) + len(legacy.scans)
