"""One classified capture: the view ``classify_capture`` builds from
records is the view ``load_or_build`` gives for their pcap, and every
analyze table renders byte-identically from either."""

import pytest

from repro.capstore import default_acknowledged, default_asdb, load_or_build
from repro.cli import VALID_TABLES, render_analysis
from repro.netstack.pcap import read_pcap
from repro.telescope.classify import classify_capture

ALL_TABLES = set(VALID_TABLES)


@pytest.fixture(scope="module")
def classified(month_pcap):
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
    def test_each_table_renders_identically(self, classified, columnar, table):
        assert render_analysis(columnar, {table}) == render_analysis(
            classified, {table}
        )

    def test_all_tables_at_once(self, classified, columnar):
        assert render_analysis(columnar, ALL_TABLES) == render_analysis(
            classified, ALL_TABLES
        )


class TestRowView:
    def test_views_mirror_captured_packets(self, classified, columnar):
        # The split lists hold real CapturedPackets: plain equality.
        assert columnar.backscatter + columnar.scans == (
            classified.backscatter + classified.scans
        )

    def test_classify_capture_is_the_indexed_view(self, classified, columnar):
        # Column for column, origins and blobs included, and every count.
        assert classified.table == columnar.table
        assert classified.stats == columnar.stats

    def test_len_matches_legacy(self, classified, columnar):
        assert len(columnar) == len(classified.backscatter) + len(classified.scans)
