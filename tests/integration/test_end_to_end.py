"""End-to-end: scenario → pcap → sanitization → every analysis.

These tests walk the same path as the benchmarks and assert the paper's
qualitative findings all hold at once on a single simulated month.
"""

import io

import pytest

from repro.core.offnet import evaluate_classifiers, extract_features
from repro.core.packet_mix import packet_mix
from repro.core.scid_stats import table4
from repro.core.summary import summarize
from repro.core.timing import timing_profiles
from repro.core.versions import table2
from repro.netstack.pcap import PcapReader
from repro.telescope.classify import classify_capture
from repro.workloads.scenario import april_2021_config, build_scenario


class TestPcapRoundtripPipeline:
    def test_analysis_works_from_pcap_bytes(self, small_scenario):
        """The pipeline must work on serialized captures, not just live
        objects — that is what makes it applicable to real telescope data."""
        buf = io.BytesIO()
        small_scenario.telescope.write_pcap(buf)
        buf.seek(0)
        records = list(PcapReader(buf))
        assert len(records) == len(small_scenario.telescope.records)
        capture = classify_capture(
            records,
            asdb=small_scenario.asdb,
            acknowledged=small_scenario.acknowledged,
        )
        assert capture.stats.backscatter > 0
        profiles = timing_profiles(capture.backscatter)
        assert profiles["Facebook"].initial_rto == pytest.approx(0.4, abs=0.05)


class TestPaperHeadlines:
    """Table 1, re-derived end to end."""

    def test_summary_matrix(self, small_capture):
        summary = summarize(small_capture.backscatter)
        rows = {
            name: (
                s.coalescence,
                s.server_chosen_ids,
                s.structured_scids,
                s.l7_load_balancers,
            )
            for name, s in summary.items()
        }
        assert rows["Cloudflare"] == (True, True, True, False)
        assert rows["Facebook"] == (False, True, True, True)
        assert rows["Google"] == (True, False, False, False)

    def test_sanitization_removes_majority(self, small_capture):
        """Paper: sanitization removes most raw packets (92% there)."""
        assert small_capture.stats.removed_share > 0.08
        assert small_capture.stats.acknowledged_scanner > (
            small_capture.stats.failed_dissection
        )

    def test_table4_fingerprints(self, small_capture):
        stats = table4(small_capture.backscatter)
        assert stats["Cloudflare"].dominant_length == 20
        assert stats["Facebook"].dominant_length == 8

    def test_offnet_detection_end_to_end(self, small_scenario, small_capture):
        features = extract_features(small_capture.backscatter)
        metrics = {
            m.name: m
            for m in evaluate_classifiers(features, small_scenario.certstore)
        }
        best = metrics["SCID off-net (low host ID)"]
        plain = metrics["SCID"]
        assert best.tpr == 1.0
        assert best.fpr <= plain.fpr
        assert best.precision >= plain.precision


class TestYearComparison:
    """Table 2 and §5 growth: 2021 vs 2022."""

    @pytest.fixture(scope="class")
    def capture_2021(self):
        config = april_2021_config()
        config = config.scaled(0.35)
        scenario = build_scenario(config)
        scenario.run()
        return scenario.classify()

    def test_version_shift_2021_to_2022(self, capture_2021, small_capture):
        old = table2(capture_2021)
        new = table2(small_capture)
        # 2021: draft-29 dominates, v1 absent; 2022: v1 dominates.
        assert old["servers"].share("draft-29") > 40
        assert old["servers"].share("QUICv1") < 5
        assert new["servers"].share("QUICv1") > 35
        assert new["servers"].share("draft-29") < 10
        assert old["clients"].share("QUICv1") < 5
        assert new["clients"].share("QUICv1") > 60

    def test_backscatter_growth(self, capture_2021, small_capture):
        """§5: backscatter grew ~4.4x from 2021 to 2022 (we scale the 2021
        scenario down further, so only the direction is asserted)."""
        assert small_capture.stats.backscatter > capture_2021.stats.backscatter


class TestVersionNegotiationRarity:
    def test_vn_seen_but_rare(self, small_capture):
        """The paper observed a VN from only one server."""
        vn = [
            p
            for p in small_capture.backscatter
            if p.packets[0].packet_type.label == "VersionNegotiation"
        ]
        assert len(vn) < small_capture.stats.backscatter * 0.02


class TestPacketMixConsistency:
    def test_mix_and_sessions_agree(self, small_capture):
        """Coalescence at the packet level implies shorter sessions."""
        from repro.core.session import SessionStore

        mix = packet_mix(small_capture.backscatter)
        store = SessionStore.from_packets(small_capture.backscatter)
        fb = store.by_origin("Facebook")
        gg = store.by_origin("Google")
        avg_fb = sum(s.datagram_count for s in fb) / len(fb)
        avg_gg = sum(s.datagram_count for s in gg) / len(gg)
        # §4.1: Google coalesces and retransmits less, Facebook's deeper
        # ladder sends more than 1.5x its datagrams per session.
        assert avg_fb > 1.5 * avg_gg
