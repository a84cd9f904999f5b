"""Table 6 (off-net classification) and §4.3 L7LB machinery."""

import pytest

from repro.capstore import ClassifiedView, build_from_records
from repro.core.l7lb import (
    ConvergenceCurve,
    cluster_vips,
    convergence_curve,
    host_id_of,
    host_ids_from_scids,
    jaccard,
    passive_coverage,
    passive_host_ids,
)
from repro.core.offnet import (
    CLASSIFIERS,
    ClassifierMetrics,
    evaluate_classifiers,
    extract_features,
)
from repro.core.render import CaptureFold
from repro.quic.cid.mvfst import MvfstCid


class TestFeatures:
    def test_features_exclude_hypergiant_ases(self, small_scenario, small_capture):
        features = extract_features(small_capture.backscatter)
        asdb = small_scenario.asdb
        assert all(
            asdb.origin_name(addr) == "Remaining" for addr in features
        )

    def test_offnet_servers_have_fb_features(self, small_scenario, small_capture):
        features = extract_features(small_capture.backscatter)
        offnet_addresses = {
            s.address
            for s in small_scenario.offnet_servers
            if s.profile.name == "Facebook"
        }
        observed = offnet_addresses & set(features)
        assert observed
        for addr in observed:
            feats = features[addr]
            assert feats.scid_structured_like_facebook()
            assert feats.low_host_id()
            assert feats.coalescence_like_facebook()


class TestClassifierMetrics:
    def test_metric_arithmetic(self):
        metrics = ClassifierMetrics(name="x", tp=8, fp=2, tn=18, fn=2)
        assert metrics.tpr == pytest.approx(0.8)
        assert metrics.fpr == pytest.approx(0.1)
        assert metrics.tnr == pytest.approx(0.9)
        assert metrics.fnr == pytest.approx(0.2)
        assert metrics.precision == pytest.approx(0.8)
        assert metrics.recall == metrics.tpr

    def test_zero_division_safe(self):
        metrics = ClassifierMetrics(name="x", tp=0, fp=0, tn=0, fn=0)
        assert metrics.tpr == 0.0
        assert metrics.precision == 0.0


class TestTable6:
    def test_all_nine_rows(self, small_scenario, small_capture):
        features = extract_features(small_capture.backscatter)
        results = evaluate_classifiers(features, small_scenario.certstore)
        assert len(results) == len(CLASSIFIERS) == 9

    def test_scid_classifier_perfect_recall(self, small_scenario, small_capture):
        """Paper: SCID-based classifiers reach TPR 1.0."""
        features = extract_features(small_capture.backscatter)
        results = {
            m.name: m
            for m in evaluate_classifiers(features, small_scenario.certstore)
        }
        assert results["SCID"].tpr == 1.0
        assert results["SCID off-net (low host ID)"].tpr == 1.0

    def test_low_host_id_slashes_fpr(self, small_scenario, small_capture):
        """Paper §4.2: the improved predictor drops FPR 0.19 -> 0.027."""
        features = extract_features(small_capture.backscatter)
        results = {
            m.name: m
            for m in evaluate_classifiers(features, small_scenario.certstore)
        }
        assert (
            results["SCID off-net (low host ID)"].fpr
            < results["SCID"].fpr
        )
        assert results["SCID off-net (low host ID)"].fpr < 0.08

    def test_coalescence_alone_is_weak(self, small_scenario, small_capture):
        """Paper Table 6: coalescence-only has near-total FPR."""
        features = extract_features(small_capture.backscatter)
        results = {
            m.name: m
            for m in evaluate_classifiers(features, small_scenario.certstore)
        }
        assert results["Coalescence"].tpr == 1.0
        assert results["Coalescence"].fpr > 0.5

    def test_universe_excludes_unverifiable(self, small_scenario, small_capture):
        features = extract_features(small_capture.backscatter)
        results = evaluate_classifiers(features, small_scenario.certstore)
        universe = results[0].tp + results[0].fp + results[0].tn + results[0].fn
        assert universe <= len(features)


class TestL7lbPrimitives:
    def test_host_id_of(self):
        cid = MvfstCid(
            version=1, host_id=777, worker_id=1, process_id=0, random_bits=5
        ).encode()
        assert host_id_of(cid) == 777
        assert host_id_of(b"\x00" * 8) is None
        assert host_id_of(b"\x01" * 20) is None

    def test_jaccard(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0
        assert jaccard({1}, {2}) == 0.0
        assert jaccard(set(), set()) == 0.0
        assert jaccard({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)

    def test_convergence_curve(self):
        curve = convergence_curve([1, 1, 2, 3, 3, 3, 4])
        assert curve.counts == [1, 1, 2, 3, 3, 3, 4]
        assert curve.total == 4
        assert curve.coverage_at(3) == pytest.approx(0.5)
        assert curve.coverage_at(0) == 0.0
        assert curve.coverage_at(-3) == 0.0

    def test_empty_curve(self):
        curve = ConvergenceCurve(counts=[])
        assert curve.total == 0
        assert curve.coverage_at(10) == 0.0

    def test_passive_coverage(self):
        assert passive_coverage({1, 2}, {1, 2, 3, 4}) == pytest.approx(0.5)
        assert passive_coverage(set(), set()) == 0.0


class TestVipClustering:
    def test_disjoint_clusters(self):
        vips = {
            1: {10, 11, 12},
            2: {10, 11, 12},
            3: {20, 21},
            4: {20, 21},
            5: {30},
        }
        clustering = cluster_vips(vips)
        assert clustering.size_histogram() == {2: 2, 1: 1}
        assert clustering.min_intra_jaccard == 1.0
        assert clustering.max_inter_jaccard == 0.0

    def test_partial_overlap_still_groups(self):
        vips = {1: {10, 11, 12, 13}, 2: {10, 11, 12}}
        clustering = cluster_vips(vips)
        assert len(clustering.clusters) == 1
        assert clustering.min_intra_jaccard == pytest.approx(0.75)

    def test_passive_host_ids(self, small_capture):
        per_vip = passive_host_ids(small_capture.backscatter, origin="Facebook")
        assert per_vip
        all_ids = set().union(*per_vip.values())
        assert all_ids

    def test_passive_vs_deployment_coverage(self, small_scenario, small_capture):
        """Backscatter reveals a real subset of deployed host IDs (cf. the
        paper's 19%)."""
        per_vip = passive_host_ids(small_capture.backscatter, origin="Facebook")
        passive = set().union(*per_vip.values()) if per_vip else set()
        deployed = small_scenario.all_onnet_host_ids("Facebook")
        coverage = passive_coverage(passive, deployed)
        assert 0.05 < coverage <= 1.0

    def test_fold_host_ids_are_the_object_paths(self, small_scenario, small_capture):
        """§4.2 reads passive host IDs off the columnar fold's Facebook
        SCIDs; they must be the object path's, although ``ScidTable`` also
        admits Retry SCIDs and ``passive_host_ids`` does not."""
        view = ClassifiedView(
            *build_from_records(
                small_scenario.telescope.records,
                small_scenario.asdb,
                small_scenario.acknowledged,
            )
        )
        fold = CaptureFold({"4"})
        fold.feed(view.table, 0, len(view))
        per_vip = passive_host_ids(small_capture.backscatter, origin="Facebook")
        assert host_ids_from_scids(
            fold.scids.stats["Facebook"].unique_scids
        ) == set().union(*per_vip.values())
