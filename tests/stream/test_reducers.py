"""The batch analyses are folds: any batching of rows equals one pass.

``StreamAnalyses`` feeds a ``CaptureFold`` — the same ``repro.core``
accumulators the batch functions fold a capture into.  Every test feeds
the columnar table the batch plane analyzes — in deliberately uneven
batches, or only a prefix of it — and asserts the state equals the
``repro.core`` function computed over the same rows at once.
"""

import pytest

from repro.core.packet_mix import packet_mix
from repro.core.offnet import extract_features
from repro.core.scid_entropy import nybble_matrix
from repro.core.scid_stats import scids_by_origin
from repro.core.selectors import (
    ANALYSIS_NAMES,
    ORIGINS,
    PACKET_CATEGORIES,
    SIDES,
    TABLE2_ROWS,
)
from repro.core.versions import table2
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.stream.reducers import SELECTORS, StreamAnalyses
from repro.telescope.classify import PacketClass


def feed_unevenly(table):
    """One StreamAnalyses fed the full table in ragged batch sizes."""
    analyses = StreamAnalyses()
    sizes = [1, 7, 50, 3, 211, 19]
    start = 0
    step = 0
    while start < table.num_rows:
        end = min(start + sizes[step % len(sizes)], table.num_rows)
        analyses.feed(table, start, end)
        start = end
        step += 1
    return analyses


@pytest.fixture(scope="module")
def analyses(batch_view):
    return feed_unevenly(batch_view.table)


class TestBatchParity:
    def test_rows_per_class(self, analyses, batch_view):
        assert analyses.rows["backscatter"] == len(batch_view.backscatter)
        assert analyses.rows["scan"] == len(batch_view.scans)
        assert analyses.snapshot()["rows_fed"] == batch_view.table.num_rows

    def test_version_mix_equals_table2(self, analyses, batch_view):
        shares = table2(batch_view)
        values = analyses.snapshot()
        for side in SIDES:
            for bucket in TABLE2_ROWS:
                count = values["sessions.%s.%s" % (side, bucket)]
                assert count == shares[side].counts[bucket]
            assert values["sessions.%s.total" % side] == shares[side].total

    def test_packet_mix_equals_table3(self, analyses, batch_view):
        batch = packet_mix(batch_view.backscatter + batch_view.scans)
        values = analyses.snapshot()
        assert set(batch.counts) <= set(ORIGINS)
        for origin in ORIGINS:
            online = {
                category: values["packet_mix.%s.%s" % (origin, category)]
                for category in PACKET_CATEGORIES
            }
            counts = batch.counts.get(origin, {})
            assert {c: n for c, n in online.items() if n} == dict(counts)

    def test_scids_equal_table4_populations(self, analyses, batch_view):
        batch = scids_by_origin(batch_view.backscatter)
        online_stats = analyses.fold.scids.stats
        assert {o: a.unique_scids for o, a in online_stats.items()} == batch
        for origin, scids in batch.items():
            online = online_stats[origin].matrix()
            reference = nybble_matrix(scids)
            assert online.freq == reference.freq
            assert online.sample_size == reference.sample_size
            assert online.position_totals == reference.position_totals

    def test_offnet_counts_equal_extract_features(self, analyses, batch_view):
        features = extract_features(batch_view.backscatter)
        values = analyses.snapshot()
        assert values["offnet.servers"] == len(features)
        low = sum(1 for f in features.values() if f.low_host_id())
        assert values["offnet.low_host_id"] == low > 0  # the scenario plants off-net caches

    def test_batching_is_irrelevant(self, analyses, batch_view):
        whole = StreamAnalyses()
        whole.feed(batch_view.table, 0, batch_view.table.num_rows)
        assert whole.snapshot() == analyses.snapshot()

    def test_span_covers_the_capture(self, analyses, batch_view):
        ts = batch_view.table.ts
        assert analyses.snapshot()["span_seconds"] == pytest.approx(max(ts) - min(ts))


class TestPrefixParity:
    """Fed only the first half, the state is the batch result over that half."""

    @pytest.fixture(scope="class")
    def half(self, batch_view):
        table = batch_view.table
        rows = table.num_rows // 2
        analyses = StreamAnalyses()
        analyses.feed(table, 0, rows)
        return analyses, [table.materialize(row) for row in range(rows)]

    def test_offnet_counts(self, half):
        analyses, packets = half
        features = extract_features(
            [p for p in packets if p.klass is PacketClass.BACKSCATTER]
        )
        values = analyses.snapshot()
        assert values["offnet.servers"] == len(features) > 0
        assert values["offnet.low_host_id"] == sum(
            1 for f in features.values() if f.low_host_id()
        )

    def test_span_seconds(self, half):
        analyses, packets = half
        stamps = [p.timestamp for p in packets]
        assert analyses.snapshot()["span_seconds"] == max(stamps) - min(stamps)


class TestSnapshotAndPublish:
    def test_empty_reducers_are_safe(self):
        analyses = StreamAnalyses()
        snap = analyses.snapshot()
        assert snap["rows_fed"] == 0
        assert snap["sessions.clients.total"] == 0
        assert snap["span_seconds"] == 0.0
        analyses.publish(MetricsRegistry())  # no instruments needed: no-op
        analyses.publish(None)

    def test_snapshot_shape(self, analyses, batch_view):
        """Every analysis name of the dashboard's selectors, the rows per
        class under the grammar's ``rows.*`` names, and the rates of the
        origins seen; no session store is grouped for them."""
        snap = analyses.snapshot()
        seen = {batch_view.table.origins[i] for i in set(batch_view.table.origin_id)}
        shown = {n for n, (of, _, _) in ANALYSIS_NAMES.items() if of in SELECTORS}
        assert analyses.fold.sessions is None
        assert set(snap) == shown | {
            "rows.backscatter",
            "rows.scans",
            "rows_fed",
            "span_seconds",
        } | {"rows_per_sec." + origin for origin in seen}
        assert snap["rows.backscatter"] == len(batch_view.backscatter)
        assert snap["rows.scans"] == len(batch_view.scans)
        for origin in ORIGINS:
            assert (snap["scid_unique." + origin] > 0) == (
                snap["scid_dominant_len." + origin] > 0
            )

    def test_publish_mirrors_state_into_gauges(self, analyses, batch_view):
        registry = MetricsRegistry()
        analyses.publish(registry)
        snap = analyses.snapshot()
        rows = registry.gauge("stream.rows", ("klass",))
        assert rows.value(klass="backscatter") == len(batch_view.backscatter)
        assert rows.value(klass="scan") == len(batch_view.scans)
        sessions = registry.gauge("stream.sessions", ("side", "bucket"))
        shares = table2(batch_view)
        assert sessions.value(side="clients", bucket="total") == (
            shares["clients"].total
        )
        assert sessions.value(side="servers", bucket="QUICv1") == (
            shares["servers"].counts.get("QUICv1", 0)
        )
        servers, low = analyses.fold.offnet.counts()
        assert registry.gauge("stream.offnet_servers").value() == servers
        assert registry.gauge("stream.offnet_low_host_id").value() == low
        assert registry.gauge("stream.rows_fed").value() == snap["rows_fed"]
        # A family's placeholders label its series, whatever the family.
        share = registry.gauge("stream.version_share", ("side", "bucket"))
        assert share.value(side="clients", bucket="QUICv1") == (
            snap["version_share.clients.QUICv1"]
        )
        chi2 = registry.gauge("stream.scid_max_chi2", ("origin",))
        assert chi2.value(origin="Facebook") == snap["scid_max_chi2.Facebook"] > 0
        rate = registry.gauge("stream.rows_per_sec", ("origin",))
        assert rate.value(origin="Google") == snap["rows_per_sec.Google"] > 0

    def test_a_rewrite_leaves_no_stale_series(self, analyses):
        # `repro live` rebuilds the state when a capture shrinks, and keeps
        # its registry: nothing the old state published may outlive it.
        registry = MetricsRegistry()
        analyses.publish(registry)
        rows = registry.gauge("stream.rows", ("klass",))
        rate = registry.gauge("stream.rows_per_sec", ("origin",))
        assert rows.value(klass="scan") > 0 and rate.value(origin="Google") > 0
        rebuilt = StreamAnalyses()
        rebuilt.publish(registry)
        fresh = MetricsRegistry()
        rebuilt.publish(fresh)
        assert render_prometheus(registry) == render_prometheus(fresh)
        assert 'stream_rows_per_sec{origin="Google"}' not in render_prometheus(registry)

    def test_republish_is_idempotent(self, analyses):
        registry = MetricsRegistry()
        analyses.publish(registry)
        first = registry.snapshot()["gauges"]
        analyses.publish(registry)
        assert registry.snapshot()["gauges"] == first
