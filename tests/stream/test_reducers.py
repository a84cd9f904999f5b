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
from repro.core.versions import table2
from repro.obs.metrics import MetricsRegistry
from repro.stream.reducers import StreamAnalyses
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
        assert analyses.rows_fed == batch_view.table.num_rows

    def test_version_mix_equals_table2(self, analyses, batch_view):
        shares = table2(batch_view)
        sessions = analyses.snapshot()["sessions"]
        for side in ("clients", "servers"):
            assert sessions[side]["buckets"] == shares[side].counts
            assert sessions[side]["total"] == shares[side].total

    def test_packet_mix_equals_table3(self, analyses, batch_view):
        batch = packet_mix(batch_view.backscatter + batch_view.scans)
        assert analyses.snapshot()["packet_mix"] == {
            o: dict(c) for o, c in batch.counts.items()
        }

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
        offnet = analyses.snapshot()["offnet"]
        assert offnet["servers"] == len(features)
        low = sum(1 for f in features.values() if f.low_host_id())
        assert offnet["low_host_id"] == low > 0  # the scenario plants off-net caches

    def test_batching_is_irrelevant(self, analyses, batch_view):
        whole = StreamAnalyses()
        whole.feed(batch_view.table, 0, batch_view.table.num_rows)
        assert whole.snapshot() == analyses.snapshot()

    def test_span_covers_the_capture(self, analyses, batch_view):
        ts = batch_view.table.ts
        assert analyses.span_seconds == pytest.approx(max(ts) - min(ts))


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
        offnet = analyses.snapshot()["offnet"]
        assert offnet["servers"] == len(features) > 0
        assert offnet["low_host_id"] == sum(
            1 for f in features.values() if f.low_host_id()
        )

    def test_span_seconds(self, half):
        analyses, packets = half
        stamps = [p.timestamp for p in packets]
        assert analyses.span_seconds == max(stamps) - min(stamps)


class TestSnapshotAndPublish:
    def test_empty_reducers_are_safe(self):
        analyses = StreamAnalyses()
        snap = analyses.snapshot()
        assert snap["rows_fed"] == 0
        assert snap["sessions"]["clients"]["total"] == 0
        assert snap["span_seconds"] == 0.0
        analyses.publish(MetricsRegistry())  # no instruments needed: no-op
        analyses.publish(None)

    def test_snapshot_shape(self, analyses):
        snap = analyses.snapshot()
        assert set(snap) == {
            "rows",
            "rows_fed",
            "sessions",
            "packet_mix",
            "scids",
            "offnet",
            "span_seconds",
            "rows_per_sec",
        }
        for origin, entry in snap["scids"].items():
            assert set(entry) == {
                "unique",
                "lengths",
                "dominant_length",
                "structured",
                "max_chi2",
            }
            assert entry["unique"] == sum(entry["lengths"].values())

    def test_publish_mirrors_state_into_gauges(self, analyses, batch_view):
        registry = MetricsRegistry()
        analyses.publish(registry)
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
        assert registry.gauge("stream.rows_fed").value() == analyses.rows_fed

    def test_republish_is_idempotent(self, analyses):
        registry = MetricsRegistry()
        analyses.publish(registry)
        first = registry.snapshot()["gauges"]
        analyses.publish(registry)
        assert registry.snapshot()["gauges"] == first
