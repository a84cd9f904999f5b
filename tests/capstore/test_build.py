"""Build parity: serial == row-group parallel == shard-set builds.

Classification is stateless per record, so every build strategy must
yield the *same* columnar table — these tests pin that invariant, plus
agreement with the legacy object pipeline it replaced.
"""

import pytest

from repro.capstore import (
    build_capture_table,
    build_from_shards,
    default_acknowledged,
    default_asdb,
)
from repro.capstore.build import _row_groups, build_from_records
from repro.netstack.pcap import (
    iter_pcap,
    merge_pcap_files,
    read_pcap,
    scan_pcap_offsets,
    write_pcap,
)
from repro.simnet.shard import plan_shards, run_shard
from repro.telescope.classify import PacketClass, classify_capture
from repro.workloads.scenario import ScenarioConfig


@pytest.fixture(scope="module")
def serial_build(month_pcap):
    return build_capture_table(month_pcap, workers=1)


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


class TestParallelBuild:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_row_group_parallel_equals_serial(self, month_pcap, serial_build, workers):
        serial_table, serial_stats = serial_build
        table, stats = build_capture_table(month_pcap, workers=workers)
        assert table == serial_table
        assert stats == serial_stats

    def test_more_workers_than_records_degrades_gracefully(self, tmp_path, month_pcap):
        records = read_pcap(month_pcap)[:3]
        tiny = str(tmp_path / "tiny.pcap")
        write_pcap(tiny, records)
        serial = build_capture_table(tiny, workers=1)
        wide = build_capture_table(tiny, workers=16)
        assert wide == serial

    def test_row_groups_cover_all_offsets_contiguously(self):
        offsets = list(range(0, 1000, 10))
        groups = _row_groups(offsets, 7)
        assert sum(count for _off, count in groups) == len(offsets)
        cursor = 0
        for offset, count in groups:
            assert offset == offsets[cursor]
            cursor += count


def _shard_set(tmp_path, config, count):
    """The pcaps ``simulate --workers <count> --no-merge`` would leave."""
    shards = plan_shards(config, count)
    assert len(shards) == count
    paths = []
    for shard in shards:
        records = run_shard(config, [unit.name for unit in shard.units])
        path = str(tmp_path / ("shard%d.pcap" % shard.index))
        write_pcap(path, records)
        paths.append(path)
    return paths


class TestShardBuild:
    @pytest.mark.parametrize("count", [2, 3, 4, "2+header-only"])
    def test_shard_build_equals_merged_pcap_build(self, tmp_path, count):
        config = ScenarioConfig(seed=9).scaled(0.02)
        if count == "2+header-only":
            shard_paths = _shard_set(tmp_path, config, 2)
            shard_paths.insert(1, str(tmp_path / "empty.pcap"))
            write_pcap(shard_paths[1], [])
        else:
            shard_paths = _shard_set(tmp_path, config, count)
        merged = str(tmp_path / "merged.pcap")
        merge_pcap_files(shard_paths, merged)

        from_shards = build_from_shards(shard_paths)
        from_merged = build_capture_table(merged, workers=1)
        assert from_shards[0] == from_merged[0]
        assert from_shards[1] == from_merged[1]

    def test_single_shard_runs_in_process(self, tmp_path, month_pcap):
        single = build_from_shards([month_pcap])
        serial = build_capture_table(month_pcap, workers=1)
        assert single[0] == serial[0]
        assert single[1] == serial[1]
