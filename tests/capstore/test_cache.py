"""Sidecar cache lifecycle: hit, touch, rewrite, corruption, escape hatch."""

import os

import pytest

from repro.capstore import (
    dump_index,
    fingerprint_matches,
    load_index,
    load_or_build,
    pcap_fingerprint,
    prefix_fingerprint,
    prefix_matches,
    sidecar_path,
)
from repro.cli import main
from repro.netstack.pcap import scan_pcap_offsets
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry


def _obs():
    return Observability(metrics=MetricsRegistry())


def _load(path, obs=None, **kwargs):
    """``(view, status)`` of one :func:`load_or_build`: ``"hit"``,
    ``"extended"`` or ``"miss"``, read off the ``capstore.cache`` counter."""
    obs = obs or _obs()
    view, _hit = load_or_build(path, obs=obs, **kwargs)
    values = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
    (status,) = set(values) - {"stale"}
    return view, status


def _truncate_at_record(path: str, fraction: float) -> bytes:
    """Cut ``path`` at a record boundary; returns the removed tail bytes."""
    offsets = scan_pcap_offsets(path)
    cut = offsets[int(len(offsets) * fraction)]
    data = open(path, "rb").read()
    with open(path, "wb") as fileobj:
        fileobj.write(data[:cut])
    return data[cut:]


class TestLoadOrBuild:
    def test_miss_then_hit_round_trip(self, pcap_copy):
        view, hit = load_or_build(pcap_copy)
        assert not hit
        assert os.path.exists(sidecar_path(pcap_copy))
        again, hit = load_or_build(pcap_copy)
        assert hit
        assert again.table == view.table
        assert again.stats == view.stats

    def test_no_cache_never_writes_or_reads(self, pcap_copy):
        view, hit = load_or_build(pcap_copy, use_cache=False)
        assert not hit
        assert not os.path.exists(sidecar_path(pcap_copy))
        # even with a valid sidecar on disk, --no-cache rebuilds
        load_or_build(pcap_copy)
        _view, hit = load_or_build(pcap_copy, use_cache=False)
        assert not hit

    def test_touched_mtime_still_hits_via_content_hash(self, pcap_copy):
        load_or_build(pcap_copy)
        stat = os.stat(pcap_copy)
        os.utime(pcap_copy, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        _view, hit = load_or_build(pcap_copy)
        assert hit

    def test_rewritten_pcap_invalidates(self, pcap_copy):
        view, _ = load_or_build(pcap_copy)
        assert main(["simulate", pcap_copy, "--scale", "0.05", "--seed", "7"]) == 0
        rebuilt, hit = load_or_build(pcap_copy)
        assert not hit
        assert rebuilt.table != view.table
        # and the refreshed sidecar now validates against the new pcap
        _again, hit = load_or_build(pcap_copy)
        assert hit

    def test_corrupt_sidecar_treated_as_stale(self, pcap_copy):
        view, _ = load_or_build(pcap_copy)
        with open(sidecar_path(pcap_copy), "r+b") as fileobj:
            fileobj.seek(-1, os.SEEK_END)
            fileobj.write(b"\x00")
        rebuilt, hit = load_or_build(pcap_copy)
        assert not hit
        assert rebuilt.table == view.table

    def test_sidecar_dumped_with_another_pipeline_is_stale(self, pcap_copy):
        view, _ = load_or_build(pcap_copy)
        index_path = sidecar_path(pcap_copy)
        payload = load_index(index_path)
        dump_index(
            index_path,
            payload.table,
            payload.stats,
            source=payload.source,
            pipeline=dict(payload.pipeline, validate_crypto_scans=False),
        )
        obs = _obs()
        rebuilt, hit = load_or_build(pcap_copy, obs=obs)
        assert not hit
        values = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
        assert values == {"stale": 1, "miss": 1}
        assert rebuilt.table == view.table
        assert load_index(index_path).pipeline == payload.pipeline

    def test_parallel_build_hits_same_cache(self, pcap_copy):
        serial_view, _ = load_or_build(pcap_copy, workers=1)
        _view, hit = load_or_build(pcap_copy, workers=4)
        assert hit  # workers only matter on a miss
        os.unlink(sidecar_path(pcap_copy))
        parallel_view, hit = load_or_build(pcap_copy, workers=4)
        assert not hit
        assert parallel_view.table == serial_view.table


class TestObservability:
    def test_cold_run_counts_miss_and_build_timer(self, pcap_copy):
        obs = _obs()
        load_or_build(pcap_copy, obs=obs)
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["capstore.cache"]["values"] == {"miss": 1}
        assert "index.build" in snapshot["timers"]
        assert "index.load" not in snapshot["timers"]

    def test_warm_run_counts_hit_and_load_timer(self, pcap_copy):
        load_or_build(pcap_copy)
        obs = _obs()
        view, hit = load_or_build(pcap_copy, obs=obs)
        assert hit
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["capstore.cache"]["values"] == {"hit": 1}
        assert "index.load" in snapshot["timers"]
        rows = snapshot["counters"]["capstore.rows"]["values"]
        assert rows["backscatter"] == view.stats.backscatter
        assert rows["scan"] == view.stats.scans

    def test_stale_run_counts_stale_then_miss(self, pcap_copy):
        load_or_build(pcap_copy)
        assert main(["simulate", pcap_copy, "--scale", "0.05", "--seed", "7"]) == 0
        obs = _obs()
        _view, hit = load_or_build(pcap_copy, obs=obs)
        assert not hit
        values = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
        assert values == {"stale": 1, "miss": 1}

    def test_cache_hit_reemits_sanitize_counters(self, pcap_copy):
        cold_obs = _obs()
        load_or_build(pcap_copy, obs=cold_obs)
        warm_obs = _obs()
        _view, hit = load_or_build(pcap_copy, obs=warm_obs)
        assert hit
        cold = cold_obs.metrics.snapshot()["counters"]["sanitize.packets"]["values"]
        warm = warm_obs.metrics.snapshot()["counters"]["sanitize.packets"]["values"]
        assert warm == cold


class TestIncrementalIndex:
    """A grown pcap extends its index; anything else rebuilds cleanly."""

    def test_grown_pcap_extends_and_matches_full_build(self, pcap_copy):
        tail = _truncate_at_record(pcap_copy, 0.8)
        first, status = _load(pcap_copy)
        assert status == "miss"
        prefix_rows = first.table.num_rows
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail)
        obs = _obs()
        extended, status = _load(pcap_copy, obs=obs)
        assert status == "extended"
        assert extended.table.num_rows > prefix_rows
        values = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
        assert values == {"extended": 1}
        assert "index.extend" in obs.metrics.snapshot()["timers"]
        # the extended table is exactly what a cold full build produces
        full, _ = load_or_build(pcap_copy, use_cache=False)
        assert extended.table == full.table
        assert extended.stats == full.stats
        # and the rewritten sidecar is a plain hit afterwards
        third, status = _load(pcap_copy)
        assert status == "hit"
        assert third.indexed_bytes == os.path.getsize(pcap_copy)

    def test_extension_emits_full_run_counters(self, pcap_copy):
        tail = _truncate_at_record(pcap_copy, 0.7)
        load_or_build(pcap_copy)
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail)
        warm_obs = _obs()
        load_or_build(pcap_copy, obs=warm_obs)
        cold_obs = _obs()
        load_or_build(pcap_copy, obs=cold_obs, use_cache=False)
        warm = warm_obs.metrics.snapshot()["counters"]["sanitize.packets"]["values"]
        cold = cold_obs.metrics.snapshot()["counters"]["sanitize.packets"]["values"]
        assert warm == cold

    def test_torn_tail_is_still_a_hit(self, pcap_copy):
        view, _ = load_or_build(pcap_copy)
        size = os.path.getsize(pcap_copy)
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(b"\x01\x02\x03\x04\x05\x06\x07\x08\x09")
        again, status = _load(pcap_copy)
        assert status == "hit"
        assert again.indexed_bytes == size
        assert again.table == view.table

    def test_truncated_below_prefix_rebuilds(self, pcap_copy):
        load_or_build(pcap_copy)
        _truncate_at_record(pcap_copy, 0.5)
        obs = _obs()
        rebuilt, status = _load(pcap_copy, obs=obs)
        assert status == "miss"
        values = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
        assert values == {"stale": 1, "miss": 1}
        full, _ = load_or_build(pcap_copy, use_cache=False)
        assert rebuilt.table == full.table

    def test_rewritten_prefix_rebuilds(self, pcap_copy):
        load_or_build(pcap_copy)
        # flip bytes inside the indexed prefix without changing the size
        with open(pcap_copy, "r+b") as fileobj:
            fileobj.seek(64)
            chunk = fileobj.read(32)
            fileobj.seek(64)
            fileobj.write(bytes(byte ^ 0xFF for byte in chunk))
        # force the mtime past the stored stamp so the (size, mtime) fast
        # path cannot mask the content change on coarse-clock filesystems
        stat = os.stat(pcap_copy)
        os.utime(pcap_copy, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        _view, status = _load(pcap_copy)
        assert status == "miss"

    def test_concurrent_writer_extension_reads_no_torn_record(self, pcap_copy):
        """A tail cut mid-record is absorbed only once completed."""
        tail = _truncate_at_record(pcap_copy, 0.8)
        prefix_records = len(scan_pcap_offsets(pcap_copy))
        load_or_build(pcap_copy)
        # the writer lands half a record: grown, but nothing complete
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail[:7])
        partial, status = _load(pcap_copy)
        assert status == "hit"
        assert partial.indexed_bytes == os.path.getsize(pcap_copy) - 7
        # the writer finishes: exactly the remaining records are absorbed
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail[7:])
        extended, status = _load(pcap_copy)
        assert status == "extended"
        dissected = extended.stats.total_records - partial.stats.total_records
        assert dissected == len(scan_pcap_offsets(pcap_copy)) - prefix_records
        full, _ = load_or_build(pcap_copy, use_cache=False)
        assert extended.table == full.table

    def test_no_cache_ignores_extension_path(self, pcap_copy):
        tail = _truncate_at_record(pcap_copy, 0.8)
        load_or_build(pcap_copy)
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail)
        _view, status = _load(pcap_copy, use_cache=False)
        assert status == "miss"


class TestPrefixFingerprint:
    def test_prefix_fields_extend_the_base_fingerprint(self, pcap_copy):
        size = os.path.getsize(pcap_copy)
        fingerprint = prefix_fingerprint(pcap_copy, size, records=10)
        assert fingerprint["size"] == size
        assert fingerprint["indexed_bytes"] == size
        assert fingerprint["records"] == 10
        # covering the whole file, prefix and full hash agree
        assert fingerprint["prefix_blake2b"] == fingerprint["blake2b"]
        assert fingerprint["blake2b"] == pcap_fingerprint(pcap_copy)["blake2b"]

    def test_prefix_matches_after_growth(self, pcap_copy):
        size = os.path.getsize(pcap_copy)
        stored = prefix_fingerprint(pcap_copy, size)
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(b"\x00" * 40)
        assert prefix_matches(stored, pcap_copy)
        assert not fingerprint_matches(stored, pcap_copy)

    def test_prefix_rejects_truncation(self, pcap_copy):
        stored = prefix_fingerprint(pcap_copy, os.path.getsize(pcap_copy))
        _truncate_at_record(pcap_copy, 0.5)
        assert not prefix_matches(stored, pcap_copy)

    def test_legacy_fingerprint_acts_as_whole_file_prefix(self, pcap_copy):
        cut = scan_pcap_offsets(pcap_copy)[-1]
        stored = pcap_fingerprint(pcap_copy)  # no prefix fields
        assert prefix_matches(stored, pcap_copy)
        data = open(pcap_copy, "rb").read()
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(b"\x00" * 12)
        assert prefix_matches(stored, pcap_copy)
        with open(pcap_copy, "wb") as fileobj:
            fileobj.write(data[:cut])
        assert not prefix_matches(stored, pcap_copy)

    def test_empty_fingerprint_never_prefix_matches(self, month_pcap):
        assert not prefix_matches({}, month_pcap)


class TestFingerprint:
    def test_fingerprint_fields(self, month_pcap):
        fingerprint = pcap_fingerprint(month_pcap)
        assert fingerprint["size"] == os.path.getsize(month_pcap)
        assert set(fingerprint) == {"size", "mtime_ns", "blake2b"}
        assert fingerprint_matches(fingerprint, month_pcap)

    def test_size_change_is_cheapest_rejection(self, pcap_copy):
        stored = pcap_fingerprint(pcap_copy)
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(b"\x00")
        assert not fingerprint_matches(stored, pcap_copy)

    def test_empty_fingerprint_never_matches(self, month_pcap):
        assert not fingerprint_matches({}, month_pcap)
