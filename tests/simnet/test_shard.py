"""Sharded simulation: partitioning, determinism, and the merge step."""

from pathlib import Path

import pytest

from repro.netstack.pcap import merge_pcap_files, read_pcap, record_sort_key
from repro.obs import MetricsRegistry, Observability
from repro.simnet.shard import (
    Shard,
    partition_units,
    plan_shards,
    run_to_pcap,
    simulate_sharded,
)
from repro.telescope.classify import classify_capture
from repro.workloads.scenario import (
    ScenarioConfig,
    derive_seed,
    plan_traffic_units,
)

#: Small but non-trivial: every unit kind is populated, runs in seconds.
CONFIG = ScenarioConfig(seed=4242).scaled(0.02)


def keys(records):
    return [record_sort_key(r) for r in records]


@pytest.fixture(scope="module")
def serial_pcap(tmp_path_factory):
    """One serial reference run's pcap, shared by the equivalence tests."""
    path = tmp_path_factory.mktemp("serial") / "serial.pcap"
    run_to_pcap(CONFIG, str(path))
    return path


def merged_pcap(tmp_path, workers):
    """The pcap of ``workers`` shards run one by one in this process, merged."""
    paths = []
    for shard in plan_shards(CONFIG, workers):
        paths.append(str(tmp_path / ("shard%d.pcap" % shard.index)))
        run_to_pcap(CONFIG, paths[-1], unit_names=shard.unit_names)
    merge_pcap_files(paths, str(tmp_path / "merged.pcap"))
    return tmp_path / "merged.pcap"


class TestPartitioning:
    def test_partition_is_deterministic_and_complete(self):
        units = plan_traffic_units(CONFIG)
        buckets = partition_units(units, 4)
        again = partition_units(units, 4)
        assert buckets == again
        flattened = [unit for bucket in buckets for unit in bucket]
        assert sorted(u.name for u in flattened) == sorted(u.name for u in units)

    def test_lpt_balances_weights(self):
        units = plan_traffic_units(CONFIG)
        buckets = partition_units(units, 4)
        loads = [sum(u.weight for u in bucket) for bucket in buckets]
        heaviest_unit = max(u.weight for u in units)
        # Classic LPT bound: spread stays within one heaviest item.
        assert max(loads) - min(loads) <= heaviest_unit

    def test_more_shards_than_units_drops_empties(self):
        shards = plan_shards(CONFIG, 1000)
        assert 0 < len(shards) <= len(plan_traffic_units(CONFIG))
        assert all(shard.units for shard in shards)

    def test_shard_seed_derivation(self):
        shards = plan_shards(CONFIG, 3)
        for shard in shards:
            assert shard.seed == derive_seed(CONFIG.seed, "shard", shard.index)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            partition_units(plan_traffic_units(CONFIG), 0)


class TestScaledCommutesWithSharding:
    """Scaling then sharding == sharding then scaling (satellite 5)."""

    def test_unit_seeds_are_volume_independent(self):
        # Scale the full-size config: halving CONFIG's already-tiny
        # volumes would drive zero_rtt to 0 and (correctly) drop its
        # units — scaling only commutes while volumes stay non-zero.
        base_cfg = ScenarioConfig(seed=4242)
        base = {u.name: u.seed for u in plan_traffic_units(base_cfg)}
        scaled = {u.name: u.seed for u in plan_traffic_units(base_cfg.scaled(0.5))}
        assert base == scaled

    def test_shard_seeds_are_volume_independent(self):
        scaled = CONFIG.scaled(0.5)
        for index in range(8):
            assert derive_seed(scaled.seed, "shard", index) == derive_seed(
                CONFIG.seed, "shard", index
            )

    def test_shard_plans_agree_on_unit_names(self):
        # Counts differ after scaling, but LPT sees proportional weights,
        # and unit identities are scale-invariant.
        base_units = {
            shard.index: shard.unit_names for shard in plan_shards(CONFIG, 3)
        }
        scaled_units = {
            shard.index: shard.unit_names
            for shard in plan_shards(CONFIG.scaled(1.0), 3)
        }
        assert base_units == scaled_units

    def test_derive_seed_distinct_across_identities(self):
        seeds = {derive_seed(1, "attack", g, b) for g in "abc" for b in range(4)}
        assert len(seeds) == 12


class TestUnitIndependence:
    """The core determinism property: serial == union of any partition."""

    def test_serial_equals_merged_partition(self, serial_pcap, tmp_path):
        merged = merged_pcap(tmp_path, 3)
        assert merged.read_bytes() == serial_pcap.read_bytes()

    def test_partition_choice_is_invisible(self, serial_pcap, tmp_path):
        merged = merged_pcap(tmp_path, 2)
        assert merged.read_bytes() == serial_pcap.read_bytes()

    def test_single_unit_subset_is_a_subset(self, serial_pcap, tmp_path):
        serial = set(keys(read_pcap(str(serial_pcap))))
        path = str(tmp_path / "noise.pcap")
        assert run_to_pcap(CONFIG, path, unit_names=["noise"])  # noise lands
        assert set(keys(read_pcap(path))) <= serial

    def test_unknown_unit_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown traffic units"):
            run_to_pcap(
                CONFIG, str(tmp_path / "x.pcap"), unit_names=["attack:nonexistent:0"]
            )


class TestSimulateSharded:
    @pytest.fixture(scope="class")
    def sharded(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("shard") / "merged.pcap")
        obs = Observability(metrics=MetricsRegistry())
        result = simulate_sharded(CONFIG, workers=2, output=out, obs=obs)
        return out, obs, result

    def test_merged_capture_matches_serial(self, sharded, serial_pcap):
        out, _obs, result = sharded
        assert Path(out).read_bytes() == serial_pcap.read_bytes()
        assert result.total_records == len(read_pcap(out))

    def test_classify_stats_identical_to_serial(self, sharded, serial_pcap):
        out, _obs, _result = sharded
        merged_stats = classify_capture(read_pcap(out)).stats
        serial_stats = classify_capture(read_pcap(str(serial_pcap))).stats
        assert merged_stats == serial_stats

    def test_worker_counts_sum_to_total(self, sharded):
        _out, _obs, result = sharded
        assert sum(result.worker_records) == result.total_records
        assert len(result.worker_records) == len(result.shards) == 2

    def test_merged_metrics_cover_whole_run(self, sharded):
        _out, obs, result = sharded
        delivered = obs.metrics.counter("net.delivered", ("device",))
        assert sum(delivered.values.values()) >= result.total_records
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["engine.events"]["values"]

    def test_shard_temp_files_removed(self, sharded):
        out, _obs, result = sharded
        import os

        for shard in result.shards:
            assert not os.path.exists("%s.shard%d" % (out, shard.index))

    def test_workers_below_two_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            simulate_sharded(CONFIG, workers=1, output=str(tmp_path / "x.pcap"))


class TestShardDataclass:
    def test_weight_and_names(self):
        units = plan_traffic_units(CONFIG)[:3]
        shard = Shard(index=0, seed=1, units=tuple(units))
        assert shard.weight == sum(u.weight for u in units)
        assert shard.unit_names == tuple(u.name for u in units)


def _cpus(monkeypatch, count, usable=None):
    """``count`` CPUs in the box, ``usable`` of them (default: all) in the mask.

    ``usable=False``: the platform has no affinity mask at all.
    """
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: count)
    if usable is False:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        mask = set(range(count if usable is None else usable))
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: mask, raising=False)


class TestResolveWorkers:
    """`--workers auto` heuristic: min(usable CPUs, planned shards), serial on 1 CPU."""

    def test_explicit_counts_pass_through(self):
        from repro.simnet.shard import resolve_workers

        assert resolve_workers(1, CONFIG) == 1
        assert resolve_workers(4, CONFIG) == 4
        assert resolve_workers("8", CONFIG) == 8

    def test_auto_serial_on_single_cpu(self, monkeypatch):
        from repro.simnet import shard

        _cpus(monkeypatch, 1)
        assert shard.resolve_workers("auto", CONFIG) == 1

    def test_auto_serial_when_pinned_to_one_cpu(self, monkeypatch):
        from repro.simnet import shard

        _cpus(monkeypatch, 2, usable=1)  # os.sched_setaffinity(0, {0})
        assert shard.resolve_workers("auto", CONFIG) == 1

    def test_auto_serial_when_cpu_count_unknown(self, monkeypatch):
        from repro.simnet import shard

        _cpus(monkeypatch, None, usable=False)
        assert shard.resolve_workers("auto", CONFIG) == 1

    def test_auto_caps_at_cpu_count(self, monkeypatch):
        from repro.simnet import shard

        _cpus(monkeypatch, 3)
        resolved = shard.resolve_workers("auto", CONFIG)
        assert resolved == min(3, len(plan_shards(CONFIG, 3)))

    def test_auto_caps_at_planned_shards(self, monkeypatch):
        from repro.simnet import shard

        _cpus(monkeypatch, 4096)
        resolved = shard.resolve_workers("auto", CONFIG)
        assert resolved == len(plan_shards(CONFIG, 4096))
        assert resolved >= 1
