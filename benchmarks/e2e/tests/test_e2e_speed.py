"""Timings are reported at the reference box's speed; sizes are not."""

import pytest

import run
import spec


def test_kernel_is_fixed_work():
    def table():
        return {key: [0, b"", key] for key in range(0x10000)}

    assert run.speed_kernel(5000, table()) == run.speed_kernel(5000, table())
    assert run.speed_probe(0.01) > 0


def test_slowdown_is_the_mean_probe_over_the_reference():
    probes = [run.KERNEL_REFERENCE_S, 3 * run.KERNEL_REFERENCE_S]
    assert run.slowdown(probes) == pytest.approx(2.0)


def test_end_to_end_at_reference_speed():
    clocked = {"pipeline_records_per_s": 4000.0, "simulate_s": 6.0,
               "index_cold_s": 3.0, "analyze_warm_s": 1.0, "peak_rss_mb": 86.0,
               "capidx_bytes_per_record": 55.5}
    passes = [dict(clocked, traced=False), dict(clocked, traced=False)]
    out = run.end_to_end(passes, setup_s=2.0, slow=2.0)
    assert sorted(out) == sorted(name for name, *_rest in spec.END_TO_END)
    for name, unit, _better, _bound in spec.END_TO_END:
        raw = 2.0 if name == "setup_s" else clocked[name]
        assert out[name]["raw_median"] == raw
        expected = {"s": raw / 2.0, "records/s": raw * 2.0}.get(unit, raw)
        assert out[name]["median"] == pytest.approx(expected), name
