"""Ablation — the telescope-bias substitution does not distort results.

DESIGN.md §2 biases attackers' spoofed addresses toward the telescope
prefix to cut simulation cost, arguing the bias only scales the *volume*
of captured backscatter, never its per-flow properties.  This bench runs
the same month at three bias levels and verifies the measured RTOs,
coalescence shares, and version mix are invariant.
"""

import pytest
from _harness import report
from dataclasses import replace

from repro.core.packet_mix import packet_mix
from repro.core.report import render_table
from repro.core.timing import timing_profiles
from repro.core.versions import table2
from repro.workloads.scenario import ScenarioConfig, build_scenario


def _measure(bias: float):
    config = replace(
        ScenarioConfig(seed=31337).scaled(0.22),
        telescope_bias=bias,
        research_scan_packets=500,
        noise_packets=200,
    )
    scenario = build_scenario(config)
    scenario.run()
    capture = scenario.classify()
    timing = timing_profiles(capture.backscatter)
    mix = packet_mix(capture.backscatter)
    versions = table2(capture)
    return {
        "backscatter": capture.stats.backscatter,
        "fb_rto": timing["Facebook"].initial_rto,
        "gg_rto": timing["Google"].initial_rto,
        "gg_coalesced": mix.coalescence_share("Google"),
        "server_v1": versions["servers"].share("QUICv1"),
    }


def test_ablation_telescope_bias(benchmark):
    def run_all():
        return {bias: _measure(bias) for bias in (0.25, 0.55, 0.9)}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [
            bias,
            r["backscatter"],
            "%.2f" % r["fb_rto"],
            "%.2f" % r["gg_rto"],
            "%.1f" % r["gg_coalesced"],
            "%.1f" % r["server_v1"],
        ]
        for bias, r in results.items()
    ]
    report(
        "ablation_bias",
        render_table(
            ["spoof bias", "backscatter", "FB RTO", "GG RTO", "GG coalesced %", "v1 %"],
            rows,
            title="Ablation: telescope spoof bias scales volume only"
            " (validates the DESIGN.md substitution)",
        ),
    )

    low, mid, high = results[0.25], results[0.55], results[0.9]
    # Volume scales with the bias...
    assert low["backscatter"] < mid["backscatter"] < high["backscatter"]
    # ...while every measured property stays put.
    for r in (low, mid, high):
        assert r["fb_rto"] == pytest.approx(0.4, abs=0.05)
        assert r["gg_rto"] == pytest.approx(0.3, abs=0.05)
        assert r["gg_coalesced"] == pytest.approx(mid["gg_coalesced"], abs=8)
        assert r["server_v1"] == pytest.approx(mid["server_v1"], abs=8)
