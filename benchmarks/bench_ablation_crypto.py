"""Ablation — the FastProtection substitute does not change any result.

DESIGN.md §2 replaces RFC 9001 AES-GCM Initial protection with a
hash-based stand-in for bulk simulation.  This bench runs the *same*
(small) measurement month under both suites and verifies every passive
measurement is identical: RTOs, coalescence shares, SCID statistics, and
sanitization counts.  It also quantifies the speed gap that motivates the
substitution.
"""

import time

from _harness import report
from dataclasses import replace

from repro.core.packet_mix import packet_mix
from repro.core.report import render_table
from repro.core.scid_stats import table4
from repro.core.timing import timing_profiles
from repro.workloads.scenario import ScenarioConfig, build_scenario


def _mini_config(suite: str) -> ScenarioConfig:
    return replace(
        ScenarioConfig(seed=777, suite=suite),
        facebook_clusters=2,
        google_clusters=2,
        cloudflare_clusters=1,
        facebook_offnets=3,
        cloudflare_offnets=0,
        remaining_servers=15,
        attacks_facebook=70,
        attacks_google=110,
        attacks_cloudflare=15,
        attacks_offnet=25,
        attacks_remaining=30,
        telescope_bias=1.0,
        research_scan_packets=150,
        unknown_scan_packets=80,
        zero_rtt_scan_packets=4,
        noise_packets=40,
    )


def _measure(suite: str):
    started = time.perf_counter()
    scenario = build_scenario(_mini_config(suite))
    scenario.run()
    elapsed = time.perf_counter() - started
    capture = scenario.classify()
    timing = timing_profiles(capture.backscatter)
    mix = packet_mix(capture.backscatter)
    scids = table4(capture.backscatter)
    return {
        "seconds": elapsed,
        "backscatter": capture.stats.backscatter,
        "removed": capture.stats.removed,
        "fb_rto": round(timing["Facebook"].initial_rto, 2),
        "gg_rto": round(timing["Google"].initial_rto, 2),
        "gg_coalesced": round(mix.coalescence_share("Google"), 1),
        "cf_scid_len": scids["Cloudflare"].dominant_length,
        "fb_unique_scids": scids["Facebook"].unique_count,
    }


def test_ablation_crypto_suite(benchmark):
    def run_both():
        return {suite: _measure(suite) for suite in ("fast", "rfc9001")}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    fast, real = results["fast"], results["rfc9001"]
    rows = [
        [key, fast[key], real[key]]
        for key in (
            "backscatter",
            "removed",
            "fb_rto",
            "gg_rto",
            "gg_coalesced",
            "cf_scid_len",
            "fb_unique_scids",
        )
    ]
    rows.append(["simulation seconds", "%.1f" % fast["seconds"], "%.1f" % real["seconds"]])
    report(
        "ablation_crypto",
        render_table(
            ["measurement", "FastProtection", "RFC 9001 AES-GCM"],
            rows,
            title="Ablation: protection suite (identical measurements,"
            " ~%.0fx speedup)" % (real["seconds"] / max(fast["seconds"], 1e-9)),
        ),
    )

    # Every measured property is identical under both suites.
    for key in ("backscatter", "fb_rto", "gg_rto", "cf_scid_len", "fb_unique_scids"):
        assert fast[key] == real[key], key
    assert abs(fast["gg_coalesced"] - real["gg_coalesced"]) < 0.01
    # And the real crypto is (much) slower — the reason the substitute exists.
    assert real["seconds"] > fast["seconds"]
