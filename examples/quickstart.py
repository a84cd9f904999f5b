#!/usr/bin/env python3
"""Quickstart: simulate a telescope month and fingerprint hypergiants.

Builds a scaled-down January-2022 scenario (spoofing attackers, scanners,
hypergiant deployments, a /9 telescope), runs the sanitization pipeline,
and prints the paper's Table-1-style configuration matrix re-derived
purely from backscatter.

Run:  python examples/quickstart.py
"""

from repro.core.report import render_table
from repro.core.selectors import HYPERGIANT_COLUMNS
from repro.core.summary import summarize
from repro.core.timing import timing_profiles
from repro.workloads.scenario import ScenarioConfig, build_scenario


def main() -> None:
    print("Building the simulated Internet (hypergiants, attackers, telescope)…")
    config = ScenarioConfig().scaled(0.25)
    scenario = build_scenario(config)

    print("Running one month of traffic…")
    scenario.run()
    print(
        "Telescope captured %d raw packets." % len(scenario.telescope.records)
    )

    print("Sanitizing (dissector + acknowledged-scanner removal)…")
    capture = scenario.classify()
    stats = capture.stats
    print(
        "  kept %d backscatter + %d scans, removed %d (%.0f%%)"
        % (stats.backscatter, stats.scans, stats.removed, 100 * stats.removed_share)
    )

    summary = summarize(capture.backscatter)
    rows = [
        ["Coalescence"] + [summary[h].coalescence for h in HYPERGIANT_COLUMNS],
        ["Server-chosen IDs"]
        + [summary[h].server_chosen_ids for h in HYPERGIANT_COLUMNS],
        ["Structured SCIDs"]
        + [summary[h].structured_scids for h in HYPERGIANT_COLUMNS],
        ["L7LBs quantifiable"]
        + [summary[h].l7_load_balancers for h in HYPERGIANT_COLUMNS],
        ["Initial RTO"] + [summary[h].rto_label() for h in HYPERGIANT_COLUMNS],
        ["# re-transmissions"]
        + [summary[h].resend_label() for h in HYPERGIANT_COLUMNS],
    ]
    print()
    print(
        render_table(
            ["Feature"] + list(HYPERGIANT_COLUMNS),
            rows,
            title="Deployment configurations recovered from backscatter",
        )
    )

    print()
    profiles = timing_profiles(capture.backscatter)
    for origin in HYPERGIANT_COLUMNS:
        profile = profiles.get(origin)
        if profile and profile.initial_rto is not None:
            print(
                "%-11s %4d sessions, RTO %.2f s, backoff x%.1f"
                % (
                    origin,
                    profile.sessions,
                    profile.initial_rto,
                    profile.backoff_factor or 0,
                )
            )


if __name__ == "__main__":
    main()
