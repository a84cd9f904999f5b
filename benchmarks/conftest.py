"""Shared state for the benchmark/reproduction harness.

Every bench regenerates one lab (Fig. 6 is one), codec or ablation of the paper (the
capture numbers of Tables 1-4, 6, Fig. 3-5, 7 and §5 are ``tools/check_paper.py``'s).
Simulation is done once per session in these fixtures; the ``benchmark`` fixture then
times the *analysis kernel* for that experiment, and each bench writes its
reproduced rows/series to ``benchmarks/out/<name>.txt`` (also printed; run
pytest with ``-s`` to see them inline).
"""

from __future__ import annotations

import math
import os
import random

import pytest

from repro.active.lb_inference import follow_up_delay
from repro.active.prober import Prober
from repro.workloads.scenario import (
    ScenarioConfig,
    build_facebook_lab,
    build_lb_lab,
    build_scenario,
)

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

#: Set REPRO_BENCH_SCALE below 1.0 for a quicker, coarser pass.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def report(name: str, text: str) -> str:
    """Persist one experiment's reproduced output and echo it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name + ".txt")
    with open(path, "w") as fileobj:
        fileobj.write(text + "\n")
    print("\n" + text)
    return path


@pytest.fixture(scope="session")
def scenario_2022():
    """The full January-2022 telescope month (DESIGN.md §5 scale)."""
    scenario = build_scenario(ScenarioConfig().scaled(SCALE))
    scenario.run()
    return scenario


# ---------------------------------------------------------------------------
# Active-measurement campaigns
# ---------------------------------------------------------------------------

#: Figure 6 deployment: 10 clusters per continent; L7LB counts drawn around
#: the paper's medians (Asia 453, EU 339.5, NA 292).
GEO_REGIONS = {
    "Asia": (("IN", "SG", "JP", "KR", "TH"), 453, 80),
    "Europe": (("DE", "GB", "FR", "NL", "ES"), 340, 60),
    "North America": (("US", "US", "CA", "US", "MX"), 292, 50),
}


@pytest.fixture(scope="session")
def geo_lab_results():
    """Scan one VIP per Facebook cluster worldwide; returns
    (cluster host-ID counts per representative VIP, geodb, deployed sizes)."""
    specs = []
    for _region, (countries, median, spread) in GEO_REGIONS.items():
        per_country = max(1, round(2 * SCALE))
        # Stratified sizes symmetric around the region median, so the
        # recovered median matches the paper's regardless of sample count.
        offsets = (-spread, -spread // 2, 0, spread // 2, spread)
        index = 0
        for country in countries:
            for _ in range(per_country):
                size = max(40, median + offsets[index % len(offsets)])
                specs.append((4, size, country))
                index += 1
    lab = build_facebook_lab(specs, seed=64, maglev_table_size=2039)
    prober = Prober(lab.loop, lab.network, timeout=2.0)
    sizes: dict[int, int] = {}
    for cluster in lab.clusters["Facebook"]:
        vip = cluster.vips[0]
        budget = int(3.2 * len(cluster.hosts) * math.log(len(cluster.hosts)))
        ids = prober.enumerate_host_ids(vip, budget, stop_after_stable=150)
        sizes[vip] = len({h for h in ids if h is not None})
    deployed = {
        cluster.vips[0]: len(cluster.hosts) for cluster in lab.clusters["Facebook"]
    }
    return sizes, lab.geodb, deployed


@pytest.fixture(scope="session")
def jaccard_lab_results():
    """The §4.3 VIP-clustering campaign: scan every VIP of every cluster.

    Structure matches the paper (112 clusters × 22 VIPs, plus 21/20/44);
    hosts per cluster are scaled down (14 vs ~300-450) to keep the scan
    tractable, which only shrinks the sets being intersected.
    """
    cluster_count = max(8, int(112 * SCALE))
    specs = [(22, 10, "US")] * cluster_count + [
        (21, 10, "DE"),
        (20, 10, "IN"),
        (44, 10, "GB"),
    ]
    lab = build_facebook_lab(specs, seed=43)
    prober = Prober(lab.loop, lab.network, timeout=2.0)
    per_vip = prober.scan_vips(
        lab.vips("Facebook"), handshakes_per_vip=320, stop_after_stable=90
    )
    return per_vip, [len(c.vips) for c in lab.clusters["Facebook"]]


@pytest.fixture(scope="session")
def convergence_results():
    """§4.3-a: 20k handshakes against one VIP of a large cluster."""
    host_count = 520  # calibrated so ~85% of IDs appear within 1k handshakes
    lab = build_facebook_lab([(4, host_count, "US")], seed=7, maglev_table_size=2039)
    prober = Prober(lab.loop, lab.network, timeout=2.0)
    handshakes = int(20000 * max(SCALE, 0.25))
    ids = prober.enumerate_host_ids(lab.vips("Facebook")[0], handshakes)
    return ids, host_count


@pytest.fixture(scope="session")
def lb_outcomes():
    """Appendix-D campaign against Google and Facebook VIPs."""
    outcomes = {"Google": [], "Facebook": []}
    per_hg = max(4, int(12 * SCALE))
    for i in range(per_hg):
        lab = build_lb_lab(google_hosts=10, facebook_hosts=10, seed=100 + i)
        prober = Prober(lab.loop, lab.network)
        outcomes["Google"].append(
            follow_up_delay(prober, lab.vips("Google")[i % 8], max_wait=400.0)
        )
        outcomes["Facebook"].append(
            follow_up_delay(prober, lab.vips("Facebook")[i % 8], max_wait=60.0)
        )
    return outcomes
