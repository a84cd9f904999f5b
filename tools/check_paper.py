#!/usr/bin/env python
"""Check the paper's numbers against simulated studies and active labs:
the capture-derived Tables 1-4 and 6, Figures 3, 4, 5 and 7, §5 and the
flood-events extension, and the active half — Figure 6, §4.2's host-ID
coverage and §4.3's four labs.

Simulates the two study months at the experiment book's Setup point (what
``repro simulate --scale 0.5 --seed 20220101`` and ``… --seed 20210401
--year 2021`` capture), classifies them with ``repro analyze``'s pipeline,
reads every capture number through ``evaluate_metrics`` (the grammar of
``repro.core.selectors``) and scores Table 6 against the simulated
certificates.  Each lab of :data:`LABS` builds a fixed deployment and
probes it with ``repro.active``.  Every number is held to its row of
:data:`TARGETS`:

    PYTHONPATH=src python tools/check_paper.py [--json]

A target is a grammar name, a Table 6 name, a name its lab declares or the
ratio of two ``(source, name)`` pairs.  Only the sources some row reads are
simulated or probed; §4.3-b's campaign (≈300k handshakes) takes most of the
run.  A row is ok when ``lo <= ours <= hi``; one whose interval leaves out
the paper's value says why.  One rendered row per target goes to stdout,
each row outside its interval to stderr as a finding, and the exit status
is the finding count; ``--json`` emits the shared report of
``tools/_report.py``.  Nothing is written to disk.
"""

from __future__ import annotations

import math
import os
import sys
from typing import NamedTuple, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)  # runnable from a bare checkout, no install step needed

from _report import Report, split_json_flag  # noqa: E402
from repro.active.lb_inference import classify_lb, follow_up_delay  # noqa: E402
from repro.active.lb_inference import same_instance_probe  # noqa: E402
from repro.active.prober import Prober  # noqa: E402
from repro.capstore import ClassifiedView, build_from_records  # noqa: E402
from repro.capstore import default_acknowledged, default_asdb  # noqa: E402
from repro.core.geo import aggregate_clusters  # noqa: E402
from repro.core.l7lb import cluster_vips, convergence_curve  # noqa: E402
from repro.core.l7lb import host_ids_from_scids, passive_coverage  # noqa: E402
from repro.core.offnet import add_first_gaps, evaluate_classifiers  # noqa: E402
from repro.core.render import CaptureFold  # noqa: E402
from repro.core.summary import ECHO_DETECTED_ORIGINS  # noqa: E402
from repro.simnet.shard import run_scenario  # noqa: E402
from repro.sweep.metrics import evaluate_metrics  # noqa: E402
from repro.workloads.scenario import ScenarioConfig, april_2021_config  # noqa: E402
from repro.workloads.scenario import build_facebook_lab, build_lb_lab  # noqa: E402

#: The two study months, as the experiment book simulates them.
MONTHS = {
    "2022": ScenarioConfig(seed=20220101).scaled(0.5),
    "2021": april_2021_config(seed=20210401).scaled(0.5),
}
#: Table 6's names are ``table6.<classifier>.<measure>``.
TABLE6, TABLE6_MEASURES = "table6.", ("tpr", "fpr", "precision")


class Target(NamedTuple):
    """One row; ``source`` (a month of :data:`MONTHS` or a lab of
    :data:`LABS`) is ``None`` for a ratio, whose pairs carry theirs."""

    artefact: str
    source: Optional[str]
    target: object
    paper: Optional[float]
    lo: float
    hi: float
    reason: str = ""


def _ratio(source, name, by_source, by_name):
    return (source, name), (by_source, by_name)


SCALED = "a count at scale 0.5, ~1/40 of the paper's traffic (DESIGN.md §5)"
SERVERS_22 = "the paper's four rows sum to 93.6%, ours to 100%; the rest is QUICv1"
APRIL = "the paper's April 2021 rows sum to 51.9% / 79.5%, ours to 100%"
OFFNET = "fewer modelled candidates, true to profile: non-SCID features misfire less"
CLOUDFLARE = "Cloudflare's few SCIDs shrink less with scale than others' thousands"
SANITISED = "the full-/9 research sweeps are scaled down (DESIGN.md §5)"
ORDER_ONLY = "the paper states the ordering, not the counts"
NO_V1 = "the paper prints '-': RFC 9000 postdates April 2021"
PLOTTED = "the paper plots frequencies; at most 2 bits means one value holds >= 1/4"
EXTENSION = "not in the paper: every attacked network shows, counted at scale 0.5"
CS = "Coalesced Initial & Handshake"
ACK, FAILED = "dropped.acknowledged_scanner", "dropped.failed_dissection"
TRUTH = "the paper has no deployed fleet to compare with; ours is the simulator's"
SUBSET = "the paper counts its 7,122 passive host IDs inside its census"
CURVE = "the paper plots the curve; it prints no end value"
APPENDIX_D = "the paper states the outcome, not a count"
IMMEDIATE = "the paper says 'immediately'; a follow-up is retried once a second"
ECHOES = "the probed echo set is the one Table 1's summary assumes"

#: Every capture number the paper publishes for Tables 1-4, 6, Fig. 3-5, 7
#: and §5, the flood-events extension's, and every number of the active
#: labs: (artefact, source, target, paper, lo, hi[, reason]).  Table 1's
#: yes is 1; a strict bound of a lab is nudged inward, so ``> 380`` is 380.5.
TARGETS = [Target(*row) for row in (
    ("Table 1", "2022", "summary.Cloudflare.coalescence", 1, 1, 1),
    ("Table 1", "2022", "summary.Facebook.coalescence", 0, 0, 0),
    ("Table 1", "2022", "summary.Google.coalescence", 1, 1, 1),
    ("Table 1", "2022", "summary.Cloudflare.server_chosen_ids", 1, 1, 1),
    ("Table 1", "2022", "summary.Facebook.server_chosen_ids", 1, 1, 1),
    ("Table 1", "2022", "summary.Google.server_chosen_ids", 0, 0, 0),
    # §4.2's probe behind those rows: does a VIP echo a chosen DCID?
    ("Table 1", "lb-type", "echoes.Google", 1, 1, 1),
    ("Table 1", "lb-type", "echoes.Facebook", 0, 0, 0),
    ("Table 1", "lb-type", "echoes.as_summarized", None, 1, 1, ECHOES),
    ("Table 1", "2022", "summary.Cloudflare.structured_scids", 1, 1, 1),
    ("Table 1", "2022", "summary.Facebook.structured_scids", 1, 1, 1),
    ("Table 1", "2022", "summary.Google.structured_scids", 0, 0, 0),
    ("Table 1", "2022", "summary.Cloudflare.l7_load_balancers", 0, 0, 0),  # n/a
    ("Table 1", "2022", "summary.Facebook.l7_load_balancers", 1, 1, 1),
    ("Table 1", "2022", "summary.Google.l7_load_balancers", 0, 0, 0),  # n/a
    ("Table 1", "2022", "rto.initial.Cloudflare", 1.0, 0.95, 1.05),
    ("Table 1", "2022", "rto.initial.Facebook", 0.4, 0.35, 0.45),
    ("Table 1", "2022", "rto.initial.Google", 0.3, 0.25, 0.35),
    ("Table 1", "2022", "resends.min.Cloudflare", 3, 3, 3),
    ("Table 1", "2022", "resends.max.Cloudflare", 6, 6, 6),
    ("Table 1", "2022", "resends.min.Facebook", 7, 7, 7),
    ("Table 1", "2022", "resends.max.Facebook", 9, 9, 9),
    ("Table 1", "2022", "resends.min.Google", 3, 3, 3),
    ("Table 1", "2022", "resends.max.Google", 6, 6, 6),
    # Table 2: session shares [%]; clients are scans, servers backscatter.
    ("Table 2", "2022", "version_share.clients.QUICv1", 77.7, 70, 85),
    ("Table 2", "2022", "version_share.clients.Facebook mvfst 2", 21.2, 15, 27),
    ("Table 2", "2022", "version_share.clients.draft-29", 0.5, 0, 2),
    ("Table 2", "2022", "version_share.clients.others", 0.1, 0, 1.5),
    ("Table 2", "2022", "version_share.servers.QUICv1", 48.1, 50, 60, SERVERS_22),
    ("Table 2", "2022", "version_share.servers.Facebook mvfst 2", 33.2, 28, 38),
    ("Table 2", "2022", "version_share.servers.draft-29", 0.9, 0, 3),
    ("Table 2", "2022", "version_share.servers.others", 11.4, 7, 15),
    ("Table 2", "2021", "version_share.clients.QUICv1", 0.1, 0, 5),
    ("Table 2", "2021", "version_share.clients.Facebook mvfst 2", 17.5, 22, 45, APRIL),
    ("Table 2", "2021", "version_share.clients.draft-29", 30.2, 45, 70, APRIL),
    ("Table 2", "2021", "version_share.clients.others", 4.1, 2, 12),
    ("Table 2", "2021", "version_share.servers.QUICv1", None, 0, 1, NO_V1),
    ("Table 2", "2021", "version_share.servers.Facebook mvfst 2", 18.8, 20, 40, APRIL),
    ("Table 2", "2021", "version_share.servers.draft-29", 51.9, 35, 50, APRIL),
    ("Table 2", "2021", "version_share.servers.others", 8.8, 15, 40, APRIL),
    ("Table 2", None, _ratio("2021", "version_share.servers.draft-29",  # it fell
                             "2022", "version_share.servers.draft-29"), 57.67, 10, 100),
    # Table 3: long-header packet types per source network [%].
    ("Table 3", "2022", "packet_share.Cloudflare.Initial", 56.0, 40, 60),
    ("Table 3", "2022", "packet_share.Cloudflare.Handshake", 40.7, 40, 55),
    ("Table 3", "2022", "packet_share.Cloudflare.0-RTT", 0, 0, 0),
    ("Table 3", "2022", "packet_share.Cloudflare.Retry", 0, 0, 0),
    ("Table 3", "2022", "packet_share.Cloudflare." + CS, 3.3, 0.5, 15),
    ("Table 3", "2022", "packet_share.Facebook.Initial", 47.7, 45, 55),
    ("Table 3", "2022", "packet_share.Facebook.Handshake", 52.3, 45, 55),
    ("Table 3", "2022", "packet_share.Facebook.0-RTT", 0, 0, 0),
    ("Table 3", "2022", "packet_share.Facebook.Retry", 0, 0, 0),
    ("Table 3", "2022", "packet_share.Facebook." + CS, 0, 0, 0),
    ("Table 3", "2022", "packet_share.Google.Initial", 23.2, 18, 28),
    ("Table 3", "2022", "packet_share.Google.Handshake", 23.7, 18, 28),
    ("Table 3", "2022", "packet_share.Google.0-RTT", 0.29, 0.05, 1.5),
    ("Table 3", "2022", "packet_share.Google.Retry", 0, 0, 0),
    ("Table 3", "2022", "packet_share.Google." + CS, 52.7, 45, 60),
    ("Table 3", "2022", "packet_share.Remaining.Initial", 47.0, 40, 80),
    ("Table 3", "2022", "packet_share.Remaining.Handshake", 43.8, 15, 50),
    ("Table 3", "2022", "packet_share.Remaining.0-RTT", 0.2, 0, 1),
    ("Table 3", "2022", "packet_share.Remaining.Retry", 0.003, 0, 0.1),
    ("Table 3", "2022", "packet_share.Remaining." + CS, 9.1, 0.5, 15),
    # Table 4: dominant SCID length [bytes], unique SCIDs and their ordering.
    ("Table 4", "2022", "scid_dominant_len.Cloudflare", 20, 20, 20),
    ("Table 4", "2022", "scid_dominant_len.Facebook", 8, 8, 8),
    ("Table 4", "2022", "scid_dominant_len.Google", 8, 8, 8),
    ("Table 4", "2022", "scid_dominant_len.Remaining", 8, 8, 8),
    ("Table 4", "2022", "scid_unique.Cloudflare", 170, 15, 80, SCALED),
    ("Table 4", "2022", "scid_unique.Facebook", 63615, 250, 900, SCALED),
    ("Table 4", "2022", "scid_unique.Google", 111825, 400, 1500, SCALED),
    ("Table 4", "2022", "scid_unique.Remaining", 29294, 180, 700, SCALED),
    ("Table 4", None, _ratio("2022", "scid_unique.Google",
                             "2022", "scid_unique.Facebook"), 1.758, 1.2, 2.5),
    ("Table 4", None, _ratio("2022", "scid_unique.Facebook",
                             "2022", "scid_unique.Remaining"), 2.172, 1.01, 3),
    ("Table 4", None, _ratio("2022", "scid_unique.Remaining",
                             "2022", "scid_unique.Cloudflare"),
     172.3, 2, 50, CLOUDFLARE),
    # Table 6: off-net Facebook classifiers against the certificates.
    ("Table 6", "2022", "table6.Inter arrival time.tpr", 0.772, 0.9, 1, OFFNET),
    ("Table 6", "2022", "table6.Inter arrival time.fpr", 0.268, 0, 0.25, OFFNET),
    ("Table 6", "2022", "table6.Inter arrival time.precision", 0.645, 0.55, 1),
    ("Table 6", "2022", "table6.QUIC packet length.tpr", 0.997, 0.9, 1),
    ("Table 6", "2022", "table6.QUIC packet length.fpr", 0.328, 0, 0.4),
    ("Table 6", "2022", "table6.Coalescence.tpr", 1.0, 0.95, 1),
    ("Table 6", "2022", "table6.Coalescence.fpr", 0.931, 0.5, 0.9, OFFNET),
    ("Table 6", "2022", "table6.Coalescence.precision", 0.403, 0.25, 0.6),
    ("Table 6", "2022", "table6.SCID.tpr", 1.0, 1, 1),
    ("Table 6", "2022", "table6.SCID.fpr", 0.193, 0.05, 0.35),
    ("Table 6", "2022", "table6.SCID.precision", 0.765, 0.5, 1),
    ("Table 6", "2022", "table6.SCID & coalescence.tpr", 1.0, 0.95, 1),
    ("Table 6", "2022", "table6.SCID & coalescence.fpr", 0.179, 0, 0.3),
    ("Table 6", "2022", "table6.SCID & coalescence.precision", 0.779, 0.6, 1),
    ("Table 6", "2022", "table6.SCID off-net (low host ID).tpr", 1.0, 1, 1),
    ("Table 6", "2022", "table6.SCID off-net (low host ID).fpr", 0.027, 0, 0.05),
    ("Table 6", "2022", "table6.SCID off-net (low host ID).precision", 0.959, 0.9, 1),
    ("Table 6", None, _ratio("2022", "table6.SCID off-net (low host ID).fpr",
                             "2022", "table6.SCID.fpr"), 0.14, 0, 0.5),
    ("Table 6", None, _ratio("2022", "table6.Coalescence.fpr",
                             "2022", "table6.SCID.fpr"), 4.824, 1.5, 15),
    ("Table 6", None, _ratio("2022", "table6.SCID off-net (low host ID).precision",
                             "2022", "table6.SCID.precision"), 1.254, 1.01, 2),
    # §5: growth from April 2021 to January 2022, and what sanitisation removed.
    ("§5", None, _ratio("2022", "rows.backscatter", "2021", "rows.backscatter"),
     4.4, 3.5, 5.5),
    ("§5", None, _ratio("2022", "rows.scans", "2021", "rows.scans"), 8.1, 6, 10),
    ("§5", "2022", "removed_share", 0.92, 0.3, 0.55, SANITISED),
    ("§5", None, _ratio("2022", ACK, "2022", FAILED), None, 2, math.inf, ORDER_ONLY),
    ("§5", None, _ratio("2021", ACK, "2021", FAILED), None, 2, math.inf, ORDER_ONLY),
    # Fig. 3: the backoff factor of each RTO ladder (2 = exponential).
    ("Fig. 3", "2022", "rto.backoff.Cloudflare", 2, 1.75, 2.25),
    ("Fig. 3", "2022", "rto.backoff.Facebook", 2, 1.75, 2.25),
    ("Fig. 3", "2022", "rto.backoff.Google", 2, 1.75, 2.25),
    # Fig. 4: Facebook resends the most (its 7-9 and the others' 3-6 are Table 1's).
    ("Fig. 4", None, _ratio("2022", "resends.max.Facebook",
                            "2022", "resends.max.Google"), 1.5, 1.01, 3),
    # Fig. 5: nybble structure, and entropy [bits] per position (4 = uniform).
    ("Fig. 5", "2022", "scid_structured.Google", 0, 0, 0),
    ("Fig. 5", "2022", "scid_structured.Facebook", 1, 1, 1),
    ("Fig. 5", "2022", "scid_structured.Cloudflare", 1, 1, 1),
    ("Fig. 5", "2022", "scid_entropy.min.Google", 4, 3.5, 4),
    ("Fig. 5", "2022", "scid_entropy.first.Facebook", None, 0, 2, PLOTTED),
    ("Fig. 5", "2022", "scid_entropy.last.Facebook", 4, 3.5, 4),
    # Fig. 7: QUIC packets in the most common length combination.
    ("Fig. 7", "2022", "length_top_packets.Google", 2, 2, 2),
    ("Fig. 7", "2022", "length_top_packets.Facebook", 1, 1, 1),
    # Extension: flood events recovered from backscatter (120 s gap, 10 packets).
    ("Events", "2022", "flood_victims", None, 300, 550, EXTENSION),
    ("Events", "2022", "flood_events.Google", None, 150, 350, EXTENSION),
    ("Events", "2022", "flood_events.Facebook", None, 150, 300, EXTENSION),
    ("Events", "2022", "flood_events.Remaining", None, 80, 170, EXTENSION),
    ("Events", "2022", "flood_events.Cloudflare", None, 5, 40, EXTENSION),
    # Fig. 6: median L7LBs per cluster by continent, from one VIP each.
    ("Fig. 6", "fig6", "median.Asia", 453, 380.5, math.inf),
    ("Fig. 6", "fig6", "median.North America", 292, 250.5, 359.5),
    ("Fig. 6", None, _ratio("fig6", "median.Asia", "fig6", "median.Europe"),
     1.3343, 1.0001, math.inf),
    ("Fig. 6", None, _ratio("fig6", "median.Europe", "fig6", "median.North America"),
     1.1627, 1.0001, math.inf),
    ("Fig. 6", "fig6", "recovered.min", None, 0.95, 1, TRUTH),
    # §4.2: passive host IDs against the active census (7,122 of 37,684).
    ("§4.2", "hostids", "coverage", 0.189, 0.0801, 0.5999),
    ("§4.2", "hostids", "passive_outside_census", None, 0, 0, SUBSET),
    ("§4.2", "hostids", "census.share", None, 0.97, 1, TRUTH),
    # §4.3-a: host-ID discovery converges within one VIP.
    ("§4.3-a", "convergence", "coverage.1k", 0.85, 0.75, 0.95),
    ("§4.3-a", "convergence", "coverage.end", None, 1, 1, CURVE),
    ("§4.3-a", "convergence", "found.share", None, 0.97, 1, TRUTH),
    # §4.3-b: VIPs share all host IDs or none; the clusters that yields.
    ("§4.3-b", "jaccard", "clusters.22_vips", 112, 112, 112),
    ("§4.3-b", "jaccard", "clusters.21_vips", 1, 1, 1),
    ("§4.3-b", "jaccard", "clusters.20_vips", 1, 1, 1),
    ("§4.3-b", "jaccard", "clusters.44_vips", 1, 1, 1),
    ("§4.3-b", "jaccard", "clusters", 115, 115, 115),
    ("§4.3-b", "jaccard", "jaccard.min_intra", 0.996, 0.8501, 1),
    ("§4.3-b", "jaccard", "jaccard.max_inter", 0, 0, 0),
    # §4.3-c: a follow-up on a new 5-tuple reaches a new L7LB instance.
    ("§4.3-c", "same-instance", "followups.delayed", None, 0, 0, APPENDIX_D),
    ("§4.3-c", "same-instance", "followups.new_host", None, 1, math.inf, APPENDIX_D),
    ("§4.3-c", "same-instance", "followups.not_new_instance", None, 0, 1, APPENDIX_D),
    # §4.3-d: follow-up delay [s] and LB verdict (Appendix D).
    ("§4.3-d", "lb-type", "delay.min.Google", 240, 200.5, 279.5),
    ("§4.3-d", "lb-type", "delay.max.Google", 240, 200.5, 279.5),
    ("§4.3-d", "lb-type", "delay.max.Facebook", None, 0, 9.5, IMMEDIATE),
    ("§4.3-d", "lb-type", "verdict.cid-aware.Google", 1, 1, 1),
    ("§4.3-d", "lb-type", "verdict.5-tuple.Facebook", 1, 1, 1),
)]


def operands(row: Target) -> list:
    """The ``(source, name)`` pairs a row reads."""
    return list(row.target) if row.source is None else [(row.source, row.target)]


def _view(scenario) -> ClassifiedView:
    """A finished scenario's capture, classified as ``repro analyze`` does."""
    records = scenario.telescope.records
    return ClassifiedView(
        *build_from_records(records, default_asdb(), default_acknowledged())
    )


def _table6(view, certstore) -> dict:
    """Table 6's names: one fold's off-net features, with the first resend
    gaps of the same fold's one session store."""
    fold = CaptureFold({"offnet", "rto"})
    fold.feed(view.table, 0, len(view))
    add_first_gaps(fold.offnet.features, fold.sessions)
    return {
        "%s%s.%s" % (TABLE6, scores.name, measure): getattr(scores, measure)
        for scores in evaluate_classifiers(fold.offnet.features, certstore)
        for measure in TABLE6_MEASURES
    }


def _month(config, names) -> dict:
    """``names`` of one study month, simulated, classified and read once."""
    scenario = run_scenario(config)
    view = _view(scenario)
    grammar = sorted(name for name in names if not name.startswith(TABLE6))
    values = evaluate_metrics(grammar, view, {})
    if len(grammar) < len(names):
        values.update(_table6(view, scenario.certstore))
    return values


#: Figure 6's fleet, per continent: two clusters in each of five countries,
#: L7LB counts symmetric around the paper's median, so the recovered median
#: lands on it whatever the sample.
GEO_REGIONS = (
    (("IN", "SG", "JP", "KR", "TH"), 453, 80),
    (("DE", "GB", "FR", "NL", "ES"), 340, 60),
    (("US", "US", "CA", "US", "MX"), 292, 50),
)
FIG6 = ("median.Asia", "median.Europe", "median.North America", "recovered.min")


def fig6_lab() -> dict:
    """One VIP per cluster enumerated: the continents' median L7LB counts,
    and the least share of a cluster's L7LBs found."""
    specs = []
    for countries, median, spread in GEO_REGIONS:
        offsets = (-spread, -spread // 2, 0, spread // 2, spread)
        for index in range(2 * len(countries)):
            specs.append((4, median + offsets[index % 5], countries[index // 2]))
    lab = build_facebook_lab(specs, seed=64, maglev_table_size=2039)
    prober = Prober(lab.loop, lab.network, timeout=2.0)
    found, shares = {}, []
    for cluster in lab.clusters["Facebook"]:
        hosts, vip = len(cluster.hosts), cluster.vips[0]
        budget = int(3.2 * hosts * math.log(hosts))
        ids = prober.enumerate_host_ids(vip, budget, stop_after_stable=150)
        found[vip] = len(set(ids) - {None})
        shares.append(found[vip] / hosts)
    medians = aggregate_clusters(found, lab.geodb).continent_medians()
    values = {"median." + continent: median for continent, median in medians.items()}
    values["recovered.min"] = min(shares)
    return values


#: §4.2's deployment: four Facebook clusters of 260 L7LBs under a light
#: attack load, where the telescope sees only part of the fleet.
LARGE_DEPLOYMENT = ScenarioConfig(
    seed=4242,
    facebook_clusters=4,
    facebook_hosts_per_cluster=260,
    google_clusters=1,
    cloudflare_clusters=1,
    facebook_offnets=0,
    cloudflare_offnets=0,
    remaining_servers=5,
    attacks_facebook=400,
    attacks_google=50,
    attacks_cloudflare=10,
    attacks_offnet=0,
    attacks_remaining=20,
    research_scan_packets=200,
    unknown_scan_packets=100,
    zero_rtt_scan_packets=0,
    noise_packets=50,
)
HOSTIDS = ("coverage", "passive_outside_census", "census.share")


def hostids_lab() -> dict:
    """Host IDs in the capture's Facebook SCIDs against an active census
    of one VIP per on-net cluster of the same scenario."""
    scenario = run_scenario(LARGE_DEPLOYMENT)
    fold = CaptureFold({"4"})
    view = _view(scenario)
    fold.feed(view.table, 0, len(view))
    passive = host_ids_from_scids(fold.scids.stats["Facebook"].unique_scids)
    prober = Prober(scenario.loop, scenario.network, suite="fast", timeout=2.0)
    census = set()
    for cluster in scenario.clusters["Facebook"]:
        census.update(
            prober.enumerate_host_ids(cluster.vips[0], 4000, stop_after_stable=250)
        )
    census.discard(None)
    deployed = scenario.all_onnet_host_ids("Facebook")
    return {
        "coverage": passive_coverage(passive, census),
        "passive_outside_census": len(passive - census),
        "census.share": len(census) / len(deployed),
    }


CONVERGENCE = ("coverage.1k", "coverage.end", "found.share")


def convergence_lab() -> dict:
    """20k port-varying handshakes against one VIP of a 520-L7LB cluster,
    a size at which ~85% of its host IDs show within 1k handshakes."""
    hosts = 520
    lab = build_facebook_lab([(4, hosts, "US")], seed=7, maglev_table_size=2039)
    prober = Prober(lab.loop, lab.network, timeout=2.0)
    ids = prober.enumerate_host_ids(lab.vips("Facebook")[0], 20000)
    curve = convergence_curve([h for h in ids if h is not None])
    return {
        "coverage.1k": curve.coverage_at(1000),
        "coverage.end": curve.coverage_at(len(curve.counts)),
        "found.share": curve.total / hosts,
    }


#: §4.3-b's fleet: the paper's 112 clusters of 22 VIPs plus one each of 21,
#: 20 and 44 VIPs, at 10 L7LBs per cluster (the paper's have ~300-450).
JACCARD_SPECS = [(22, 10, "US")] * 112 + [(21, 10, "DE"), (20, 10, "IN"), (44, 10, "GB")]
JACCARD = (
    "clusters",
    "clusters.22_vips",
    "clusters.21_vips",
    "clusters.20_vips",
    "clusters.44_vips",
    "jaccard.min_intra",
    "jaccard.max_inter",
)


def jaccard_lab() -> dict:
    """Every VIP scanned, and the VIPs clustered by shared host IDs."""
    lab = build_facebook_lab(JACCARD_SPECS, seed=43)
    prober = Prober(lab.loop, lab.network, timeout=2.0)
    per_vip = prober.scan_vips(
        lab.vips("Facebook"), handshakes_per_vip=320, stop_after_stable=90
    )
    clustering = cluster_vips(per_vip)
    histogram = clustering.size_histogram()
    values = {"clusters.%d_vips" % vips: histogram.get(vips, 0) for vips in (22, 21, 20, 44)}
    values["clusters"] = len(clustering.clusters)
    values["jaccard.min_intra"] = clustering.min_intra_jaccard
    values["jaccard.max_inter"] = clustering.max_inter_jaccard
    return values


SAME_INSTANCE = ("followups.delayed", "followups.new_host", "followups.not_new_instance")


def same_instance_lab() -> dict:
    """Appendix D's follow-up round against six Facebook VIPs: how many
    follow-ups were delayed, reached a new host ID, or no new instance."""
    lab = build_lb_lab(google_hosts=8, facebook_hosts=8, seed=777)
    prober = Prober(lab.loop, lab.network)
    results = [same_instance_probe(prober, vip) for vip in lab.vips("Facebook")[:6]]
    return {
        "followups.delayed": sum(r.followup_delayed for r in results),
        "followups.new_host": sum(r.followup_host_id != r.first_host_id for r in results),
        "followups.not_new_instance": sum(not r.reached_new_instance for r in results),
    }


LB_TYPE = (
    "delay.min.Google",
    "delay.max.Google",
    "verdict.cid-aware.Google",
    "verdict.5-tuple.Google",
    "delay.min.Facebook",
    "delay.max.Facebook",
    "verdict.cid-aware.Facebook",
    "verdict.5-tuple.Facebook",
    "echoes.Google",
    "echoes.Facebook",
    "echoes.as_summarized",
)


def lb_type_lab() -> dict:
    """Appendix D against 12 Google and 12 Facebook VIPs, a fresh lab per
    pair: the least and greatest follow-up delay [s] (``nan`` if a
    follow-up never completed) and each verdict's share.  A further lab
    runs §4.2's echo probe on one VIP per hypergiant: 1 if the server
    echoed the chosen DCIDs as its SCID, and whether the echoing set is
    the ``ECHO_DETECTED_ORIGINS`` Table 1's summary reads."""
    outcomes = {"Google": [], "Facebook": []}
    for i in range(12):
        lab = build_lb_lab(google_hosts=10, facebook_hosts=10, seed=100 + i)
        prober = Prober(lab.loop, lab.network)
        for hypergiant, max_wait in (("Google", 400.0), ("Facebook", 60.0)):
            vip = lab.vips(hypergiant)[i % 8]
            outcomes[hypergiant].append(follow_up_delay(prober, vip, max_wait=max_wait))
    values = {}
    for hypergiant, runs in outcomes.items():
        delays = [outcome.delay for outcome in runs]
        for pick in (min, max):
            values["delay.%s.%s" % (pick.__name__, hypergiant)] = (
                math.nan if None in delays else pick(delays)
            )
        verdicts = [classify_lb(outcome) for outcome in runs]
        for verdict in ("cid-aware", "5-tuple"):
            values["verdict.%s.%s" % (verdict, hypergiant)] = (
                verdicts.count(verdict) / len(verdicts)
            )
    lab = build_lb_lab(google_hosts=10, facebook_hosts=10, seed=99)
    prober = Prober(lab.loop, lab.network)
    echoing = {
        hypergiant
        for hypergiant in outcomes
        if prober.detect_echo_behaviour(lab.vips(hypergiant)[0])
    }
    for hypergiant in outcomes:
        values["echoes." + hypergiant] = int(hypergiant in echoing)
    values["echoes.as_summarized"] = int(echoing == ECHO_DETECTED_ORIGINS)
    return values


#: The active labs: ``{source: (the names it declares, its function)}``.
LABS = {
    "fig6": (FIG6, fig6_lab),
    "hostids": (HOSTIDS, hostids_lab),
    "convergence": (CONVERGENCE, convergence_lab),
    "jaccard": (JACCARD, jaccard_lab),
    "same-instance": (SAME_INSTANCE, same_instance_lab),
    "lb-type": (LB_TYPE, lb_type_lab),
}


def measure(targets) -> dict:
    """``{(source, name): ours}`` for every pair ``targets`` read; each
    source they read is simulated or probed once, and no other."""
    names = {}
    for row in targets:
        for source, name in operands(row):
            names.setdefault(source, set()).add(name)
    measured = {}
    for source, wanted in names.items():
        values = _month(MONTHS[source], wanted) if source in MONTHS else LABS[source][1]()
        measured.update(((source, name), values[name]) for name in wanted)
    return measured


def ours_of(row: Target, measured: dict) -> float:
    if row.source is not None:
        return measured[row.source, row.target]
    numerator, denominator = (measured[pair] for pair in row.target)
    if denominator:
        return numerator / denominator
    return math.inf if numerator else math.nan


def _number(value) -> str:
    if value is None or not math.isfinite(value):
        return "-" if value is None else str(value)
    return ("%.4f" % value).rstrip("0").rstrip(".")


def check(targets, measured: dict, json_mode: bool = False) -> int:
    """Hold every row to its interval; returns the finding count."""
    report = Report("check-paper")
    for row in targets:
        report.checked += 1
        ours = ours_of(row, measured)
        ok = row.lo <= ours <= row.hi
        label = " / ".join("%s %s" % pair for pair in operands(row))
        paper = _number(row.paper)
        interval = "[%s, %s]" % (_number(row.lo), _number(row.hi))
        if not json_mode:
            verdict = "ok" if ok else "OUTSIDE"
            print("%-8s %-7s paper %-9s ours %-9s %-16s %s" % (
                row.artefact, verdict, paper, _number(ours), interval, label))
        if not ok:
            report.add("%s %s: ours %s outside %s (paper %s)" % (
                row.artefact, label, _number(ours), interval, paper))
    return report.emit("paper targets ok (%d)" % report.checked, json_mode=json_mode)


def main(argv) -> int:
    json_mode, rest = split_json_flag(argv[1:])
    if rest:
        print("usage: check_paper.py [--json]", file=sys.stderr)
        return 2
    return check(TARGETS, measure(TARGETS), json_mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
