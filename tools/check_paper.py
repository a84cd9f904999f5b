#!/usr/bin/env python
"""Check the paper's capture-derived numbers against one simulated study:
Tables 1-4 and 6, Figures 3, 4, 5 and 7, §5, and the flood-events extension.

Simulates the two study months at the experiment book's Setup point (what
``repro simulate --scale 0.5 --seed 20220101`` and ``… --seed 20210401
--year 2021`` capture), classifies them with ``repro analyze``'s pipeline,
reads every capture number through ``evaluate_metrics`` (the grammar of
``repro.core.selectors``), scores Table 6 against the simulated
certificates, and holds each number to its row of :data:`TARGETS`:

    PYTHONPATH=src python tools/check_paper.py [--json]

A target is a grammar name, a Table 6 name or the ratio of two ``(month,
name)`` pairs.  A row is ok when ``lo <= ours <= hi``; one whose interval
leaves out the paper's value says why.  One rendered row per target goes
to stdout, each row outside its interval to stderr as a finding, and the
exit status is the finding count; ``--json`` emits the shared report of
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
from repro.capstore import ClassifiedView, build_from_records  # noqa: E402
from repro.capstore import default_acknowledged, default_asdb  # noqa: E402
from repro.core.offnet import add_first_gaps, evaluate_classifiers  # noqa: E402
from repro.core.render import CaptureFold  # noqa: E402
from repro.simnet.shard import run_scenario  # noqa: E402
from repro.sweep.metrics import evaluate_metrics  # noqa: E402
from repro.workloads.scenario import ScenarioConfig, april_2021_config  # noqa: E402

#: The two study months, as the experiment book simulates them.
MONTHS = {
    "2022": ScenarioConfig(seed=20220101).scaled(0.5),
    "2021": april_2021_config(seed=20210401).scaled(0.5),
}
#: Table 6's names are ``table6.<classifier>.<measure>``.
TABLE6, TABLE6_MEASURES = "table6.", ("tpr", "fpr", "precision")


class Target(NamedTuple):
    """One row; ``month`` is ``None`` for a ratio, whose pairs carry theirs."""

    artefact: str
    month: Optional[str]
    target: object
    paper: Optional[float]
    lo: float
    hi: float
    reason: str = ""


def _ratio(month, name, by_month, by_name):
    return (month, name), (by_month, by_name)


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

#: Every capture number the paper publishes for Tables 1-4, 6, Fig. 3-5, 7
#: and §5, and the flood-events extension's:
#: (artefact, month, target, paper, lo, hi[, reason]).  Table 1's yes is 1.
TARGETS = [Target(*row) for row in (
    ("Table 1", "2022", "summary.Cloudflare.coalescence", 1, 1, 1),
    ("Table 1", "2022", "summary.Facebook.coalescence", 0, 0, 0),
    ("Table 1", "2022", "summary.Google.coalescence", 1, 1, 1),
    ("Table 1", "2022", "summary.Cloudflare.server_chosen_ids", 1, 1, 1),
    ("Table 1", "2022", "summary.Facebook.server_chosen_ids", 1, 1, 1),
    ("Table 1", "2022", "summary.Google.server_chosen_ids", 0, 0, 0),
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
)]


def operands(row: Target) -> list:
    """The ``(month, name)`` pairs a row reads."""
    return list(row.target) if row.month is None else [(row.month, row.target)]


def _table6(view, certstore) -> dict:
    """Table 6's names: one fold's off-net features, with the first resend
    gaps of the same fold's one session store."""
    fold = CaptureFold({"offnet", "rto"})
    fold.feed(view.datagrams())
    add_first_gaps(fold.offnet.features, fold.sessions)
    return {
        "%s%s.%s" % (TABLE6, scores.name, measure): getattr(scores, measure)
        for scores in evaluate_classifiers(fold.offnet.features, certstore)
        for measure in TABLE6_MEASURES
    }


def measure() -> dict:
    """``{(month, name): ours}`` for every pair :data:`TARGETS` read; each
    month is simulated, classified in memory and read once."""
    names = {month: set() for month in MONTHS}
    for row in TARGETS:
        for month, name in operands(row):
            names[month].add(name)
    measured = {}
    for month, config in MONTHS.items():
        scenario = run_scenario(config)
        records = scenario.telescope.records
        view = ClassifiedView(
            *build_from_records(records, default_asdb(), default_acknowledged())
        )
        grammar = sorted(name for name in names[month] if not name.startswith(TABLE6))
        values = evaluate_metrics(grammar, view, {})
        if len(grammar) < len(names[month]):
            values.update(_table6(view, scenario.certstore))
        measured.update(((month, name), values[name]) for name in names[month])
    return measured


def ours_of(row: Target, measured: dict) -> float:
    if row.month is not None:
        return measured[row.month, row.target]
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
    return check(TARGETS, measure(), json_mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
