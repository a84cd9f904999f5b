"""Text rendering of the paper's tables for one classified capture.

``repro analyze`` and the final ``repro live`` print exactly
:func:`render_analysis`; it lives beside the analyses it calls so
benches and tests need not import the CLI to get at it.
"""

from __future__ import annotations

from repro.core.packet_mix import TABLE3_ROWS, packet_mix, top_length_signatures
from repro.core.report import render_histogram, render_table
from repro.core.scid_stats import table4
from repro.core.summary import HYPERGIANT_COLUMNS, summarize
from repro.core.timing import timing_profiles
from repro.core.versions import TABLE2_ROWS, table2

#: The paper's source-network columns (Tables 3/4 and the timing figures).
ORIGINS = ("Cloudflare", "Facebook", "Google", "Remaining")

#: Table selectors understood by ``repro analyze --tables``.
VALID_TABLES = ("1", "2", "3", "4", "rto", "lengths")


def render_analysis(capture, wanted: set) -> str:
    """Render the selected paper tables for a classified capture.

    ``capture`` is anything with ``backscatter``/``scans`` lists of
    CapturedPacket-shaped objects: the columnar
    :class:`~repro.capstore.ClassifiedView` that ``analyze`` and ``live``
    hand in, or a :class:`~repro.telescope.classify.ClassifiedCapture`
    of materialized packets — both render byte-identically, which the
    equivalence tests and ``bench_analyze`` assert.
    """
    parts: list[str] = []

    if "1" in wanted:
        summary = summarize(capture.backscatter)
        parts.append(
            render_table(
                ["Feature"] + list(HYPERGIANT_COLUMNS),
                [
                    ["Coalescence"]
                    + [summary[h].coalescence for h in HYPERGIANT_COLUMNS],
                    ["Server-chosen IDs"]
                    + [summary[h].server_chosen_ids for h in HYPERGIANT_COLUMNS],
                    ["Structured SCIDs"]
                    + [summary[h].structured_scids for h in HYPERGIANT_COLUMNS],
                    ["Initial RTO"]
                    + [summary[h].rto_label() for h in HYPERGIANT_COLUMNS],
                    ["# re-transmissions"]
                    + [summary[h].resend_label() for h in HYPERGIANT_COLUMNS],
                ],
                title="Table 1 — deployment configurations",
            )
        )
        parts.append("")
    if "2" in wanted:
        shares = table2(capture)
        parts.append(
            render_table(
                ["QUIC version", "Clients [%]", "Servers [%]"],
                [
                    [
                        bucket,
                        "%.1f" % shares["clients"].share(bucket),
                        "%.1f" % shares["servers"].share(bucket),
                    ]
                    for bucket in TABLE2_ROWS
                ],
                title="Table 2 — version adoption",
            )
        )
        parts.append("")
    if "3" in wanted:
        mix = packet_mix(capture.backscatter + capture.scans)
        parts.append(
            render_table(
                ["Packet type"] + list(ORIGINS),
                [
                    [cat] + ["%.2f" % mix.share(o, cat) for o in ORIGINS]
                    for cat in TABLE3_ROWS
                ],
                title="Table 3 — packet types per source network [%]",
            )
        )
        parts.append("")
    if "4" in wanted:
        stats = table4(capture.backscatter)
        parts.append(
            render_table(
                ["Origin AS", "SCID length", "Unique SCIDs"],
                [
                    [o, stats[o].length_summary(), stats[o].unique_count]
                    for o in ORIGINS
                    if o in stats
                ],
                title="Table 4 — SCID statistics",
            )
        )
        parts.append("")
    if "rto" in wanted:
        profiles = timing_profiles(capture.backscatter)
        parts.append(
            render_table(
                ["Origin", "sessions", "initial RTO [s]", "resends"],
                [
                    [
                        o,
                        profiles[o].sessions,
                        "%.2f" % (profiles[o].initial_rto or 0),
                        str(profiles[o].resend_range),
                    ]
                    for o in ORIGINS
                    if o in profiles
                ],
                title="Figure 3/4 — retransmission behaviour",
            )
        )
        parts.append("")
    if "lengths" in wanted:
        for origin, entries in top_length_signatures(capture.backscatter).items():
            parts.append(render_histogram(entries, width=30, title=origin))
            parts.append("")
    return "\n".join(parts)
