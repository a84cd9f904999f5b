"""Table 4 — SCID lengths and unique-SCID counts per origin AS.

Paper values:

    Origin AS   SCID length [bytes]   Unique SCIDs
    Cloudflare  20                    170
    Facebook    8                     63,615
    Google      8                     111,825
    Remaining   8 (4, 12, 14, 20)     29,294 (162)

We run at ~1/20 traffic scale; the *ordering* and the length fingerprints
are the reproduction targets.
"""

from conftest import report

from repro.core.report import render_table
from repro.core.scid_stats import table4
from repro.core.selectors import ORIGINS


def test_table4_scid_lengths(benchmark, capture_2022):
    stats = benchmark.pedantic(
        table4, args=(capture_2022.backscatter,), rounds=1, iterations=1
    )
    rows = [
        [origin, stats[origin].length_summary(), stats[origin].unique_count]
        for origin in ORIGINS
    ]
    report(
        "table4_scid_lengths",
        render_table(
            ["Origin AS", "SCID length [Bytes]", "Unique SCIDs [#]"],
            rows,
            title="Table 4: SCIDs per origin AS (paper: CF 20 B/170;"
            " FB 8 B/63615; GG 8 B/111825; Remaining 8 B/29294)",
        ),
    )
    assert stats["Cloudflare"].dominant_length == 20
    assert stats["Facebook"].dominant_length == 8
    assert stats["Google"].dominant_length == 8
    # Ordering: Google > Facebook > Remaining > Cloudflare.
    assert (
        stats["Google"].unique_count
        > stats["Facebook"].unique_count
        > stats["Cloudflare"].unique_count
    )
    assert stats["Remaining"].unique_count > stats["Cloudflare"].unique_count
