"""Table 1 — measured QUIC deployment configurations of hypergiants.

Paper values:

    Feature             Cloudflare  Facebook  Google
    Coalescence         yes         no        yes
    Server-chosen IDs   yes         yes       no
    Structured SCIDs    yes         yes       no
    L7 load balancers   n/a         yes       n/a
    Initial RTO         1 s         0.4 s     0.3 s
    # re-transmissions  3-6         7-9       3-6
"""

from conftest import report

from repro.core.report import render_table
from repro.core.selectors import HYPERGIANT_COLUMNS
from repro.core.summary import summarize


def test_table1_summary(benchmark, capture_2022):
    summary = benchmark.pedantic(
        summarize, args=(capture_2022.backscatter,), rounds=1, iterations=1
    )
    rows = [
        ["Coalescence"] + [summary[h].coalescence for h in HYPERGIANT_COLUMNS],
        ["Server-chosen IDs"]
        + [summary[h].server_chosen_ids for h in HYPERGIANT_COLUMNS],
        ["Structured SCIDs"]
        + [summary[h].structured_scids for h in HYPERGIANT_COLUMNS],
        ["L7 load balancers"]
        + [
            "yes" if summary[h].l7_load_balancers else "n/a"
            for h in HYPERGIANT_COLUMNS
        ],
        ["Initial RTO"] + [summary[h].rto_label() for h in HYPERGIANT_COLUMNS],
        ["# re-transmissions"]
        + [summary[h].resend_label() for h in HYPERGIANT_COLUMNS],
    ]
    report(
        "table1_summary",
        render_table(
            ["Feature"] + list(HYPERGIANT_COLUMNS),
            rows,
            title="Table 1: deployment configurations (paper: CF y/y/y/na/1s/3-6,"
            " FB n/y/y/yes/0.4s/7-9, GG y/n/n/na/0.3s/3-6)",
        ),
    )
    # The paper's qualitative matrix must hold exactly.
    assert summary["Facebook"].l7_load_balancers
    assert not summary["Google"].server_chosen_ids
    assert summary["Cloudflare"].coalescence
