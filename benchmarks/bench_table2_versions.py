"""Table 2 — QUIC versions used by clients and servers, 2021 vs 2022.

Paper values (sessions, percent):

                      Clients          Servers
    Version           2021   2022      2021   2022
    QUICv1             0.1   77.7       -     48.1
    Facebook mvfst 2  17.5   21.2      18.8   33.2
    draft-29          30.2    0.5      51.9    0.9
    others             4.1    0.1       8.8   11.4
"""

from conftest import report

from repro.core.report import render_table
from repro.core.selectors import TABLE2_ROWS
from repro.core.versions import table2, table2_rows


def test_table2_versions(benchmark, capture_2021, capture_2022):
    rows = benchmark.pedantic(
        table2_rows,
        args=({2021: capture_2021, 2022: capture_2022},),
        rounds=1,
        iterations=1,
    )
    table = [
        [
            bucket,
            "%.1f" % clients[2021],
            "%.1f" % clients[2022],
            "%.1f" % servers[2021],
            "%.1f" % servers[2022],
        ]
        for bucket, clients, servers in rows
    ]
    report(
        "table2_versions",
        render_table(
            ["QUIC version", "Clients'21", "Clients'22", "Servers'21", "Servers'22"],
            table,
            title="Table 2: version adoption by sessions"
            " (paper '22: clients v1 77.7/mvfst2 21.2; servers v1 48.1/mvfst2 33.2)",
        ),
    )
    new = table2(capture_2022)
    old = table2(capture_2021)
    # Rapid v1 adoption: dominant in 2022, absent in 2021.
    assert new["clients"].share("QUICv1") > 60
    assert old["clients"].share("QUICv1") < 5
    assert old["servers"].share("draft-29") > new["servers"].share("draft-29")
