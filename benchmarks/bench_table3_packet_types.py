"""Table 3 — long-header packet types per source network.

Paper values (percent of packets from each source network):

    Type        Cloudflare  Facebook  Google  Remaining
    Initial         56.0      47.7     23.2     47.0
    Handshake       40.7      52.3     23.7     43.8
    0-RTT            0.0       0.0      0.3      0.2
    Retry            0.0       0.0      0.0      0.003
    Coalesced        3.3       0.0     52.7      9.1
"""

from conftest import report

from repro.core.packet_mix import packet_mix
from repro.core.report import render_table
from repro.core.selectors import ORIGINS, TABLE3_ROWS


def test_table3_packet_types(benchmark, capture_2022):
    packets = capture_2022.backscatter + capture_2022.scans
    mix = benchmark.pedantic(packet_mix, args=(packets,), rounds=1, iterations=1)
    rows = [
        [category] + ["%.3f" % mix.share(origin, category) for origin in ORIGINS]
        for category in TABLE3_ROWS
    ]
    report(
        "table3_packet_types",
        render_table(
            ["QUIC packet type"] + list(ORIGINS),
            rows,
            title="Table 3: packet types per source network"
            " (paper: only Google predominantly coalesces, 52.7%)",
        ),
    )
    assert mix.coalescence_share("Google") > 30
    assert mix.coalescence_share("Facebook") == 0.0
    assert 0 < mix.coalescence_share("Cloudflare") < 15
    assert mix.share("Google", "0-RTT") > 0
    assert mix.share("Facebook", "0-RTT") == 0.0
