#!/usr/bin/env python3
"""A full telescope workflow, the way the paper runs it.

1. simulate a measurement month and write the capture to a standard pcap;
2. read the pcap back (the analysis never touches simulator internals);
3. classify and sanitize;
4. print version adoption (Table 2 style), the packet-type mix (Table 3
   style), and SCID length statistics (Table 4 style).

Run:  python examples/telescope_month.py [output.pcap]
"""

import io
import sys

from repro.core.packet_mix import packet_mix, top_length_signatures
from repro.core.report import render_histogram, render_table
from repro.core.scid_stats import table4
from repro.core.selectors import ORIGINS, TABLE2_ROWS, TABLE3_ROWS
from repro.core.versions import table2
from repro.netstack.pcap import PcapReader
from repro.telescope.classify import classify_capture
from repro.workloads.scenario import ScenarioConfig, build_scenario


def main() -> None:
    scenario = build_scenario(ScenarioConfig().scaled(0.25))
    scenario.run()

    # --- persist and reload: the pipeline consumes plain pcap ------------
    if len(sys.argv) > 1:
        with open(sys.argv[1], "wb") as fileobj:
            scenario.telescope.write_pcap(fileobj)
        with open(sys.argv[1], "rb") as fileobj:
            records = list(PcapReader(fileobj))
        print("Wrote and re-read %s (%d records)" % (sys.argv[1], len(records)))
    else:
        buf = io.BytesIO()
        scenario.telescope.write_pcap(buf)
        buf.seek(0)
        records = list(PcapReader(buf))

    capture = classify_capture(
        records, asdb=scenario.asdb, acknowledged=scenario.acknowledged
    )
    print(
        "%d backscatter, %d scans after sanitization (removed %.0f%%)\n"
        % (
            capture.stats.backscatter,
            capture.stats.scans,
            100 * capture.stats.removed_share,
        )
    )

    # --- Table 2 ----------------------------------------------------------
    shares = table2(capture)
    print(
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
            title="Version adoption (sessions counted once)",
        )
    )
    print()

    # --- Table 3 ----------------------------------------------------------
    mix = packet_mix(capture.backscatter + capture.scans)
    print(
        render_table(
            ["Packet type"] + list(ORIGINS),
            [
                [cat] + ["%.2f" % mix.share(o, cat) for o in ORIGINS]
                for cat in TABLE3_ROWS
            ],
            title="Long-header packet types per source network [%]",
        )
    )
    print()

    # --- Table 4 ----------------------------------------------------------
    stats = table4(capture.backscatter)
    print(
        render_table(
            ["Origin AS", "SCID length", "Unique SCIDs"],
            [
                [o, stats[o].length_summary(), stats[o].unique_count]
                for o in ORIGINS
                if o in stats
            ],
            title="SCID statistics",
        )
    )
    print()

    # --- Figure 7 flavour ---------------------------------------------------
    tops = top_length_signatures(capture.backscatter, top=5)
    for origin in ("Facebook", "Google"):
        print(
            render_histogram(
                tops.get(origin, []),
                width=30,
                title="%s packet-length combinations" % origin,
            )
        )
        print()


if __name__ == "__main__":
    main()
