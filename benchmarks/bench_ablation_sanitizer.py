"""Ablation — what each sanitization stage removes (paper §3.2).

The paper removes false positives "based on the packet payload using
Wireshark dissectors" and subtracts acknowledged scanners.  This bench
re-runs classification with stages disabled to show what each contributes:

* no dissector crypto-validation → corrupted/forged Initials survive;
* no acknowledged-scanner list   → research sweeps pollute client stats.
"""

import random

from _harness import report

from repro.core.report import render_table
from repro.core.versions import table2
from repro.netstack.pcap import PcapRecord
from repro.telescope.classify import classify_capture


def _with_corruption(records, rng, share=0.05):
    """Flip one byte in a share of records (bit-rot / forged traffic)."""
    out = []
    for record in records:
        if rng.random() < share and len(record.data) > 40:
            data = bytearray(record.data)
            data[-1 - rng.randrange(16)] ^= 0xFF
            out.append(PcapRecord(record.timestamp, bytes(data)))
        else:
            out.append(record)
    return out


def test_ablation_sanitizer(benchmark, scenario_2022):
    rng = random.Random(99)
    records = _with_corruption(scenario_2022.telescope.records, rng)

    def run_all():
        full = classify_capture(
            records,
            asdb=scenario_2022.asdb,
            acknowledged=scenario_2022.acknowledged,
            validate_crypto_scans=True,
        )
        no_crypto = classify_capture(
            records,
            asdb=scenario_2022.asdb,
            acknowledged=scenario_2022.acknowledged,
            validate_crypto_scans=False,
        )
        no_acknowledged = classify_capture(
            records,
            asdb=scenario_2022.asdb,
            acknowledged=None,
            validate_crypto_scans=True,
        )
        return full, no_crypto, no_acknowledged

    full, no_crypto, no_acknowledged = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    rows = [
        [
            "full pipeline",
            full.stats.scans,
            full.stats.failed_dissection,
            "%.1f" % table2(full)["clients"].share("QUICv1"),
        ],
        [
            "no AEAD validation",
            no_crypto.stats.scans,
            no_crypto.stats.failed_dissection,
            "%.1f" % table2(no_crypto)["clients"].share("QUICv1"),
        ],
        [
            "no acknowledged list",
            no_acknowledged.stats.scans,
            no_acknowledged.stats.failed_dissection,
            "%.1f" % table2(no_acknowledged)["clients"].share("QUICv1"),
        ],
    ]
    report(
        "ablation_sanitizer",
        render_table(
            ["pipeline", "scan pkts kept", "dissector drops", "client v1 share"],
            rows,
            title="Ablation: sanitization stages (paper §3.2 — scanners"
            " with reserved versions would otherwise bias version stats)",
        ),
    )

    # Crypto validation catches corrupted Initials structural checks miss.
    assert no_crypto.stats.failed_dissection < full.stats.failed_dissection
    assert no_crypto.stats.scans > full.stats.scans
    # Without the acknowledged list, greased research probes flood the
    # client-version statistics ("others"), diluting the v1 share.
    assert no_acknowledged.stats.scans > full.stats.scans * 2
    assert (
        table2(no_acknowledged)["clients"].share("QUICv1")
        < table2(full)["clients"].share("QUICv1") * 0.6
    )
