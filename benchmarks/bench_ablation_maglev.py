"""Ablation — Maglev table size vs. load balance and disruption.

DESIGN.md sizes the Maglev lookup table at 1021 (vs. the production 65537).
This bench quantifies the trade-off the NSDI paper describes: larger tables
buy tighter load balance and less disruption when a backend fails, at
higher build cost — and validates that our default is adequate for the
backend counts the reproduction simulates.
"""

from _harness import report

from repro.core.report import render_table
from repro.server.lb.maglev import MaglevTable, flow_key

BACKENDS = 24
TABLE_SIZES = (251, 1021, 4099, 16381)


def _imbalance(table: MaglevTable) -> float:
    loads = table.load_distribution()
    mean = sum(loads) / len(loads)
    return (max(loads) - min(loads)) / mean


def _removal_disruption(size: int) -> float:
    names = [b"b%d" % i for i in range(BACKENDS)]
    full = MaglevTable(names, table_size=size)
    reduced = MaglevTable(names[:-1], table_size=size)
    moved = 0
    total = 3000
    for port in range(total):
        key = flow_key(0x0A000001, port, 0x0A000002, 443)
        before = full.lookup(key)
        if before != BACKENDS - 1 and before != reduced.lookup(key):
            moved += 1
    return moved / total


def test_ablation_maglev(benchmark):
    def build_all():
        return {
            size: MaglevTable([b"b%d" % i for i in range(BACKENDS)], table_size=size)
            for size in TABLE_SIZES
        }

    tables = benchmark(build_all)
    rows = []
    results = {}
    for size in TABLE_SIZES:
        imbalance = _imbalance(tables[size])
        disruption = _removal_disruption(size)
        results[size] = (imbalance, disruption)
        rows.append([size, "%.3f" % imbalance, "%.3f" % disruption])
    report(
        "ablation_maglev",
        render_table(
            ["table size", "load imbalance (max-min)/mean", "removal disruption"],
            rows,
            title="Ablation: Maglev table size (%d backends; NSDI'16 §5.3"
            " shape: bigger tables -> tighter balance)" % BACKENDS,
        ),
    )

    # Bigger tables balance better...
    assert results[16381][0] < results[251][0]
    # ...and our 1021 default keeps imbalance and disruption modest.
    assert results[1021][0] < 0.5
    assert results[1021][1] < 0.20
