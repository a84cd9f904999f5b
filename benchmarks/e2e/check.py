"""Correctness checks of the end-to-end benchmark.

No digest is committed: every check is self-consistency (same bytes on
every repetition, counts that add up) or workload shape (the mix is the
mix the workload claims), so a later correctness fix that legitimately
changes bytes needs no benchmark edit.  Each check is one op; a check
returns ``(name, ok, detail)`` and the caller counts it.
"""

from __future__ import annotations

#: Titles `repro analyze --tables 1 2 3 4 rto lengths` must print.  The
#: sixth output (lengths) is one untitled histogram per origin, checked
#: by :func:`check_render` through the origin names.
RENDER_TITLES = (
    "Table 1 — deployment configurations",
    "Table 2 — version adoption",
    "Table 3 — packet types per source network [%]",
    "Table 4 — SCID statistics",
    "Figure 3/4 — retransmission behaviour",
)
LENGTH_HISTOGRAM_ORIGINS = ("Cloudflare", "Facebook", "Google", "Remaining")


def check_same(name: str, digests) -> tuple:
    """All digests equal (pcap across repetitions, render across runs)."""
    distinct = sorted(set(digests))
    return (name, len(distinct) == 1, "%d distinct of %d: %s"
            % (len(distinct), len(digests), ", ".join(distinct)))


def check_counts(stats: dict, records_written: int) -> tuple:
    """classify --json: kept + removed == total == records the sim wrote."""
    kept_removed = stats["backscatter"] + stats["scans"] + stats["removed"]
    ok = kept_removed == stats["total_records"] == records_written
    return ("classify.counts", ok, "backscatter+scans+removed=%d total=%d written=%d"
            % (kept_removed, stats["total_records"], records_written))


def check_shape(workload: str, stats: dict) -> tuple:
    """The capture is the traffic mix the workload claims to be."""
    total = stats["total_records"] or 1
    if workload == "backscatter_flood":
        ok = stats["backscatter"] / total >= 0.95
    elif workload == "scan_sweep":
        ok = stats["backscatter"] == 0 and stats["failed_dissection"] > 0
    elif workload == "month_2022":
        ok = all(stats[key] > 0 for key in (
            "backscatter", "scans", "acknowledged_scanner", "failed_dissection"))
    else:
        return ("shape." + workload, False, "no shape rule for this workload")
    keys = ("backscatter", "scans", "acknowledged_scanner", "failed_dissection")
    return ("shape." + workload, ok,
            " ".join("%s=%d" % (key, stats[key]) for key in keys))


def check_render(render: str, backscatter: int) -> tuple:
    """All table/figure titles present; histograms iff there is backscatter."""
    lines = render.splitlines()
    missing = [title for title in RENDER_TITLES if title not in lines]
    histograms = [o for o in LENGTH_HISTOGRAM_ORIGINS if o in lines]
    ok = not missing and bool(histograms) == (backscatter > 0)
    return ("render.titles", ok, "missing=%r length histograms=%r"
            % (missing, histograms))
