"""Names, units, directions and bounds of every benchmark metric.

``BENCHMARK.json`` at the repository root is :func:`benchmark_json`
written out; ``tests/test_e2e_spec.py`` fails when the two drift apart.
"""

from __future__ import annotations

import layers
from workloads import WORKLOADS

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
#: Seconds one driver run measures for (the closed loop starts another
#: pipeline pass only while the passes so far predict it will fit): three
#: passes on the reference box, two when it is slow.  The driver's cap
#: (70 runs in 3420 s, so under 49 s a run with its set-up) allows no more.
RUN_SECONDS = 44

#: (name, unit, better, bound).  ``bound`` is the share of the parent
#: commit's median by which the metric may worsen before a change counts
#: as a regression, and the driver refuses a benchmark whose quartile
#: spread over ten seeds exceeds it.  The timings are reported at the
#: reference box's speed (run.py, "Box speed") and still spread by 3-16%
#: over ten runs on the reference sandbox (README.md, "Steadiness"), so
#: they carry the widest bound the driver allows.  capidx_bytes_per_record
#: is exact for one seed (`--aa` demands bit-identity) but follows the
#: kept-row share across seeds.
END_TO_END = (
    ("pipeline_records_per_s", "records/s", "higher", 0.25),
    ("simulate_s", "s", "lower", 0.25),
    ("index_cold_s", "s", "lower", 0.25),
    ("analyze_warm_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("capidx_bytes_per_record", "bytes", "lower", 0.06),
    ("setup_s", "s", "lower", 0.25),
)
#: `--aa` also lets analyze_warm_s differ by this many seconds: on
#: scan_sweep it is interpreter start-up, where 10% is 50 ms of jitter.
ANALYZE_ABS_BOUND_S = 0.05

STAGES = ("sim", "idx", "ana")
#: Per-stage rows that are not wrap points: imports + wrapper install,
#: the part of the child's wall outside its own clock (interpreter start
#: and exit), and the stage root's own self time (unattributed).
STAGE_EXTRAS = ("startup", "process", layers.ROOT)

COUNTERS = (
    ("sim.simnet.eventloop.events", "count", "lower"),
    ("sim.telescope.records", "count", "higher"),
    ("sim.netstack.pcap_bytes", "bytes", "lower"),
    ("idx.capstore.sidecar_bytes", "bytes", "lower"),
    ("idx.telescope.classify.kept_ratio", "ratio", "higher"),
    ("sim.quic.crypto.memo.hit_ratio", "ratio", "higher"),
    ("idx.quic.crypto.memo.hit_ratio", "ratio", "higher"),
)


def per_layer():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for stage in STAGES:
        for layer in layers.STAGE_LAYERS[stage]:
            out.append(("%s.%s.self_s" % (stage, layer), "s", "lower"))
            out.append(("%s.%s.calls" % (stage, layer), "count", "lower"))
        for extra in STAGE_EXTRAS:
            out.append(("%s.%s.self_s" % (stage, extra), "s", "lower"))
        out.append(("%s.cpu_s" % stage, "s", "lower"))
        out.append(("%s.trace.attributed_share" % stage, "ratio", "higher"))
        out.append(("%s.trace.overhead_ratio" % stage, "ratio", "lower"))
    out.extend(COUNTERS)
    return out


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer()
        ],
    }
