"""Analysis-plane scaling — cold build vs warm sidecar load, serial vs parallel.

Times the ``repro analyze`` read side over one simulated month, recording
the results in ``BENCH_analyze.json`` at the repo root:

* **cold** — streaming dissection into the columnar table (workers=1),
  writing the ``.capidx`` sidecar;
* **warm** — deserializing the sidecar instead of dissecting (the state
  every ``analyze`` after the first runs in);
* **render** — folding the warm view into every analysis table, which
  is the rest of what a warm ``analyze`` waits for;
* **parallel** — a cold row-group build across ``min(4, cpus)`` worker
  processes (workers beyond the cores add scheduling noise, not speed).

Cold and parallel builds alternate for ``ROUNDS`` rounds, as do warm
loads and renders, and each arm reports its fastest: the work is
deterministic, so the minimum is the work and everything above it is
the box.

Two classes of assertion, deliberately separated:

* **Parity** — always checked, on any machine: every arm must render the
  complete set of analysis tables byte-identically, and a warm
  ``analyze`` — sidecar load *plus* render — must be faster than the
  cold build alone (it skips UDP decode, QUIC dissection, and AEAD
  validation entirely; a load by itself is a file read and would beat
  any dissection).
* **Speedup** — the parallel arm must beat serial only where the machine
  can physically deliver it (``cpus >= 2`` and scale >= 0.5); on a
  single-core container the honest ~1x number is recorded, not asserted.

Run under pytest (``pytest benchmarks/bench_analyze.py``) or as a script —
``python benchmarks/bench_analyze.py --check`` re-measures and exits
non-zero on violations.  ``--scale`` overrides the default bench scale
(0.5; the REPRO_BENCH_SCALE env var is honoured too).
"""

import argparse
import json
import os
import sys
import tempfile
import time

from _harness import cpus as _cpus, environment_stamp

from repro.capstore import load_or_build, sidecar_path
from repro.cli import VALID_TABLES, main as cli_main, render_analysis

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_analyze.json")
DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
SEED = 20220101
PARALLEL_WORKERS = min(4, _cpus())
ROUNDS = 3
MIN_PARALLEL_SPEEDUP = 1.3
#: Parallel speedup is only asserted at or above this scale on multi-core.
MIN_SCALE_FOR_SPEEDUP = 0.5
ALL_TABLES = set(VALID_TABLES)


def run_bench(scale=DEFAULT_SCALE):
    """Measure cold/warm/parallel analyze arms, persist ``BENCH_analyze.json``."""
    cpus = _cpus()
    results = {
        "environment": environment_stamp(),
        "scale": scale,
        "seed": SEED,
        "cpus": cpus,
        "parallel_workers": PARALLEL_WORKERS,
        "rounds": ROUNDS,
        "arms": {},
        "parity": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        pcap = os.path.join(tmp, "month.pcap")
        code = cli_main(
            ["simulate", pcap, "--scale", str(scale), "--seed", str(SEED)]
        )
        assert code == 0, "simulate failed"

        # One sample of either arm is mostly the neighbours' load (five
        # single-shot runs clocked the same cold build at 0.93-1.68 s).
        cold_seconds = parallel_seconds = float("inf")
        for _ in range(ROUNDS):
            if os.path.exists(sidecar_path(pcap)):
                os.unlink(sidecar_path(pcap))
            start = time.perf_counter()
            cold_view, cold_hit = load_or_build(pcap, workers=1)
            cold_seconds = min(cold_seconds, time.perf_counter() - start)

            start = time.perf_counter()
            parallel_view, parallel_hit = load_or_build(
                pcap, workers=PARALLEL_WORKERS, use_cache=False
            )
            parallel_seconds = min(parallel_seconds, time.perf_counter() - start)
        cold_render = render_analysis(cold_view, ALL_TABLES)

        warm_seconds = render_seconds = float("inf")
        for _ in range(ROUNDS):
            start = time.perf_counter()
            warm_view, warm_hit = load_or_build(pcap, workers=1)
            warm_seconds = min(warm_seconds, time.perf_counter() - start)

            start = time.perf_counter()
            warm_render = render_analysis(warm_view, ALL_TABLES)
            render_seconds = min(render_seconds, time.perf_counter() - start)

        rows = cold_view.table.num_rows
        results["arms"] = {
            "cold": {"seconds": round(cold_seconds, 3), "cache_hit": cold_hit},
            "warm": {
                "seconds": round(warm_seconds, 3),
                "cache_hit": warm_hit,
                "speedup_vs_cold": round(cold_seconds / max(warm_seconds, 1e-9), 3),
            },
            "render": {
                "seconds": round(render_seconds, 3),
                "rows_per_s": round(rows / max(render_seconds, 1e-9)),
            },
            "parallel": {
                "seconds": round(parallel_seconds, 3),
                "cache_hit": parallel_hit,
                "speedup_vs_cold": round(
                    cold_seconds / max(parallel_seconds, 1e-9), 3
                ),
            },
        }
        results["rows"] = rows
        results["parity"] = {
            "cold_cache_was_miss": not cold_hit,
            "warm_cache_was_hit": warm_hit,
            "parallel_cache_was_miss": not parallel_hit,
            "warm_tables_identical": warm_render == cold_render,
            "parallel_tables_identical": render_analysis(parallel_view, ALL_TABLES)
            == cold_render,
            "warm_faster_than_cold": warm_seconds + render_seconds < cold_seconds,
        }

    with open(BENCH_PATH, "w") as fileobj:
        json.dump(results, fileobj, indent=2, sort_keys=True)
        fileobj.write("\n")
    return results


def _render(results):
    arms = results["arms"]
    lines = [
        "Analysis plane (scale %.2f, %d rows, %d cpu%s):"
        % (
            results["scale"],
            results["rows"],
            results["cpus"],
            "" if results["cpus"] == 1 else "s",
        ),
        "  %-22s %8.3fs" % ("cold build (1w)", arms["cold"]["seconds"]),
        "  %-22s %8.3fs  (%.1fx)"
        % (
            "warm .capidx load",
            arms["warm"]["seconds"],
            arms["warm"]["speedup_vs_cold"],
        ),
        "  %-22s %8.3fs  (%d rows/s; load + render %.2fx)"
        % (
            "render, all tables",
            arms["render"]["seconds"],
            arms["render"]["rows_per_s"],
            arms["cold"]["seconds"]
            / max(arms["warm"]["seconds"] + arms["render"]["seconds"], 1e-9),
        ),
        "  %-22s %8.3fs  (%.2fx)"
        % (
            "cold build (%dw)" % results["parallel_workers"],
            arms["parallel"]["seconds"],
            arms["parallel"]["speedup_vs_cold"],
        ),
    ]
    if results["cpus"] < 2:
        lines.append("  (single CPU: parallel speedup not asserted, parity only)")
    return "\n".join(lines)


def _check(results):
    """Violations as human-readable strings (empty = pass)."""
    failures = []
    for name, held in results["parity"].items():
        if not held:
            failures.append("parity violated: %s" % name)
    speedup_applies = (
        results["cpus"] >= 2 and results["scale"] >= MIN_SCALE_FOR_SPEEDUP
    )
    parallel = results["arms"]["parallel"]
    if speedup_applies and parallel["speedup_vs_cold"] < MIN_PARALLEL_SPEEDUP:
        failures.append(
            "%d-worker build reached %.2fx (< %.1fx) on %d cpus"
            % (
                results["parallel_workers"],
                parallel["speedup_vs_cold"],
                MIN_PARALLEL_SPEEDUP,
                results["cpus"],
            )
        )
    return failures


def test_analyze_scaling(benchmark):
    from conftest import report

    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    report("analyze_scaling", _render(results))
    failures = _check(results)
    assert not failures, "; ".join(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on parity/speedup violations (CI gate)",
    )
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE, help="scenario scale"
    )
    args = parser.parse_args(argv)
    results = run_bench(scale=args.scale)
    print(_render(results))
    failures = _check(results)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
