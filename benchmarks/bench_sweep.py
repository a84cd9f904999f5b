"""Sweep plane — per-cell cache effectiveness on the demo grid.

Three arms over ``examples/sweep_demo.json`` (a 2x2x3 grid, 12 cells),
recorded by a plain run in ``BENCH_sweep.json`` at the repo root:

* **cold** — every cell simulated, captured, ``.capidx``-indexed and
  evaluated from scratch;
* **warm** — the same sweep re-run against the populated output
  directory: no cell simulates, every evaluation comes off the sidecar.
  Must be at least ``MIN_WARM_SPEEDUP`` (5x) faster than cold, and must
  reproduce ``results.csv`` byte for byte;
* **extend** — one axis grows by one value (``loss_rate`` gains a third
  point, 6 new cells): only the new cells may simulate, the original 12
  must come back cached.

The parity entries are asserted on any machine; the warm-speedup floor
holds comfortably because a warm cell is two JSON reads plus a column
load while a cold cell is a full discrete-event month.

Run under pytest (``pytest benchmarks/bench_sweep.py``) or as a script —
``python benchmarks/bench_sweep.py --check`` re-measures and exits
non-zero on violations (the CI gate); both write
``benchmarks/out/BENCH_sweep.json`` instead and leave the baseline
alone.
"""

import argparse
import copy
import json
import os
import sys
import tempfile
import time

from _harness import environment_stamp, record, report

from repro.obs import MetricsRegistry, Observability
from repro.sweep.runner import run_sweep
from repro.sweep.spec import spec_from_dict

SPEC_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "sweep_demo.json"
)
MIN_WARM_SPEEDUP = 5.0
#: The axis the extend arm grows, and the value it appends.
EXTEND_AXIS = "loss_rate"
EXTEND_VALUE = 0.3


def _run(doc, outdir):
    """One sweep pass; returns (result, capstore.cache counts, seconds)."""
    registry = MetricsRegistry()
    start = time.perf_counter()
    result = run_sweep(
        spec_from_dict(doc), outdir, obs=Observability(metrics=registry)
    )
    seconds = time.perf_counter() - start
    body = registry.snapshot()["counters"].get("capstore.cache", {})
    counts = {key: int(value) for key, value in body.get("values", {}).items()}
    return result, counts, seconds


def run_bench(spec_path=SPEC_PATH):
    """Measure all three arms and return the results."""
    with open(spec_path) as fileobj:
        doc = json.load(fileobj)
    results = {
        "environment": environment_stamp(),
        "spec": os.path.basename(spec_path),
        "arms": {},
        "parity": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "demo.sweep")

        cold, _counts, cold_seconds = _run(doc, outdir)
        cold_csv = open(cold.csv_path, "rb").read()
        results["cells"] = len(cold.cells)
        results["parity"]["cold_all_simulated"] = cold.simulated == len(cold.cells)

        warm, warm_counts, warm_seconds = _run(doc, outdir)
        results["parity"]["warm_all_cached"] = warm.cached == len(cold.cells)
        results["parity"]["warm_csv_identical"] = (
            open(warm.csv_path, "rb").read() == cold_csv
        )
        results["parity"]["warm_all_sidecar_hits"] = warm_counts == {
            "hit": len(cold.cells)
        }

        extended_doc = copy.deepcopy(doc)
        extended_doc["axes"][EXTEND_AXIS] = doc["axes"][EXTEND_AXIS] + [
            EXTEND_VALUE
        ]
        new_cells = len(cold.cells) // len(doc["axes"][EXTEND_AXIS])
        extend, extend_counts, extend_seconds = _run(extended_doc, outdir)
        results["parity"]["extend_reuses_old_cells"] = (
            extend.cached == len(cold.cells)
        )
        results["parity"]["extend_simulates_only_new"] = (
            extend.simulated == new_cells
        )
        results["parity"]["extend_sidecar_hits"] = (
            extend_counts.get("hit", 0) == len(cold.cells)
        )

        results["arms"] = {
            "cold": {"seconds": round(cold_seconds, 3)},
            "warm": {
                "seconds": round(warm_seconds, 3),
                "speedup_vs_cold": round(
                    cold_seconds / max(warm_seconds, 1e-9), 2
                ),
            },
            "extend": {
                "seconds": round(extend_seconds, 3),
                "new_cells": new_cells,
            },
        }

    return results


def _render(results):
    arms = results["arms"]
    return "\n".join(
        [
            "Sweep plane (%s, %d cells):"
            % (results["spec"], results["cells"]),
            "  %-24s %8.3fs" % ("cold sweep", arms["cold"]["seconds"]),
            "  %-24s %8.3fs  (%.1fx)"
            % (
                "warm re-run",
                arms["warm"]["seconds"],
                arms["warm"]["speedup_vs_cold"],
            ),
            "  %-24s %8.3fs  (%d new cells)"
            % (
                "one-axis extension",
                arms["extend"]["seconds"],
                arms["extend"]["new_cells"],
            ),
        ]
    )


def _check(results):
    """Violations as human-readable strings (empty = pass)."""
    failures = []
    for name, held in results["parity"].items():
        if not held:
            failures.append("parity violated: %s" % name)
    speedup = results["arms"]["warm"]["speedup_vs_cold"]
    if speedup < MIN_WARM_SPEEDUP:
        failures.append(
            "warm sweep reached %.2fx (< %.1fx) over cold"
            % (speedup, MIN_WARM_SPEEDUP)
        )
    return failures


def test_sweep_cache(benchmark):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    record("sweep", results, check=True)
    report("sweep_cache", _render(results))
    failures = _check(results)
    assert not failures, "; ".join(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on parity/speedup violations (CI gate)",
    )
    parser.add_argument("--spec", default=SPEC_PATH, help="grid spec to sweep")
    args = parser.parse_args(argv)
    results = run_bench(spec_path=args.spec)
    record("sweep", results, args.check)
    print(_render(results))
    failures = _check(results)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
