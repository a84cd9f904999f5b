"""Profiled pipeline baseline — where does simulate wall time go?

The ROADMAP's "vectorize the per-packet hot path" item needs a recorded
baseline of per-stage time shares before any optimization PR can claim a
win.  This bench runs the scale-0.1 telescope month exactly the way
``repro simulate --profile`` does — a :class:`~repro.obs.prof.Profiler`
threaded through the scenario with ``simulate.build``/``simulate.run``
spans around the phases — then checks the profiler's own accounting:

* **attribution** — the stage tree's estimated wall seconds must cover
  >= 95% of the measured wall time of the profiled run (nothing
  significant happens outside a named stage);
* **coverage** — the hot stages the vectorization work will target
  (``engine.flight``, ``engine.keys``, ``engine.aead``, ``net.transmit``)
  must all be present with nonzero attributed time;
* **export** — the speedscope document passes
  :func:`~repro.obs.prof.validate_speedscope`.

Results land in ``BENCH_prof.json`` at the repo root (per-stage self-time
shares, attribution ratio) and the flamegraph JSON in
``benchmarks/out/prof.speedscope.json``.  Run under pytest or as a script
— ``python benchmarks/bench_prof.py --check`` exits non-zero on any
violation (the CI gate).
"""

import argparse
import json
import os
import sys
import time

from _harness import environment_stamp

from repro.obs import MetricsRegistry, Observability, Profiler, validate_speedscope
from repro.workloads.scenario import ScenarioConfig, build_scenario

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_prof.json")
SPEEDSCOPE_PATH = os.path.join(
    os.path.dirname(__file__), "out", "prof.speedscope.json"
)
SIM_SCALE = 0.1
PROF_EVERY = 64
MIN_ATTRIBUTION = 0.95
#: Stages the vectorization roadmap item targets; all must be attributed.
REQUIRED_STAGES = ("engine.flight", "engine.keys", "engine.aead", "net.transmit")


def run_bench():
    """One profiled serial run; persists BENCH_prof.json + speedscope."""
    metrics = MetricsRegistry()
    prof = Profiler(PROF_EVERY, metrics=metrics)
    obs = Observability(metrics=metrics, prof=prof)
    config = ScenarioConfig(seed=11).scaled(SIM_SCALE)
    start = time.perf_counter()
    with obs.span("simulate.build", local=True):
        scenario = build_scenario(config, obs=obs)
    with obs.span("simulate.run", local=True):
        scenario.run()
    wall = time.perf_counter() - start

    attributed = prof.total_estimate()
    doc = prof.to_speedscope("repro simulate (scale %.2f)" % SIM_SCALE)
    os.makedirs(os.path.dirname(SPEEDSCOPE_PATH), exist_ok=True)
    with open(SPEEDSCOPE_PATH, "w") as fileobj:
        json.dump(doc, fileobj, indent=1, sort_keys=True)
        fileobj.write("\n")

    totals = prof.stage_totals()
    shares = prof.stage_shares()
    results = {
        "environment": environment_stamp(),
        "scale": SIM_SCALE,
        "prof_every": PROF_EVERY,
        "wall_seconds": round(wall, 4),
        "attributed_seconds": round(attributed, 4),
        "attribution": round(attributed / wall, 4) if wall else 0.0,
        "min_attribution": MIN_ATTRIBUTION,
        "events": scenario.loop.events_processed,
        "packets_delivered": scenario.network.stats.delivered,
        "speedscope": os.path.relpath(
            SPEEDSCOPE_PATH, os.path.join(os.path.dirname(__file__), os.pardir)
        ),
        "speedscope_problems": validate_speedscope(doc),
        "stages": {
            name: {
                "self_seconds": round(entry["self_seconds"], 6),
                "share": round(shares.get(name, 0.0), 4),
                "calls": entry["calls"],
                "packets": entry["packets"],
            }
            for name, entry in sorted(totals.items())
        },
    }
    with open(BENCH_PATH, "w") as fileobj:
        json.dump(results, fileobj, indent=2, sort_keys=True)
        fileobj.write("\n")
    return results


def _render(results):
    lines = [
        "Pipeline profile (scale %.2f, sampled every %d): %.3fs wall, "
        "%.3fs attributed (%.1f%%)"
        % (
            results["scale"],
            results["prof_every"],
            results["wall_seconds"],
            results["attributed_seconds"],
            100 * results["attribution"],
        )
    ]
    ranked = sorted(
        results["stages"].items(), key=lambda kv: -kv[1]["self_seconds"]
    )
    for name, entry in ranked:
        lines.append(
            "  %-18s %8.4fs  %5.1f%%  %8d calls  %8d pkts"
            % (
                name,
                entry["self_seconds"],
                100 * entry["share"],
                entry["calls"],
                entry["packets"],
            )
        )
    return "\n".join(lines)


def _check(results):
    """Violations as human-readable strings (empty = pass)."""
    failures = []
    if results["attribution"] < MIN_ATTRIBUTION:
        failures.append(
            "profiler attributes only %.1f%% of wall time (need >= %.0f%%)"
            % (100 * results["attribution"], 100 * MIN_ATTRIBUTION)
        )
    for stage in REQUIRED_STAGES:
        entry = results["stages"].get(stage)
        if entry is None or entry["calls"] == 0:
            failures.append("required stage %r missing from the profile" % stage)
    for problem in results["speedscope_problems"]:
        failures.append("speedscope export invalid: %s" % problem)
    return failures


def test_prof_baseline(benchmark):
    from conftest import report

    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    report("prof_baseline", _render(results))
    failures = _check(results)
    assert not failures, "; ".join(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on attribution/coverage/schema violations (CI gate)",
    )
    args = parser.parse_args(argv)
    results = run_bench()
    print(_render(results))
    failures = _check(results)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
