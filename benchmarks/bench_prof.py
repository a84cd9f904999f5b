"""Profiled pipeline baseline — where does simulate wall time go?

This bench runs the scale-0.1 telescope month the way ``repro simulate
--profile`` does — :func:`~repro.simnet.shard.run_scenario` with a
metrics registry attached, so the ``simulate.build`` / ``simulate.unit`` /
``simulate.run`` spans book their wall time into the registry's stage
timers — then checks that accounting:

* **attribution** — the top-level stages must cover >= 95% of the
  measured wall time of the run (nothing significant happens outside a
  named stage);
* **coverage** — the stages ``repro progress`` and the profile table lean
  on (:data:`REQUIRED_STAGES`) must all be present with nonzero calls;
* **export** — the speedscope document passes
  :func:`~repro.obs.prof.validate_speedscope`.

The stage clock is per stage, not per packet: attribution *inside* the
run (crypto, network, engine) is ``benchmarks/e2e/run.py --trace 1``.
A plain run records the results in ``BENCH_prof.json`` at the repo root
(per-stage self times and shares, attribution ratio, and ``events`` /
``unit_weight``, the ratio ``repro.obs.progress.EVENTS_PER_WEIGHT`` is
calibrated on); every run writes the flamegraph JSON to
``benchmarks/out/prof.speedscope.json``.  Run under pytest or as a
script — ``python benchmarks/bench_prof.py --check`` exits non-zero on
any violation (the CI gate); both write ``benchmarks/out/BENCH_prof.json``
instead and leave the baseline alone.
"""

import argparse
import json
import os
import sys
import time

from _harness import environment_stamp, record, report

from repro.obs import MetricsRegistry, Observability, validate_speedscope
from repro.obs.prof import stage_rows, to_speedscope
from repro.obs.spans import PATH_SEP
from repro.simnet.shard import run_scenario
from repro.workloads.scenario import ScenarioConfig, plan_traffic_units

SPEEDSCOPE_PATH = os.path.join(
    os.path.dirname(__file__), "out", "prof.speedscope.json"
)
SIM_SCALE = 0.1
MIN_ATTRIBUTION = 0.95
#: Stages every profiled simulate books; all must be present.
REQUIRED_STAGES = ("simulate.build", "simulate.unit", "simulate.run")


def run_bench():
    """One profiled serial run; writes the speedscope, returns the results."""
    metrics = MetricsRegistry()
    obs = Observability(metrics=metrics)
    config = ScenarioConfig(seed=11).scaled(SIM_SCALE)
    start = time.perf_counter()
    scenario = run_scenario(config, obs=obs)
    wall = time.perf_counter() - start

    timers = metrics.timers
    attributed = sum(
        seconds for path, (seconds, _calls) in timers.items() if PATH_SEP not in path
    )
    doc = to_speedscope(timers, "repro simulate (scale %.2f)" % SIM_SCALE)
    os.makedirs(os.path.dirname(SPEEDSCOPE_PATH), exist_ok=True)
    with open(SPEEDSCOPE_PATH, "w") as fileobj:
        json.dump(doc, fileobj, indent=1, sort_keys=True)
        fileobj.write("\n")

    results = {
        "environment": environment_stamp(),
        "scale": SIM_SCALE,
        "wall_seconds": round(wall, 4),
        "attributed_seconds": round(attributed, 4),
        "attribution": round(attributed / wall, 4) if wall else 0.0,
        "min_attribution": MIN_ATTRIBUTION,
        "events": scenario.loop.events_processed,
        "unit_weight": sum(unit.weight for unit in plan_traffic_units(config)),
        "packets_delivered": int(metrics.counter("net.delivered", ("device",)).total()),
        "speedscope": os.path.relpath(
            SPEEDSCOPE_PATH, os.path.join(os.path.dirname(__file__), os.pardir)
        ),
        "speedscope_problems": validate_speedscope(doc),
        "stages": {
            row["stage"]: {
                "seconds": round(row["seconds"], 6),
                "self_seconds": round(row["self_seconds"], 6),
                "share": round(row["share"], 4),
                "calls": row["calls"],
            }
            for row in stage_rows(timers)
        },
    }
    return results


def _render(results):
    lines = [
        "Pipeline profile (scale %.2f): %.3fs wall, %.3fs attributed (%.1f%%), "
        "%d events / %d unit weight"
        % (
            results["scale"],
            results["wall_seconds"],
            results["attributed_seconds"],
            100 * results["attribution"],
            results["events"],
            results["unit_weight"],
        )
    ]
    ranked = sorted(
        results["stages"].items(), key=lambda kv: -kv[1]["self_seconds"]
    )
    for name, entry in ranked:
        lines.append(
            "  %-30s %8.4fs  %5.1f%%  %8d calls"
            % (name, entry["self_seconds"], 100 * entry["share"], entry["calls"])
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
    calls = {}
    for path, entry in results["stages"].items():
        stage = path.rsplit(PATH_SEP, 1)[-1]
        calls[stage] = calls.get(stage, 0) + entry["calls"]
    for stage in REQUIRED_STAGES:
        if not calls.get(stage):
            failures.append("required stage %r missing from the profile" % stage)
    for problem in results["speedscope_problems"]:
        failures.append("speedscope export invalid: %s" % problem)
    return failures


def test_prof_baseline(benchmark):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    record("prof", results, check=True)
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
    record("prof", results, args.check)
    print(_render(results))
    failures = _check(results)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
