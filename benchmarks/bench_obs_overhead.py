"""Observability overhead — disabled path <5% of seed, sampled path <10%.

The seed event pump was a bare ``while loop.step(): pass``; the instrumented
``EventLoop.run`` adds one ``obs.enabled`` dispatch per run plus a per-event
budget check.  This bench drives the same scale-0.1 telescope month through
both pumps and asserts:

* the disabled-observability path costs <5% vs the seed pump;
* the *always-on* configurations — ``SamplingTracer`` (every 64th event
  per type) and ``RingBufferTracer`` (last 64k events, no serialization) —
  cost <10%, cheap enough to leave on at scale 1.0.

A live-``JsonlTracer`` arm quantifies what full tracing still costs, and
an ``obs_prof`` arm measures the opt-in sampling profiler (``--profile``;
recorded, not gated — it is never on by default).  Every arm must process
the exact seed event count: observability may cost time but can never
change the simulation.  Results land in ``BENCH_obs.json`` at the repo
root (pkts/sec simulated, overhead ratios) as the perf baseline for
later PRs.

Run under pytest (``pytest benchmarks/bench_obs_overhead.py``) or as a
script — ``python benchmarks/bench_obs_overhead.py --check`` re-measures
and exits non-zero on threshold violations (the CI gate).
"""

import argparse
import io
import json
import os
import sys
import time

from _harness import environment_stamp

from repro.obs import (
    JsonlTracer,
    MetricsRegistry,
    Observability,
    Profiler,
    RingBufferTracer,
    SamplingTracer,
)
from repro.workloads.scenario import ScenarioConfig, build_scenario

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_obs.json")
SIM_SCALE = 0.1
ROUNDS = 3
MAX_OVERHEAD = 0.05
#: Budget for the always-on sinks (sampled / ring buffer) vs the seed pump.
MAX_OVERHEAD_SAMPLED = 0.10
SAMPLE_EVERY = 64
RING_CAPACITY = 65536


def _build(obs=None):
    return build_scenario(ScenarioConfig(seed=11).scaled(SIM_SCALE), obs=obs)


def _seed_pump(loop):
    """Replica of the seed's ``run()`` hot loop (no obs dispatch)."""
    while loop.step():
        pass


def _measure(pump_via_run, obs_factory=None):
    """One timed run: (elapsed seconds, events processed, pkts delivered)."""
    obs = obs_factory() if obs_factory is not None else None
    scenario = _build(obs)
    start = time.perf_counter()
    if pump_via_run:
        scenario.run()
    else:
        _seed_pump(scenario.loop)
    elapsed = time.perf_counter() - start
    events = scenario.loop.events_processed
    delivered = scenario.network.stats.delivered
    if obs is not None:
        obs.close()
    return elapsed, events, delivered


def _arm_summary(samples):
    """Best-round wall time and throughput for one configuration."""
    elapsed, events, delivered = min(samples)
    return {
        "seconds": round(elapsed, 4),
        "events": events,
        "packets_delivered": delivered,
        "events_per_sec": round(events / elapsed, 1),
        "pkts_per_sec": round(delivered / elapsed, 1),
    }


def _traced_obs():
    return Observability(
        tracer=JsonlTracer(io.StringIO()), metrics=MetricsRegistry()
    )


def _sampled_obs():
    return Observability(
        tracer=SamplingTracer(JsonlTracer(io.StringIO()), every=SAMPLE_EVERY),
        metrics=MetricsRegistry(),
    )


def _ring_obs():
    return Observability(
        tracer=RingBufferTracer(capacity=RING_CAPACITY), metrics=MetricsRegistry()
    )


def _prof_obs():
    metrics = MetricsRegistry()
    return Observability(
        metrics=metrics, prof=Profiler(SAMPLE_EVERY, metrics=metrics)
    )


#: Bench arms in measurement order: key -> (pump_via_run, obs factory).
ARMS = {
    "seed_pump": (False, None),
    "obs_disabled": (True, None),
    "obs_traced": (True, _traced_obs),
    "obs_sampled": (True, _sampled_obs),
    "obs_ring": (True, _ring_obs),
    "obs_prof": (True, _prof_obs),
}


def run_bench():
    """Measure every arm, persist ``BENCH_obs.json``, return the results.

    Rounds are *interleaved* (seed, disabled, traced, … per round) and each
    overhead is the best seed-paired ratio across rounds, so slow drift in
    machine load (CPU bursting, noisy neighbours) cancels out instead of
    penalizing whichever arm happened to run last.
    """
    samples = {key: [] for key in ARMS}
    for _ in range(ROUNDS):
        for key, (pump_via_run, obs_factory) in ARMS.items():
            samples[key].append(_measure(pump_via_run, obs_factory))

    def overhead(arm_key):
        ratios = [
            arm[0] / seed[0]
            for arm, seed in zip(samples[arm_key], samples["seed_pump"])
        ]
        return round(min(ratios) - 1.0, 4)

    results = {
        "environment": environment_stamp(),
        "scale": SIM_SCALE,
        "rounds": ROUNDS,
        "overhead_disabled": overhead("obs_disabled"),
        "overhead_traced": overhead("obs_traced"),
        "overhead_sampled": overhead("obs_sampled"),
        "overhead_ring": overhead("obs_ring"),
        "overhead_prof": overhead("obs_prof"),
        "sample_every": SAMPLE_EVERY,
        "ring_capacity": RING_CAPACITY,
        "threshold": MAX_OVERHEAD,
        "threshold_sampled": MAX_OVERHEAD_SAMPLED,
    }
    for key in ARMS:
        results[key] = _arm_summary(samples[key])
    with open(BENCH_PATH, "w") as fileobj:
        json.dump(results, fileobj, indent=2, sort_keys=True)
        fileobj.write("\n")
    return results


def _render(results):
    lines = [
        "Observability overhead (scale %.2f, best of %d):"
        % (results["scale"], results["rounds"])
    ]
    for label, arm_key, overhead_key in (
        ("seed pump", "seed_pump", None),
        ("obs disabled", "obs_disabled", "overhead_disabled"),
        ("obs traced", "obs_traced", "overhead_traced"),
        ("obs sampled", "obs_sampled", "overhead_sampled"),
        ("obs ring", "obs_ring", "overhead_ring"),
        ("obs prof", "obs_prof", "overhead_prof"),
    ):
        arm = results[arm_key]
        suffix = (
            "  (%+.1f%%)" % (100 * results[overhead_key]) if overhead_key else ""
        )
        lines.append(
            "  %-13s %7.3fs  %10.0f ev/s%s"
            % (label, arm["seconds"], arm["events_per_sec"], suffix)
        )
    return "\n".join(lines)


def _check(results):
    """Threshold violations as human-readable strings (empty = pass)."""
    failures = []
    for arm_key in (
        "obs_disabled",
        "obs_traced",
        "obs_sampled",
        "obs_ring",
        "obs_prof",
    ):
        if results[arm_key]["events"] != results["seed_pump"]["events"]:
            failures.append("%s changed the simulation (event count)" % arm_key)
    if results["overhead_disabled"] >= MAX_OVERHEAD:
        failures.append(
            "NullTracer path costs %.1f%% vs seed (budget %.0f%%)"
            % (100 * results["overhead_disabled"], 100 * MAX_OVERHEAD)
        )
    for key, label in (("overhead_sampled", "sampled"), ("overhead_ring", "ring")):
        if results[key] >= MAX_OVERHEAD_SAMPLED:
            failures.append(
                "%s tracing costs %.1f%% vs seed (always-on budget %.0f%%)"
                % (label, 100 * results[key], 100 * MAX_OVERHEAD_SAMPLED)
            )
    return failures


def test_obs_overhead_within_budgets(benchmark):
    from conftest import report

    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    report("obs_overhead", _render(results))
    failures = _check(results)
    assert not failures, "; ".join(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any overhead budget is exceeded (CI gate)",
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
