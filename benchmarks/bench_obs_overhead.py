"""Observability overhead — disabled path <5% of seed, always-on sinks in µs.

The seed event pump was a bare ``while loop.step(): pass``; the instrumented
``EventLoop.run`` adds one ``obs.enabled`` dispatch per run plus a per-event
budget check.  This bench drives the same scale-0.1 telescope month through
both pumps and asserts:

* the disabled-observability path costs <5% vs the seed pump (relative:
  it must stay free however fast the pump gets);
* the *always-on* configurations — ``SamplingTracer`` (every 64th event
  per type) and ``RingBufferTracer`` (last 64k events, no serialization) —
  cost at most :data:`MAX_US_PER_EVENT` **microseconds per offered trace
  event**.  What a sink costs is a property of the sink and of the call
  sites that build its fields — a counter bump and a dropped call, or a
  tuple append — not of the simulator around it; the 10% budget this
  replaces was set when the pump took 1.87 s and turned red, with the
  sinks unchanged, once the pump took 0.47 s.  (At today's pump speed
  the measured 4–6 us is +20–35%: "always on" is a statement about the
  sinks' absolute cost, no longer about their share.)

A live-``JsonlTracer`` arm quantifies what full tracing still costs.
(``--profile`` has no arm: it attaches a registry, whose stage spans open
per phase and per traffic unit, never per event, so it adds no code to
the pump.)  Every arm must process the exact seed event count: observability may cost time but can never
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
    RingBufferTracer,
    SamplingTracer,
)
from repro.workloads.scenario import ScenarioConfig, build_scenario

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_obs.json")
SIM_SCALE = 0.1
ROUNDS = 5
MAX_OVERHEAD = 0.05
#: Budget for the always-on sinks (sampled / ring buffer): wall
#: microseconds added over the seed pump per trace event offered to the
#: sink.  Measured 3.7–6.1 (sampled) and 2.4–4.5 (ring) over repeated runs
#: on the 2-CPU reference box, whose run-to-run spread is about that wide.
MAX_US_PER_EVENT = 8.0
SAMPLE_EVERY = 64
RING_CAPACITY = 65536


def _build(obs=None):
    return build_scenario(ScenarioConfig(seed=11).scaled(SIM_SCALE), obs=obs)


def _seed_pump(loop):
    """Replica of the seed's ``run()`` hot loop (no obs dispatch)."""
    while loop.step():
        pass


def _measure(pump_via_run, obs_factory=None):
    """One timed run: (elapsed seconds, loop events, pkts delivered, offered).

    ``offered`` is how many trace events the simulation handed the tracer;
    only the sampling sink counts them (kept + dropped), and every arm
    runs the same simulation.
    """
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
    offered = 0
    if obs is not None:
        offered = getattr(obs.tracer, "events_kept", 0) + getattr(
            obs.tracer, "events_dropped", 0
        )
        obs.close()
    return elapsed, events, delivered, offered


def _arm_summary(samples):
    """Best-round wall time and throughput for one configuration."""
    elapsed, events, delivered, _offered = min(samples)
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


#: Bench arms in measurement order: key -> (pump_via_run, obs factory).
ARMS = {
    "seed_pump": (False, None),
    "obs_disabled": (True, None),
    "obs_traced": (True, _traced_obs),
    "obs_sampled": (True, _sampled_obs),
    "obs_ring": (True, _ring_obs),
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

    offered = samples["obs_sampled"][0][3]

    def us_per_event(arm_key):
        added = [
            arm[0] - seed[0]
            for arm, seed in zip(samples[arm_key], samples["seed_pump"])
        ]
        return round(1e6 * min(added) / offered, 3)

    results = {
        "environment": environment_stamp(),
        "scale": SIM_SCALE,
        "rounds": ROUNDS,
        "overhead_disabled": overhead("obs_disabled"),
        "overhead_traced": overhead("obs_traced"),
        "overhead_sampled": overhead("obs_sampled"),
        "overhead_ring": overhead("obs_ring"),
        "sample_every": SAMPLE_EVERY,
        "ring_capacity": RING_CAPACITY,
        "trace_events_offered": offered,
        "us_per_event_sampled": us_per_event("obs_sampled"),
        "us_per_event_ring": us_per_event("obs_ring"),
        "threshold": MAX_OVERHEAD,
        "threshold_us_per_event": MAX_US_PER_EVENT,
    }
    for key in ARMS:
        results[key] = _arm_summary(samples[key])
    with open(BENCH_PATH, "w") as fileobj:
        json.dump(results, fileobj, indent=2, sort_keys=True)
        fileobj.write("\n")
    return results


def _render(results):
    lines = [
        "Observability overhead (scale %.2f, best of %d, %d trace events offered):"
        % (results["scale"], results["rounds"], results["trace_events_offered"])
    ]
    for label, arm_key, overhead_key, us_key in (
        ("seed pump", "seed_pump", None, None),
        ("obs disabled", "obs_disabled", "overhead_disabled", None),
        ("obs traced", "obs_traced", "overhead_traced", None),
        ("obs sampled", "obs_sampled", "overhead_sampled", "us_per_event_sampled"),
        ("obs ring", "obs_ring", "overhead_ring", "us_per_event_ring"),
    ):
        arm = results[arm_key]
        suffix = (
            "  (%+.1f%%)" % (100 * results[overhead_key]) if overhead_key else ""
        )
        if us_key:
            suffix += "  %.2f us/trace event" % results[us_key]
        lines.append(
            "  %-13s %7.3fs  %10.0f ev/s%s"
            % (label, arm["seconds"], arm["events_per_sec"], suffix)
        )
    return "\n".join(lines)


def _check(results):
    """Threshold violations as human-readable strings (empty = pass)."""
    failures = []
    for arm_key in ("obs_disabled", "obs_traced", "obs_sampled", "obs_ring"):
        if results[arm_key]["events"] != results["seed_pump"]["events"]:
            failures.append("%s changed the simulation (event count)" % arm_key)
    if results["overhead_disabled"] >= MAX_OVERHEAD:
        failures.append(
            "NullTracer path costs %.1f%% vs seed (budget %.0f%%)"
            % (100 * results["overhead_disabled"], 100 * MAX_OVERHEAD)
        )
    for sink in ("sampled", "ring"):
        cost = results["us_per_event_" + sink]
        if cost >= MAX_US_PER_EVENT:
            failures.append(
                "%s tracing costs %.2f us per offered trace event (always-on "
                "budget %.1f)" % (sink, cost, MAX_US_PER_EVENT)
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
