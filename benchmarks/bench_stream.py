"""Streaming plane — live-vs-batch parity and incremental re-index speedup.

Two arms over one simulated month, recorded in ``BENCH_stream.json`` at
the repo root:

* **parity** — a :class:`~repro.stream.PcapFollower` fed the capture in
  growth steps must end holding the *same* table a batch build produces
  (so the ``repro live`` final render is byte-identical to ``repro
  analyze``), and the online :class:`~repro.stream.StreamAnalyses`
  reducers must land on exactly the batch values for the version mix,
  packet mix and off-net counts — for a single pcap and for a
  ``--no-merge`` shard set fed through per-shard followers.
* **incremental** — after a capture grows by ~10%, revalidating the
  ``.capidx`` sidecar against the stored prefix fingerprint and
  dissecting only the appended tail must beat a full no-cache rebuild.

Parity is asserted on any machine, and so is what "incremental" means:
the extension ran exactly ``tail_records`` records through the dissector
(the extended view's record count minus the prefix view's), not one more.  That count is the gate — it
repeats exactly and no faster box can flatter it.  The wall-clock ratio
next to it cannot be held to much: the tail is a tenth of the file, so
the ceiling is 10x, and under it sit costs that do not shrink with the
dissector — load and checksum the sidecar, hash the prefix once to prove
it unchanged, rewrite the sidecar.  When a rebuild cost 2.3 s those were
small change and 5x was a fair floor; every gain on the dissector since
has moved the ratio *down* (4.6-5.3x over four runs before the one-pass
walker, flapping around the old floor) while the extension itself got
faster.  So the time gate only rules out an extension that is not
incremental at all — it must finish in at most ``MAX_EXTEND_FRACTION``
(half) of a full rebuild, asserted at bench scale >= 0.5; below that the
tail is a few hundred records and constant costs dominate.  The honest
numbers are recorded either way, ``live_follow.overhead_vs_batch``
included (reported, not gated: eight polls pay eight fixed costs against
one batch build).

Run under pytest (``pytest benchmarks/bench_stream.py``) or as a script —
``python benchmarks/bench_stream.py --check`` re-measures and exits
non-zero on violations.  ``--scale`` overrides the default bench scale
(0.5; the REPRO_BENCH_SCALE env var is honoured too).
"""

import argparse
import json
import os
import sys
import tempfile
import time

from _harness import environment_stamp

from repro.capstore import ClassifiedView, build_from_shards, load_or_build
from repro.cli import VALID_TABLES, main as cli_main, render_analysis
from repro.core.offnet import extract_features
from repro.core.versions import table2
from repro.netstack.pcap import scan_pcap_offsets, write_pcap
from repro.obs import MetricsRegistry, Observability
from repro.simnet.shard import plan_shards, run_shard
from repro.stream.live import PcapFollower
from repro.stream.reducers import StreamAnalyses
from repro.workloads.scenario import ScenarioConfig

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_stream.json")
DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
SEED = 20220101
GROWTH_STEPS = 8
#: Fraction of the capture treated as already indexed before the growth.
PREFIX_FRACTION = 0.9
#: An extension may take at most this share of a full rebuild's time.
MAX_EXTEND_FRACTION = 0.5
#: The time gate is only asserted at or above this scale.
MIN_SCALE_FOR_SPEEDUP = 0.5
ALL_TABLES = set(VALID_TABLES)


def _follow_in_steps(source, dest, steps=GROWTH_STEPS):
    """Stream ``source`` into ``dest`` in record-aligned growth steps.

    Returns ``(follower, analyses, seconds)`` — the accumulated live
    state and the wall time spent polling/dissecting/reducing (the file
    copies simulating the writer are excluded).
    """
    data = open(source, "rb").read()
    offsets = scan_pcap_offsets(source)
    boundaries = [
        offsets[(len(offsets) * (i + 1)) // steps - 1] for i in range(steps - 1)
    ] + [len(data)]
    follower = PcapFollower(dest, use_cache=False)
    analyses = StreamAnalyses()
    seconds = 0.0
    fed = 0
    for boundary in boundaries:
        with open(dest, "wb") as fileobj:
            fileobj.write(data[:boundary])
        start = time.perf_counter()
        follower.poll()
        analyses.feed(follower.table, fed, follower.num_rows)
        fed = follower.num_rows
        seconds += time.perf_counter() - start
    return follower, analyses, seconds


def _reducers_match_batch(analyses, view):
    """Do the online reducers agree with the batch analyses of ``view``?"""
    shares = table2(view)
    features = extract_features(view.backscatter)
    snap = analyses.snapshot()
    return (
        snap["rows"].get("backscatter", 0) == len(view.backscatter)
        and snap["rows"].get("scan", 0) == len(view.scans)
        and snap["sessions"]["clients"]["buckets"] == shares["clients"].counts
        and snap["sessions"]["servers"]["buckets"] == shares["servers"].counts
        and snap["offnet"]["servers"] == len(features)
        and snap["offnet"]["low_host_id"]
        == sum(1 for f in features.values() if f.low_host_id())
    )


def run_bench(scale=DEFAULT_SCALE):
    """Measure both streaming arms, persist ``BENCH_stream.json``."""
    results = {
        "environment": environment_stamp(),
        "scale": scale,
        "seed": SEED,
        "growth_steps": GROWTH_STEPS,
        "prefix_fraction": PREFIX_FRACTION,
        "arms": {},
        "parity": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        pcap = os.path.join(tmp, "month.pcap")
        code = cli_main(
            ["simulate", pcap, "--scale", str(scale), "--seed", str(SEED)]
        )
        assert code == 0, "simulate failed"

        # -- parity arm: single pcap ------------------------------------
        start = time.perf_counter()
        batch_view, _hit = load_or_build(pcap, workers=1, use_cache=False)
        batch_seconds = time.perf_counter() - start
        batch_render = render_analysis(batch_view, ALL_TABLES)

        grown = os.path.join(tmp, "grow.pcap")
        follower, analyses, live_seconds = _follow_in_steps(pcap, grown)
        live_render = render_analysis(follower.view(), ALL_TABLES)

        results["parity"]["live_render_identical"] = live_render == batch_render
        results["parity"]["live_table_equal"] = follower.table == batch_view.table
        results["parity"]["reducers_match_batch"] = _reducers_match_batch(
            analyses, batch_view
        )

        # -- parity arm: --no-merge shard set ---------------------------
        config = ScenarioConfig(seed=SEED).scaled(min(scale, 0.05))
        shard_paths = []
        for shard in plan_shards(config, 3):
            records = run_shard(config, [unit.name for unit in shard.units])
            path = os.path.join(tmp, "out.pcap.shard%d" % shard.index)
            write_pcap(path, records)
            shard_paths.append(path)
        shard_analyses = StreamAnalyses()
        for path in shard_paths:
            shard_follower = PcapFollower(path, use_cache=False)
            shard_follower.poll()
            shard_analyses.feed(
                shard_follower.table, 0, shard_follower.num_rows
            )
        shard_view = ClassifiedView(*build_from_shards(shard_paths))
        results["parity"]["shard_reducers_match_batch"] = _reducers_match_batch(
            shard_analyses, shard_view
        )

        # -- incremental arm: 10% growth vs full rebuild ----------------
        data = open(pcap, "rb").read()
        offsets = scan_pcap_offsets(pcap)
        cut = offsets[int(len(offsets) * PREFIX_FRACTION)]
        inc = os.path.join(tmp, "inc.pcap")
        with open(inc, "wb") as fileobj:
            fileobj.write(data[:cut])
        start = time.perf_counter()
        prefix, _hit = load_or_build(inc, workers=1)  # leaves the prefix sidecar
        prefix_seconds = time.perf_counter() - start
        with open(inc, "ab") as fileobj:
            fileobj.write(data[cut:])

        obs = Observability(metrics=MetricsRegistry())
        start = time.perf_counter()
        extended, _hit = load_or_build(inc, obs=obs)
        extend_seconds = time.perf_counter() - start
        cache = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]

        start = time.perf_counter()
        rebuilt, _hit = load_or_build(inc, workers=1, use_cache=False)
        rebuild_seconds = time.perf_counter() - start

        results["parity"]["extension_was_incremental"] = cache == {"extended": 1}
        results["parity"]["extended_table_equal"] = extended.table == rebuilt.table
        results["rows"] = batch_view.table.num_rows
        results["tail_records"] = len(offsets) - int(
            len(offsets) * PREFIX_FRACTION
        )
        results["extend_dissected_records"] = (
            extended.stats.total_records - prefix.stats.total_records
        )
        results["arms"] = {
            "batch_build": {"seconds": round(batch_seconds, 3)},
            "live_follow": {
                "seconds": round(live_seconds, 3),
                "overhead_vs_batch": round(
                    live_seconds / max(batch_seconds, 1e-9), 3
                ),
            },
            "prefix_build": {"seconds": round(prefix_seconds, 3)},
            "incremental_extend": {
                "seconds": round(extend_seconds, 3),
                "speedup_vs_rebuild": round(
                    rebuild_seconds / max(extend_seconds, 1e-9), 3
                ),
            },
            "full_rebuild": {"seconds": round(rebuild_seconds, 3)},
        }

    with open(BENCH_PATH, "w") as fileobj:
        json.dump(results, fileobj, indent=2, sort_keys=True)
        fileobj.write("\n")
    return results


def _render(results):
    arms = results["arms"]
    lines = [
        "Streaming plane (scale %.2f, %d rows, %d records appended):"
        % (results["scale"], results["rows"], results["tail_records"]),
        "  %-24s %8.3fs" % ("batch build", arms["batch_build"]["seconds"]),
        "  %-24s %8.3fs  (%.2fx of batch)"
        % (
            "live follow (%d polls)" % results["growth_steps"],
            arms["live_follow"]["seconds"],
            arms["live_follow"]["overhead_vs_batch"],
        ),
        "  %-24s %8.3fs" % ("full rebuild", arms["full_rebuild"]["seconds"]),
        "  %-24s %8.3fs  (%.1fx)"
        % (
            "incremental extend",
            arms["incremental_extend"]["seconds"],
            arms["incremental_extend"]["speedup_vs_rebuild"],
        ),
    ]
    lines.append(
        "  the extension dissected %d records"
        % results["extend_dissected_records"]
    )
    if results["scale"] < MIN_SCALE_FOR_SPEEDUP:
        lines.append(
            "  (scale < %.1f: extend time not asserted, parity and count only)"
            % MIN_SCALE_FOR_SPEEDUP
        )
    return "\n".join(lines)


def _check(results):
    """Violations as human-readable strings (empty = pass)."""
    failures = []
    for name, held in results["parity"].items():
        if not held:
            failures.append("parity violated: %s" % name)
    if results["extend_dissected_records"] != results["tail_records"]:
        failures.append(
            "the extension dissected %d records, the capture grew by %d"
            % (results["extend_dissected_records"], results["tail_records"])
        )
    arms = results["arms"]
    extend = arms["incremental_extend"]["seconds"]
    rebuild = arms["full_rebuild"]["seconds"]
    if (
        results["scale"] >= MIN_SCALE_FOR_SPEEDUP
        and extend > MAX_EXTEND_FRACTION * rebuild
    ):
        failures.append(
            "incremental extend took %.3fs, more than %.0f%% of the %.3fs rebuild"
            % (extend, 100 * MAX_EXTEND_FRACTION, rebuild)
        )
    return failures


def test_stream_parity_and_extend(benchmark):
    from conftest import report

    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    report("stream_parity", _render(results))
    failures = _check(results)
    assert not failures, "; ".join(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on parity/count/time violations (CI gate)",
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
