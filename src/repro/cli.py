"""Command-line interface: ``python -m repro <command>``.

The commands cover the toolchain end to end:

* ``simulate`` — build a telescope measurement month and write the capture
  to a standard pcap file;
* ``classify`` — run the sanitization pipeline over a pcap and print what
  was kept and removed (``--json`` for machine-readable stats);
* ``analyze``  — reproduce the paper's tables from a pcap;
* ``index``    — prebuild or inspect the ``.capidx`` columnar index that
  ``classify``/``analyze`` cache their dissection results in;
* ``probe``    — run the active-measurement experiments against a
  simulated deployment (host-ID enumeration, LB-type inference,
  migration survival);
* ``stats``    — pretty-print a metrics snapshot written by ``--metrics``,
  diff two snapshots (``--diff A.json B.json``), or follow a snapshot
  file as it is rewritten (``--follow SECONDS``);
* ``trace``    — inspect JSONL traces (``trace summarize`` prints
  per-category counts and top event names; ``trace merge`` k-way-merges
  per-worker span streams into one canonical timeline; ``trace tail``
  follows a growing trace like ``tail -f``);
* ``live``     — follow a *growing* capture (single pcap or a
  ``--no-merge`` shard set): poll the file, dissect only newly completed
  records, refresh an online-analysis dashboard, publish ``stream.*``
  Prometheus gauges, and print the batch-identical analysis once the
  capture stops growing;
* ``progress`` / ``top`` — render (or live-follow) the heartbeat files a
  running sharded simulate/index/sweep writes next to its output;
* ``sweep``    — deterministic parameter-grid experiments (``sweep run
  <spec>`` expands a declarative JSON/TOML grid into cells, simulates
  each at most once behind per-cell ``.capidx`` caching, and writes
  heatmap-ready long-form CSV/JSON; ``sweep status`` shows per-cell
  state; ``sweep render`` draws a terminal heatmap over two axes);
* ``lint``     — static determinism/invariant analysis over Python
  sources (``repro lint src``): seeded-randomness, wall-clock,
  entropy, ``hash()``, unordered-iteration, metric-name-grammar, and
  multiprocessing-picklability rules, with inline pragma suppression
  and a committed baseline (``--rules`` lists the pack).

``classify``/``analyze``/``index`` share the columnar analysis plane
(``repro.capstore``): one streaming dissection pass — parallelizable with
``--workers N`` — builds a ``.capidx`` sidecar next to the pcap, and
subsequent runs load columns straight from disk (``--no-cache`` opts out).
``analyze``/``index`` also accept multiple pcaps (the per-worker shard
files a ``simulate --workers N --no-merge`` run leaves behind) and stream
them through ``build_from_shards`` without a merge step.

``simulate``/``classify``/``analyze``/``probe`` all accept ``--trace
FILE.qlog.jsonl`` (structured event stream, one JSON object per line) and
``--metrics FILE.json`` (counter/gauge/histogram/timer snapshot), plus the
cheap always-on sinks ``--trace-sample N`` (deterministic per-type
sampling) and ``--trace-ring K`` (in-memory flight recorder), plus
``--profile`` (hierarchical span profiler; ``--speedscope FILE`` exports
a flamegraph).  ``simulate``/``probe`` additionally publish live
Prometheus metrics via ``--prom-file`` (textfile collector) and
``--prom-port`` (/metrics HTTP endpoint).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time as _wall

from repro.capstore import (
    fingerprint_matches,
    load_or_build,
    read_header,
    sidecar_path,
)
from repro.core.render import VALID_TABLES, render_analysis
from repro.core.report import render_histogram, render_table
from repro.obs import (
    JsonlTracer,
    MetricsRegistry,
    Observability,
    Profiler,
    PromFileWriter,
    RingBufferTracer,
    SamplingTracer,
    install_signal_dump,
    load_snapshot,
    merge_span_timelines,
    start_http_exporter,
)
from repro.obs.progress import (
    HeartbeatWriter,
    aggregate,
    clean_progress_dir,
    expected_events,
    read_heartbeats,
    render_progress,
    resolve_progress_dir,
)
from repro.obs.trace import read_trace
from repro.workloads.scenario import (
    ScenarioConfig,
    april_2021_config,
    build_scenario,
)

# ---------------------------------------------------------------------------
# Observability plumbing
# ---------------------------------------------------------------------------


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a qlog-style JSONL event trace to FILE",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=0,
        metavar="N",
        help="keep every Nth event per type (rare lifecycle/security events "
        "always kept); deterministic, cheap enough to leave on",
    )
    parser.add_argument(
        "--trace-ring",
        type=int,
        default=0,
        metavar="K",
        help="flight-recorder mode: keep the last K events in memory and "
        "dump them to the --trace file on exit (or crash)",
    )
    parser.add_argument(
        "--trace-ring-signal",
        action="store_true",
        help="with --trace-ring: also dump the ring to the --trace file on "
        "SIGUSR1, so long runs can be inspected mid-flight (no-op on "
        "platforms without SIGUSR1)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a metrics snapshot (counters/histograms/timers) to FILE",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attribute wall time per pipeline stage with the deterministic "
        "sampling profiler (event-count triggered; simulated behaviour is "
        "unchanged) and print a stage summary on exit",
    )
    parser.add_argument(
        "--profile-every",
        type=int,
        default=64,
        metavar="N",
        help="profiler sampling interval: time every Nth occurrence of each "
        "stage, first occurrence always (default: 64)",
    )
    parser.add_argument(
        "--speedscope",
        metavar="FILE",
        help="with --profile: write the stage tree as speedscope JSON "
        "(simulate defaults to <output>.speedscope.json)",
    )


def _add_prom_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prom-file",
        metavar="PATH",
        help="atomically rewrite PATH in Prometheus text format every "
        "--prom-interval simulated seconds (node_exporter textfile collector)",
    )
    parser.add_argument(
        "--prom-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live /metrics on PORT while the command runs (0 = ephemeral)",
    )
    parser.add_argument(
        "--prom-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="simulated seconds between --prom-file rewrites (default: 5)",
    )


def _wants_prom(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "prom_file", None) or getattr(args, "prom_port", None) is not None
    )


def _make_obs(args: argparse.Namespace, force_metrics: bool = False) -> Observability:
    """Build the Observability bundle the command threads through the stack.

    ``force_metrics`` attaches a registry even without ``--metrics`` (used
    by ``classify --json``, whose output embeds the snapshot, and by the
    Prometheus publishers, which render it live).
    """
    trace_path = getattr(args, "trace", None)
    ring = getattr(args, "trace_ring", 0)
    sample = getattr(args, "trace_sample", 0)
    if ring and not trace_path:
        raise SystemExit("--trace-ring needs --trace FILE to dump into")
    tracer = None
    if ring:
        ring_tracer = RingBufferTracer(capacity=ring, dump_path=trace_path)
        if getattr(args, "trace_ring_signal", False):
            install_signal_dump(ring_tracer)  # no-op without SIGUSR1
        tracer = ring_tracer
    elif trace_path:
        tracer = JsonlTracer.to_path(trace_path)
    if tracer is not None and sample:
        tracer = SamplingTracer(tracer, every=sample)
    wants_metrics = force_metrics or getattr(args, "metrics", None) or _wants_prom(args)
    metrics = MetricsRegistry() if wants_metrics else None
    prof = (
        Profiler(getattr(args, "profile_every", 64), metrics=metrics)
        if getattr(args, "profile", False)
        else None
    )
    return Observability(tracer=tracer, metrics=metrics, prof=prof)


def _start_prom(args: argparse.Namespace, obs: Observability, loop=None):
    """Start the requested Prometheus publishers; returns a stop callable.

    The file writer ticks on the *simulated* clock (``--prom-interval``
    sim-seconds) so snapshots land at deterministic points of the run; the
    HTTP endpoint serves the live registry from a daemon thread.
    """
    if not _wants_prom(args):
        return lambda: None
    writer = (
        PromFileWriter(obs.metrics, args.prom_file) if args.prom_file else None
    )
    if writer is not None and loop is not None:
        loop.schedule_periodic(args.prom_interval, writer.write)
    server = None
    if args.prom_port is not None:
        server = start_http_exporter(obs.metrics, port=args.prom_port)
        print("Serving live metrics at %s" % server.url)

    def stop() -> None:
        if writer is not None:
            writer.write()  # final state, even if the loop never ticked
        if server is not None:
            server.close()

    return stop


def _finish_obs(args: argparse.Namespace, obs: Observability) -> None:
    """Flush the trace sink and persist the metrics snapshot, if requested.

    Runs in each command's ``finally`` block, so a ring-buffer tracer dumps
    its window even when the run crashes mid-way.  With ``--profile`` it
    also prints the per-stage attribution table and writes the speedscope
    export.
    """
    obs.close()
    if getattr(args, "metrics", None) and obs.metrics is not None:
        obs.metrics.write(args.metrics)
    prof = obs.prof
    if prof is not None:
        speedscope_path = getattr(args, "speedscope", None) or getattr(
            args, "_speedscope_default", None
        )
        if speedscope_path:
            prof.write_speedscope(speedscope_path)
        print(_render_prof_summary(prof))
        if speedscope_path:
            print(
                "Wrote speedscope profile to %s (open at "
                "https://www.speedscope.app/)" % speedscope_path
            )


def _render_prof_summary(prof: Profiler, top: int = 12) -> str:
    """The --profile exit table: top stages by estimated self time."""
    totals = prof.stage_totals()
    grand = sum(entry["self_seconds"] for entry in totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda item: -item[1]["self_seconds"])
    rows = [
        [
            name,
            entry["calls"],
            entry["packets"],
            "%.3f" % entry["self_seconds"],
            "%.1f%%" % (100.0 * entry["self_seconds"] / grand),
        ]
        for name, entry in ranked[:top]
    ]
    return render_table(
        ["stage", "calls", "packets", "self [s]", "share"],
        rows,
        title="Profile (sampled every %d per stage, %.3f s attributed)"
        % (prof.every, prof.total_estimate()),
    )


def _load_capture(
    args: argparse.Namespace,
    obs: Observability | None = None,
    pcap: str | None = None,
):
    """Load the sanitized capture through the columnar analysis plane.

    Delegates to :func:`repro.capstore.load_or_build`: a valid ``.capidx``
    sidecar loads columns straight from disk (``index.load`` timer, cache
    ``hit`` counter); otherwise one streaming dissection pass builds the
    table — over ``--workers N`` row groups when requested — and persists
    the sidecar unless ``--no-cache``.
    """
    obs = obs or Observability()
    pcap = pcap if pcap is not None else args.pcap
    view, _cache_hit = load_or_build(
        pcap,
        workers=getattr(args, "workers", 1),
        use_cache=not getattr(args, "no_cache", False),
        obs=obs,
    )
    _note_unindexed(args.command, pcap, view)
    return view


def _note_unindexed(command: str, pcap: str, view) -> None:
    """Say so, on stderr, when the index stops short of the pcap's end.

    The dissection covers the complete records in front of the first one
    that is not — a record still being written, or a corrupt header —
    and every number printed afterwards describes only that prefix.
    (``repro live`` expects a growing capture and stays silent.)
    """
    size = os.path.getsize(pcap)
    if view.indexed_bytes is not None and view.indexed_bytes < size:
        print(
            "repro %s: note: %s is indexed up to byte %d of %d; the %d bytes "
            "after it are not (an incomplete or corrupt record starts there)"
            % (command, pcap, view.indexed_bytes, size, size - view.indexed_bytes),
            file=sys.stderr,
        )


def _load_shard_capture(paths: list[str], args: argparse.Namespace, obs: Observability):
    """Index several per-shard pcaps without merging them first."""
    from repro.capstore import ClassifiedView
    from repro.capstore.build import build_from_shards

    for path in paths:
        if not os.path.exists(path):
            raise SystemExit("repro %s: %s: no such pcap" % (args.command, path))
    with obs.span("index.build", local=True, shards=len(paths)):
        table, stats = build_from_shards(paths, obs=obs)
    return ClassifiedView(table, stats)


def _workers_arg(value: str):
    """``--workers`` accepts an integer or the literal ``auto``.

    ``auto`` is resolved against the scenario config by
    :func:`repro.simnet.shard.resolve_workers` once the config is built
    (the planned shard count depends on scale).
    """
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "--workers expects an integer or 'auto', got %r" % value
        ) from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = (
        april_2021_config(seed=args.seed)
        if args.year == 2021
        else ScenarioConfig(seed=args.seed)
    )
    config = config.scaled(args.scale)
    args._speedscope_default = args.output + ".speedscope.json"
    from repro.simnet.shard import resolve_workers

    args.workers = resolve_workers(args.workers, config)
    if args.workers > 1:
        return _simulate_sharded(args, config)
    if args.keep_shards or args.no_merge:
        raise SystemExit(
            "repro simulate: --keep-shards/--no-merge need --workers N >= 2"
        )
    print("Simulating %d (scale %.2f, seed %d)…" % (args.year, args.scale, args.seed))
    from repro.workloads.scenario import plan_traffic_units

    obs = _make_obs(args)
    progress_dir = args.output + ".progress"
    clean_progress_dir(progress_dir)
    heartbeat = HeartbeatWriter(progress_dir, worker=0)
    heartbeat.total = expected_events(
        sum(unit.weight for unit in plan_traffic_units(config))
    )
    stop_prom = lambda: None  # noqa: E731 - trivial default finisher
    try:
        heartbeat.update("build")
        with obs.span("simulate.build", local=True), obs.timed("build_scenario"):
            scenario = build_scenario(config, obs=obs)
        stop_prom = _start_prom(args, obs, loop=scenario.loop)
        loop = scenario.loop
        telescope = scenario.telescope
        prof = obs.prof

        def on_progress(count: int) -> None:
            heartbeat.update(
                "run",
                done=count,
                records=len(telescope.records),
                span=prof.current_path if prof is not None else "",
                sim_time=loop.now,
            )

        loop.on_progress = on_progress
        heartbeat.update("run")
        with obs.span("simulate.run", local=True), obs.timed("simulate"):
            scenario.run()
        with obs.timed("write_pcap"), open(args.output, "wb") as fileobj:
            telescope.write_pcap(fileobj)
        heartbeat.update(
            "done",
            done=loop.events_processed,
            records=len(telescope.records),
            sim_time=loop.now,
            final=True,
        )
    finally:
        stop_prom()
        heartbeat.close()
        _finish_obs(args, obs)
    print(
        "Wrote %d captured packets to %s"
        % (len(scenario.telescope.records), args.output)
    )
    return 0


def _simulate_sharded(args: argparse.Namespace, config: ScenarioConfig) -> int:
    """The ``--workers N`` (N >= 2) path: fork, run shards, merge.

    The parent's registry receives the merged worker snapshots, so
    ``--metrics``/``--prom-file`` report whole-run numbers (rendered
    after the merge rather than live).  With ``--trace``, worker *k*
    writes ``FILE.worker<k>`` and the parent trace records the shard
    plan.  Same seed and scale ⇒ same merged pcap for any worker count.
    Workers heartbeat into ``<output>.progress/`` (``repro progress``
    renders it live); ``--keep-shards`` leaves the per-shard pcaps next
    to the merged file, ``--no-merge`` skips the merge entirely so
    ``repro analyze <output>.shard*`` can consume the shards directly.
    """
    from repro.simnet.shard import simulate_sharded

    print(
        "Simulating %d (scale %.2f, seed %d, %d workers)…"
        % (args.year, args.scale, args.seed, args.workers)
    )
    obs = _make_obs(args)
    stop_prom = _start_prom(args, obs)
    progress_dir = args.output + ".progress"
    kwargs = dict(
        obs=obs,
        trace_path=args.trace,
        progress_dir=progress_dir,
        keep_shards=args.keep_shards,
        merge=not args.no_merge,
    )
    try:
        with obs.timed("simulate"):
            result = simulate_sharded(config, args.workers, args.output, **kwargs)
    finally:
        stop_prom()
        _finish_obs(args, obs)
    if args.no_merge:
        print(
            "Wrote %d captured packets across %d shard pcaps (%s; not merged)"
            % (result.total_records, len(result.shards), " ".join(result.shard_paths))
        )
    else:
        print(
            "Wrote %d captured packets to %s (merged from %d shards%s)"
            % (
                result.total_records,
                args.output,
                len(result.shards),
                "; shard pcaps kept" if args.keep_shards else "",
            )
        )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    obs = _make_obs(args, force_metrics=args.json)
    try:
        with obs.timed("classify"):
            capture = _load_capture(args, obs=obs)
    finally:
        _finish_obs(args, obs)
    stats = capture.stats
    if args.json:
        payload = {
            "pcap": args.pcap,
            "stats": {
                "total_records": stats.total_records,
                "non_udp": stats.non_udp,
                "non_port_443": stats.non_port_443,
                "failed_dissection": stats.failed_dissection,
                "acknowledged_scanner": stats.acknowledged_scanner,
                "backscatter": stats.backscatter,
                "scans": stats.scans,
                "removed": stats.removed,
                "removed_share": stats.removed_share,
            },
            "metrics": obs.metrics.snapshot(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        render_table(
            ["stage", "packets"],
            [
                ["raw records", stats.total_records],
                ["non-UDP", stats.non_udp],
                ["non-443", stats.non_port_443],
                ["failed dissection", stats.failed_dissection],
                ["acknowledged scanners", stats.acknowledged_scanner],
                ["backscatter kept", stats.backscatter],
                ["scans kept", stats.scans],
            ],
            title="Sanitization of %s (removed %.0f%%)"
            % (args.pcap, 100 * stats.removed_share),
        )
    )
    return 0


def _validate_tables(tables) -> set:
    """Resolve ``--tables`` before anything touches the pcap.

    Unknown names abort with the list of valid selectors — previously
    they were silently intersected away, so a typo like ``--tables rt0``
    cost a full dissection pass just to print nothing.
    """
    if not tables:
        return {"1", "2", "3", "4"}
    unknown = sorted(set(tables) - set(VALID_TABLES))
    if unknown:
        raise SystemExit(
            "repro analyze: unknown table name%s %s (valid names: %s)"
            % (
                "s" if len(unknown) > 1 else "",
                ", ".join(unknown),
                ", ".join(VALID_TABLES),
            )
        )
    return set(tables)


def cmd_analyze(args: argparse.Namespace) -> int:
    wanted = _validate_tables(args.tables)
    obs = _make_obs(args)
    try:
        if len(args.pcap) > 1:
            capture = _load_shard_capture(args.pcap, args, obs)
        else:
            capture = _load_capture(args, obs=obs, pcap=args.pcap[0])
        with obs.timed("analyze"), obs.span("analyze.render", local=True):
            print(render_analysis(capture, wanted))
        return 0
    finally:
        _finish_obs(args, obs)


def cmd_live(args: argparse.Namespace) -> int:
    """Follow growing capture(s), stream rows into the online analyses.

    Each ``--interval`` seconds every capture is polled: newly completed
    records are dissected and appended to the follower's table, the new
    rows are fed to the :class:`~repro.stream.StreamAnalyses` accumulators,
    the ``stream.*`` gauges are (re)published, and the dashboard is
    reprinted.  When no capture has produced a new record for
    ``--exit-idle`` consecutive polls (or on Ctrl-C), the loop ends and
    the *batch* analysis is rendered from the accumulated table — for a
    single pcap that output is byte-for-byte what ``repro analyze``
    prints, because the table is the same; for a shard set a fresh
    ``build_from_shards`` pass reproduces the merged-order table first.
    """
    from repro.stream import PcapFollower, StreamAnalyses, render_dashboard

    wanted = _validate_tables(args.tables)
    obs = _make_obs(args, force_metrics=True)
    followers = [
        PcapFollower(path, obs=obs, use_cache=not args.no_cache)
        for path in args.pcap
    ]
    analyses = StreamAnalyses()
    fed = [0] * len(followers)
    seen_resets = [0] * len(followers)
    writer = (
        PromFileWriter(obs.metrics, args.prom_file)
        if getattr(args, "prom_file", None)
        else None
    )
    server = None
    if getattr(args, "prom_port", None) is not None:
        server = start_http_exporter(obs.metrics, port=args.prom_port)
        print("Serving live metrics at %s" % server.url)
    polls = 0
    idle = 0
    try:
        while True:
            new_rows = 0
            for i, follower in enumerate(followers):
                follower.poll()
                if follower.resets != seen_resets[i]:
                    # A capture shrank (fresh run reusing the path): all
                    # fed-row cursors are void, so rebuild the reducers
                    # from every follower's current table.
                    print(
                        "note: %s was rewritten; restarting online analyses"
                        % follower.path,
                        file=sys.stderr,
                    )
                    seen_resets = [f.resets for f in followers]
                    analyses = StreamAnalyses()
                    fed = [0] * len(followers)
                if follower.num_rows > fed[i]:
                    analyses.feed(follower.table, fed[i], follower.num_rows)
                    new_rows += follower.num_rows - fed[i]
                    fed[i] = follower.num_rows
            polls += 1
            analyses.publish(obs.metrics)
            if writer is not None:
                writer.write()
            if not args.quiet:
                print(render_dashboard(followers, analyses, polls))
                print()
            idle = idle + 1 if new_rows == 0 else 0
            if args.exit_idle and idle >= args.exit_idle:
                break
            _wall.sleep(args.interval)
    except KeyboardInterrupt:
        print("interrupted; rendering final analysis", file=sys.stderr)
    finally:
        for follower in followers:
            follower.finish()
        if server is not None:
            server.close()
        if writer is not None:
            writer.write()
        _finish_obs(args, obs)
    if len(args.pcap) > 1:
        missing = [path for path in args.pcap if not os.path.exists(path)]
        if missing:
            print(
                "repro live: shard pcap(s) never appeared: %s"
                % ", ".join(missing),
                file=sys.stderr,
            )
            return 1
        # Re-index the shard set in merged record order so the final
        # render matches `repro analyze shard1 shard2 …` byte for byte.
        from repro.capstore import ClassifiedView
        from repro.capstore.build import build_from_shards

        table, stats = build_from_shards(args.pcap)
        view = ClassifiedView(table, stats)
    else:
        follower = followers[0]
        if not follower.started:
            print(
                "repro live: %s: no capture appeared" % args.pcap[0],
                file=sys.stderr,
            )
            return 1
        view = follower.view()
    print(render_analysis(view, wanted))
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    """Prebuild or inspect the ``.capidx`` sidecar for a pcap."""
    if len(args.pcap) > 1:
        # Shard mode: index the per-worker pcaps in one pass.  The table
        # lives in memory only — a .capidx sidecar describes exactly one
        # source pcap, so none is persisted; merge the shards (or pass a
        # single pcap) to build a durable index.
        if args.info or args.force:
            raise SystemExit(
                "repro index: --info/--force apply to a single pcap, not shards"
            )
        obs = _make_obs(args, force_metrics=True)
        try:
            view = _load_shard_capture(args.pcap, args, obs)
        finally:
            _finish_obs(args, obs)
        stats = view.stats
        print(
            "Indexed %d shard pcaps in memory: %d rows (%d backscatter, %d "
            "scans) from %d records (no sidecar written)"
            % (
                len(args.pcap),
                len(view),
                stats.backscatter,
                stats.scans,
                stats.total_records,
            )
        )
        return 0
    args.pcap = args.pcap[0]
    index_path = sidecar_path(args.pcap)
    if args.info:
        try:
            header = read_header(index_path)
        except FileNotFoundError:
            print("%s: no index (run `repro index %s`)" % (index_path, args.pcap))
            return 1
        except Exception as exc:  # CapIndexError and friends
            print("%s: unreadable index: %s" % (index_path, exc))
            return 1
        stats = header.get("stats", {})
        source = header.get("source", {})
        valid = fingerprint_matches(source, args.pcap)
        print(
            render_table(
                ["field", "value"],
                [
                    ["schema version", header["_schema_version"]],
                    ["rows", header["rows"]],
                    ["packets", header["packets"]],
                    ["origins", ", ".join(header.get("origins", []))],
                    ["backscatter", stats.get("backscatter", "?")],
                    ["scans", stats.get("scans", "?")],
                    ["source records", stats.get("total_records", "?")],
                    ["source size", source.get("size", "?")],
                    [
                        "indexed bytes",
                        source.get("indexed_bytes", source.get("size", "?")),
                    ],
                    ["valid for pcap", "yes" if valid else "STALE"],
                ],
                title="Capture index %s" % index_path,
            )
        )
        return 0 if valid else 1
    if args.force:
        try:
            os.unlink(index_path)
        except FileNotFoundError:
            pass
    obs = _make_obs(args, force_metrics=True)
    try:
        view, cache_hit = load_or_build(args.pcap, workers=args.workers, obs=obs)
    finally:
        _finish_obs(args, obs)
    _note_unindexed(args.command, args.pcap, view)
    stats = view.stats
    print(
        "%s %s: %d rows (%d backscatter, %d scans) from %d records%s"
        % (
            "Validated" if cache_hit else "Indexed",
            index_path,
            len(view),
            stats.backscatter,
            stats.scans,
            stats.total_records,
            "" if cache_hit else " [workers=%d]" % args.workers,
        )
    )
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    from repro.active.prober import Prober
    from repro.workloads.scenario import build_lb_lab

    obs = _make_obs(args)
    lab = build_lb_lab(
        google_hosts=args.hosts,
        facebook_hosts=args.hosts,
        quic_lb_hosts=args.hosts,
        seed=args.seed,
        obs=obs,
    )
    prober = Prober(lab.loop, lab.network)
    stop_prom = _start_prom(args, obs, loop=lab.loop)
    try:
        with obs.timed("probe.%s" % args.experiment):
            return _run_probe(args, lab, prober)
    finally:
        stop_prom()
        _finish_obs(args, obs)


def _run_probe(args: argparse.Namespace, lab, prober) -> int:
    from repro.active.lb_inference import classify_lb, follow_up_delay
    from repro.active.migration import migration_probe
    from repro.core.l7lb import convergence_curve

    if args.experiment == "enumerate":
        vip = lab.vips("Facebook")[0]
        ids = prober.enumerate_host_ids(vip, args.handshakes)
        curve = convergence_curve([h for h in ids if h is not None])
        print(
            "Enumerated %d L7LBs behind one VIP in %d handshakes"
            % (curve.total, len(ids))
        )
        for checkpoint in (50, 100, 200, len(ids)):
            if checkpoint <= len(ids):
                print(
                    "  after %5d handshakes: %5.1f%% of host IDs"
                    % (checkpoint, 100 * curve.coverage_at(checkpoint))
                )
    elif args.experiment == "lb-type":
        for name in ("Facebook", "Google"):
            outcome = follow_up_delay(prober, lab.vips(name)[0], max_wait=400.0)
            print(
                "%-9s follow-up succeeded after %6.1f s -> %s"
                % (name, outcome.delay, classify_lb(outcome))
            )
    elif args.experiment == "migration":
        for name in ("Facebook", "Google", "QuicLB"):
            same = migration_probe(prober, lab.vips(name)[0])
            rotated = migration_probe(prober, lab.vips(name)[1], rotate_cid=True)
            print(
                "%-9s same-CID migration: %-9s rotated-CID: %s"
                % (
                    name,
                    "survived" if same.survived else "broken",
                    "survived" if rotated.survived else "broken",
                )
            )
    return 0


def _flatten_snapshot(snapshot: dict) -> dict:
    """One (section, metric, label-key) → value map per snapshot.

    Histogram series flatten to their ``count``/``sum``; timers to
    ``seconds``/``calls``.  This is the comparison domain of ``--diff``.
    """
    flat: dict = {}
    for section in ("counters", "gauges"):
        for name, body in snapshot.get(section, {}).items():
            for key, value in body["values"].items():
                flat[(section, name, key)] = value
    for name, body in snapshot.get("histograms", {}).items():
        for key, series in body["values"].items():
            flat[("histograms", name + ".count", key)] = series["count"]
            flat[("histograms", name + ".sum", key)] = series["sum"]
    for stage, entry in snapshot.get("timers", {}).items():
        flat[("timers", stage + ".seconds", "")] = entry["seconds"]
        flat[("timers", stage + ".calls", "")] = entry["calls"]
    return flat


def _format_delta_value(value: float) -> str:
    if value == int(value):
        return "%+d" % value if value else "0"
    return "%+.3f" % value


def _load_snapshot_or_exit(path: str) -> dict:
    """``load_snapshot`` with one-line CLI errors instead of tracebacks.

    Missing and truncated snapshot files are routine operator input (a
    crashed run, a typo'd path) and must not dump a stack.
    """
    try:
        return load_snapshot(path)
    except FileNotFoundError:
        raise SystemExit("repro stats: %s: no such snapshot file" % path)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            "repro stats: %s: invalid snapshot JSON at line %d (truncated "
            "write?)" % (path, exc.lineno)
        )
    except OSError as exc:
        raise SystemExit("repro stats: %s: %s" % (path, exc.strerror or exc))


def _diff_rows(flat_a: dict, flat_b: dict) -> tuple[list, int]:
    """Delta table rows between two flattened snapshots (B minus A).

    Returns ``(rows, unchanged)`` — shared by ``stats --diff`` and the
    per-update delta rendering of ``stats --follow``.
    """
    rows = []
    unchanged = 0
    for key in sorted(set(flat_a) | set(flat_b)):
        _section, name, labels = key
        a_value = flat_a.get(key)
        b_value = flat_b.get(key)
        delta = (b_value or 0) - (a_value or 0)
        if a_value is not None and b_value is not None and not delta:
            unchanged += 1
            continue
        if a_value is None:
            change = "new"
        elif b_value is None:
            change = "gone"
        elif a_value:
            change = "%+.1f%%" % (100.0 * delta / a_value)
        else:
            change = "-"
        rows.append(
            [
                name,
                labels or "-",
                "-" if a_value is None else a_value,
                "-" if b_value is None else b_value,
                _format_delta_value(delta),
                change,
            ]
        )
    return rows, unchanged


def cmd_stats_diff(path_a: str, path_b: str) -> int:
    """Per-metric deltas between two ``--metrics`` snapshots (B minus A)."""
    flat_a = _flatten_snapshot(_load_snapshot_or_exit(path_a))
    flat_b = _flatten_snapshot(_load_snapshot_or_exit(path_b))
    if not flat_a and not flat_b:
        print("neither file contains metrics sections (not --metrics snapshots?)")
        return 1
    rows, unchanged = _diff_rows(flat_a, flat_b)
    if rows:
        print(
            render_table(
                ["metric", "labels", "A", "B", "delta", "change"],
                rows,
                title="Snapshot diff: %s -> %s" % (path_a, path_b),
            )
        )
    print("%d changed, %d unchanged" % (len(rows), unchanged))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Pretty-print a metrics snapshot written by ``--metrics``."""
    if args.diff:
        return cmd_stats_diff(args.diff[0], args.diff[1])
    if not args.metrics_file:
        print("repro stats: give a snapshot file, or --diff A.json B.json")
        return 2
    if getattr(args, "follow", None):
        return _stats_follow(args)
    snapshot = _load_snapshot_or_exit(args.metrics_file)
    if not any(
        snapshot.get(section)
        for section in ("timers", "counters", "gauges", "histograms")
    ):
        print("%s: no metrics sections found (not a --metrics snapshot?)"
              % args.metrics_file)
        return 1
    _print_snapshot(snapshot)
    return 0


def _stats_follow(args: argparse.Namespace) -> int:
    """``stats --follow``: re-render whenever the snapshot file changes.

    A thin consumer of the streaming plane's tail machinery
    (:class:`~repro.stream.tail.SnapshotTail`): the first load prints the
    full snapshot, later loads print only the per-metric deltas against
    the previous one.  ``--updates N`` bounds the number of loads (for
    scripting and tests); the default 0 follows until interrupted.
    """
    from repro.stream.tail import SnapshotTail

    tail = SnapshotTail(args.metrics_file)
    previous = None
    shown = 0
    announced = False
    try:
        while True:
            snapshot = tail.poll()
            if snapshot is not None:
                flat = _flatten_snapshot(snapshot)
                if previous is None:
                    _print_snapshot(snapshot)
                else:
                    rows, unchanged = _diff_rows(previous, flat)
                    if rows:
                        print(
                            render_table(
                                ["metric", "labels", "A", "B", "delta", "change"],
                                rows,
                                title="Changes in %s" % args.metrics_file,
                            )
                        )
                    print("%d changed, %d unchanged" % (len(rows), unchanged))
                previous = flat
                shown += 1
                if args.updates and shown >= args.updates:
                    return 0
                print()
            elif previous is None and not announced:
                print("waiting for %s…" % args.metrics_file, file=sys.stderr)
                announced = True
            _wall.sleep(args.follow)
    except KeyboardInterrupt:
        return 0


def _print_snapshot(snapshot: dict) -> None:
    """Render every section of one metrics snapshot to stdout."""

    def label_text(names, key):
        if not names:
            return "-"
        values = key.split("|") if key else [""] * len(names)
        return ", ".join("%s=%s" % (n, v) for n, v in zip(names, values))

    timers = snapshot.get("timers", {})
    if timers:
        print(
            render_table(
                ["stage", "seconds", "calls"],
                [
                    [stage, "%.3f" % entry["seconds"], entry["calls"]]
                    for stage, entry in sorted(timers.items())
                ],
                title="Stage timings",
            )
        )
        print()
    for section, kind in (("counters", "Counters"), ("gauges", "Gauges")):
        metrics = snapshot.get(section, {})
        rows = [
            [name, label_text(body["label_names"], key), value]
            for name, body in sorted(metrics.items())
            for key, value in body["values"].items()
        ]
        if rows:
            print(render_table(["metric", "labels", "value"], rows, title=kind))
            print()
    for name, body in sorted(snapshot.get("histograms", {}).items()):
        for key, series in body["values"].items():
            title = name
            labels = label_text(body["label_names"], key)
            if labels != "-":
                title += " {%s}" % labels
            print(
                render_histogram(
                    list(zip(body["buckets"], series["counts"])),
                    width=30,
                    title=title,
                )
            )
            print()


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Per-category counts and top event names of a JSONL trace."""
    import warnings

    categories: dict = {}
    names: dict = {}
    estimated: dict = {}
    total = 0
    first_time = last_time = None
    # ``read_trace`` signals a truncated tail with a RuntimeWarning.  The
    # default warning printer already targets stderr, but it is silenced
    # by -W ignore / PYTHONWARNINGS and captured wholesale under test
    # runners; catching and re-printing makes the notice reach stderr
    # unconditionally while keeping stdout parseable.
    # ``read_trace`` is a generator, so a missing file would only surface
    # (as a traceback) on first iteration; probe now for a one-line error.
    try:
        open(args.trace_file).close()
    except OSError as exc:
        raise SystemExit(
            "repro trace summarize: %s: %s"
            % (args.trace_file, exc.strerror or exc)
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for event in read_trace(args.trace_file):
            total += 1
            category = event.get("category", "?")
            key = "%s:%s" % (category, event.get("name", "?"))
            categories[category] = categories.get(category, 0) + 1
            names[key] = names.get(key, 0) + 1
            # Sampled events carry their thinning factor; rescale to estimate
            # the pre-sampling event volume.
            weight = event.get("data", {}).get("sampled", 1)
            estimated[key] = estimated.get(key, 0) + weight
            time = event.get("time", 0.0)
            first_time = time if first_time is None else min(first_time, time)
            last_time = time if last_time is None else max(last_time, time)
    for warning in caught:
        print("warning: %s" % warning.message, file=sys.stderr)
    if not total:
        print("%s: no events" % args.trace_file)
        return 1
    sampled = sum(estimated.values()) > total
    print(
        "%s: %d events, %d types, sim time %.3f..%.3f s%s"
        % (
            args.trace_file,
            total,
            len(names),
            first_time,
            last_time,
            " (sampled; estimated %d pre-sampling)" % sum(estimated.values())
            if sampled
            else "",
        )
    )
    print()
    print(
        render_histogram(
            sorted(categories.items(), key=lambda item: -item[1]),
            width=30,
            title="Events per category",
        )
    )
    print()
    top = sorted(names.items(), key=lambda item: (-item[1], item[0]))[: args.top]
    headers = ["event", "count", "share"]
    rows = [
        [key, count, "%.1f%%" % (100.0 * count / total)] for key, count in top
    ]
    if sampled:
        headers.append("estimated")
        for row, (key, _count) in zip(rows, top):
            row.append(estimated[key])
    print(
        render_table(
            headers, rows, title="Top %d event types" % len(rows)
        )
    )
    return 0


def cmd_trace_merge(args: argparse.Namespace) -> int:
    """K-way-merge per-worker span streams into one canonical timeline."""
    for path in args.inputs:
        if not os.path.exists(path):
            raise SystemExit("repro trace merge: %s: no such trace file" % path)
    count = merge_span_timelines(args.inputs, args.output)
    print(
        "Merged %d spans from %d traces into %s"
        % (count, len(args.inputs), args.output)
    )
    return 0


def cmd_trace_tail(args: argparse.Namespace) -> int:
    """Follow a growing JSONL trace: ``tail -f`` with torn-line safety.

    Events appended since the previous poll print as one line each —
    ``--raw`` passes the JSON through compactly, the default formats
    ``time category:name data``.  A partial trailing line (the writer
    caught mid-record) is buffered until complete; a truncated file is
    treated as rotated and followed from the start.  ``--exit-idle N``
    stops after N polls without new events (0 = follow until Ctrl-C).
    """
    from repro.stream import JsonlTail

    tail = JsonlTail(args.trace_file)
    announced = False
    reported_bad = 0
    reported_resets = 0
    idle = 0
    try:
        while True:
            events = tail.poll()
            if tail.resets > reported_resets:
                reported_resets = tail.resets
                print(
                    "note: %s was truncated; following from the start"
                    % args.trace_file,
                    file=sys.stderr,
                )
            for event in events:
                if args.raw:
                    print(json.dumps(event, separators=(",", ":")))
                else:
                    print(
                        "%12.6f %s:%s %s"
                        % (
                            event.get("time", 0.0),
                            event.get("category", "?"),
                            event.get("name", "?"),
                            json.dumps(
                                event.get("data", {}), separators=(",", ":")
                            ),
                        )
                    )
            if tail.bad_lines > reported_bad:
                print(
                    "note: skipped %d malformed line(s) in %s"
                    % (tail.bad_lines - reported_bad, args.trace_file),
                    file=sys.stderr,
                )
                reported_bad = tail.bad_lines
            if events:
                idle = 0
            else:
                if tail.offset == 0 and not announced:
                    print(
                        "waiting for %s…" % args.trace_file, file=sys.stderr
                    )
                    announced = True
                idle += 1
                if args.exit_idle and idle >= args.exit_idle:
                    return 0
            _wall.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_progress(args: argparse.Namespace) -> int:
    """Render (or follow) the heartbeat table of a sharded run.

    ``target`` is either the progress directory itself or the simulate
    output path (heartbeats live in ``<output>.progress/``).  In follow
    mode the table reprints every ``--interval`` seconds until every
    worker reports done.  A heartbeat that disappears (or is caught
    mid-write) between the directory listing and the read — routine when
    a finishing run cleans up under a live ``repro top`` — is skipped
    with a one-line stderr note rather than failing the table.
    """
    directory = resolve_progress_dir(args.target)
    while True:
        skipped: list[str] = []
        beats = read_heartbeats(directory, skipped=skipped)
        print(render_progress(beats))
        if skipped:
            print(
                "note: skipped %d unreadable heartbeat(s): %s"
                % (len(skipped), ", ".join(skipped)),
                file=sys.stderr,
            )
        if not args.follow:
            return 0 if beats else 1
        if beats and aggregate(beats)["running"] == 0:
            return 0
        _wall.sleep(args.interval)
        print()


def cmd_sweep_run(args: argparse.Namespace) -> int:
    """Expand a grid spec, run every cell, write manifest + results."""
    from repro.sweep import SweepRunError, SweepSpecError, load_spec, run_sweep

    try:
        spec = load_spec(args.spec)
    except SweepSpecError as exc:
        raise SystemExit("repro sweep run: %s" % exc)
    outdir = args.out or os.path.splitext(args.spec)[0] + ".sweep"
    cells = spec.cells()
    print(
        "Sweep %s: %d cells (%s) -> %s"
        % (
            spec.name,
            len(cells),
            " x ".join(
                "%s[%d]" % (axis, len(values))
                for axis, values in spec.axes.items()
            ),
            outdir,
        )
    )
    obs = _make_obs(args, force_metrics=True)
    stop_prom = _start_prom(args, obs)
    seen = [0]

    def on_cell(cell, outcome) -> None:
        seen[0] += 1
        if not args.quiet:
            print(
                "  [%*d/%d] %-40s %-9s %6d records  %6.2fs"
                % (
                    len(str(len(cells))),
                    seen[0],
                    len(cells),
                    cell.label,
                    outcome.status,
                    outcome.records,
                    outcome.wall_seconds,
                )
            )

    try:
        with obs.timed("sweep"):
            result = run_sweep(
                spec,
                outdir,
                workers=args.workers,
                force=args.force,
                obs=obs,
                on_cell=on_cell,
            )
    except SweepRunError as exc:
        raise SystemExit(
            "repro sweep run: %s (see `repro sweep status %s`)" % (exc, outdir)
        )
    finally:
        stop_prom()
        _finish_obs(args, obs)
    print(
        "Swept %d cells (%d simulated, %d cached) in %.2fs -> %s, %s"
        % (
            len(result.cells),
            result.simulated,
            result.cached,
            result.wall_seconds,
            result.csv_path,
            result.manifest_path,
        )
    )
    return 0


def cmd_sweep_status(args: argparse.Namespace) -> int:
    """Render a sweep directory's manifest (plus live heartbeats)."""
    from repro.sweep import RenderError, render_status

    try:
        print(render_status(args.outdir))
    except RenderError as exc:
        raise SystemExit("repro sweep status: %s" % exc)
    return 0


def cmd_sweep_render(args: argparse.Namespace) -> int:
    """Pivot sweep results into a terminal heatmap (and optional CSV)."""
    from repro.sweep import RenderError, heatmap_csv, load_results, render_heatmap

    try:
        results = load_results(args.outdir)
        axes = list(results["axes"])
        if len(axes) < 2:
            raise RenderError(
                "a heatmap needs two axes; this sweep has %s — read %s/results.csv"
                % (", ".join(axes) or "none", args.outdir)
            )
        metric = args.metric or results["metrics"][0]
        x_axis = args.x or axes[-1]
        y_axis = args.y or next(a for a in axes if a != x_axis)
        fixed = {}
        for pin in args.fix or ():
            axis, sep, value = pin.partition("=")
            if not sep:
                raise RenderError("--fix wants axis=value (got %r)" % pin)
            fixed[axis] = value
        print(render_heatmap(results, metric, x_axis, y_axis, fixed))
        if args.csv:
            with open(args.csv, "w") as fileobj:
                fileobj.write(heatmap_csv(results, metric, x_axis, y_axis, fixed))
            print("Wrote pivoted CSV to %s" % args.csv)
    except RenderError as exc:
        raise SystemExit("repro sweep render: %s" % exc)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static determinism/invariant analyzer over Python sources.

    Exit status is the number of *new* (unbaselined, unsuppressed)
    findings — 0 means the tree honours the determinism contract.  The
    committed baseline (``lint_baseline.json``, empty in this repo)
    exists so a fork can adopt the linter before paying down debt;
    ``--update-baseline`` regenerates it from the current findings.
    """
    from repro.lint import (
        Baseline,
        BaselineError,
        lint_paths,
        render_json,
        render_rules,
        render_text,
    )

    if args.rules:
        print(render_rules())
        return 0
    paths = args.paths or ["src"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise SystemExit("repro lint: no such path: %s" % ", ".join(missing))
    try:
        baseline = Baseline.load(args.baseline)
    except BaselineError as exc:
        raise SystemExit("repro lint: %s" % exc)
    result = lint_paths(paths, baseline=baseline)
    if args.update_baseline:
        Baseline.write(args.baseline, result.findings + result.baselined)
        print(
            "Wrote %d finding(s) to %s"
            % (len(result.findings) + len(result.baselined), args.baseline)
        )
        return 0
    if args.json:
        print(render_json(result))
    else:
        print(render_text(result, verbose_baseline=args.show_baselined))
    return len(result.findings)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Passive measurement toolchain for QUIC deployments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="simulate a month, write pcap")
    simulate.add_argument("output", help="pcap file to write")
    simulate.add_argument("--year", type=int, choices=(2021, 2022), default=2022)
    simulate.add_argument("--scale", type=float, default=0.25)
    simulate.add_argument("--seed", type=int, default=20220101)
    simulate.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        metavar="N|auto",
        help="shard the scenario across N worker processes and merge the "
        "captures into one time-ordered pcap (1 = serial; the merged "
        "output is identical for any N at the same seed and scale); "
        "'auto' resolves to min(cpu count, planned shards) and falls "
        "back to serial on 1-CPU boxes",
    )
    simulate.add_argument(
        "--keep-shards",
        action="store_true",
        help="with --workers: leave the per-shard pcaps (<output>.shard<k>) "
        "on disk after the merge",
    )
    simulate.add_argument(
        "--no-merge",
        action="store_true",
        help="with --workers: skip the merge step entirely; analyze/index "
        "consume the shard pcaps directly (repro analyze out.pcap.shard*)",
    )
    _add_obs_flags(simulate)
    _add_prom_flags(simulate)
    simulate.set_defaults(func=cmd_simulate)

    def _add_capstore_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="dissect the pcap over N worker processes on an index "
            "cache miss (row-group parallel; output identical for any N)",
        )
        command.add_argument(
            "--no-cache",
            action="store_true",
            help="ignore and do not write the .capidx sidecar index",
        )

    classify = sub.add_parser("classify", help="sanitize a pcap, print stats")
    classify.add_argument("pcap")
    classify.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable stats (includes the metrics snapshot)",
    )
    _add_capstore_flags(classify)
    _add_obs_flags(classify)
    classify.set_defaults(func=cmd_classify)

    analyze = sub.add_parser("analyze", help="reproduce tables from a pcap")
    analyze.add_argument(
        "pcap",
        nargs="+",
        help="capture to analyze; several paths (e.g. out.pcap.shard*) are "
        "treated as per-worker shard pcaps and indexed without a merge",
    )
    analyze.add_argument(
        "--tables",
        nargs="*",
        metavar="NAME",
        help="which outputs to print: %s (default: 1 2 3 4); unknown "
        "names abort before the pcap is read" % " ".join(VALID_TABLES),
    )
    _add_capstore_flags(analyze)
    _add_obs_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    live = sub.add_parser(
        "live",
        help="follow a growing capture: online analyses, live dashboard, "
        "Prometheus gauges, batch-identical final render",
    )
    live.add_argument(
        "pcap",
        nargs="+",
        help="capture(s) to follow; several paths are treated as a "
        "--no-merge shard set and followed in parallel",
    )
    live.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between polls of the capture file(s) (default: 1)",
    )
    live.add_argument(
        "--exit-idle",
        type=int,
        default=3,
        metavar="N",
        help="stop once N consecutive polls saw no new records, then print "
        "the final batch analysis (default: 3; 0 = follow until Ctrl-C)",
    )
    live.add_argument(
        "--tables",
        nargs="*",
        metavar="NAME",
        help="which outputs the final render prints: %s (default: 1 2 3 4)"
        % " ".join(VALID_TABLES),
    )
    live.add_argument(
        "--no-cache",
        action="store_true",
        help="do not seed from or persist the .capidx sidecar index",
    )
    live.add_argument(
        "--quiet",
        action="store_true",
        help="skip the per-poll dashboard; print only the final analysis",
    )
    _add_obs_flags(live)
    _add_prom_flags(live)
    live.set_defaults(func=cmd_live)

    index = sub.add_parser(
        "index", help="prebuild or inspect the .capidx analysis index"
    )
    index.add_argument(
        "pcap",
        nargs="+",
        help="pcap to index; several paths are treated as per-worker shard "
        "pcaps and indexed in one in-memory pass (no sidecar written)",
    )
    index.add_argument(
        "--info",
        action="store_true",
        help="inspect the existing index header instead of building",
    )
    index.add_argument(
        "--force",
        action="store_true",
        help="rebuild even when a valid index exists",
    )
    index.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="dissect over N worker processes when building",
    )
    _add_obs_flags(index)
    index.set_defaults(func=cmd_index)

    probe = sub.add_parser("probe", help="run active experiments against a lab")
    probe.add_argument(
        "experiment", choices=("enumerate", "lb-type", "migration")
    )
    probe.add_argument("--hosts", type=int, default=12)
    probe.add_argument("--handshakes", type=int, default=500)
    probe.add_argument("--seed", type=int, default=7)
    _add_obs_flags(probe)
    _add_prom_flags(probe)
    probe.set_defaults(func=cmd_probe)

    stats = sub.add_parser(
        "stats", help="pretty-print a --metrics snapshot, or diff two"
    )
    stats.add_argument(
        "metrics_file",
        nargs="?",
        help="metrics JSON written by --metrics",
    )
    stats.add_argument(
        "--diff",
        nargs=2,
        metavar=("A.json", "B.json"),
        help="print per-metric deltas (and %% change) between two snapshots",
    )
    stats.add_argument(
        "--follow",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-render whenever the snapshot file changes, polling every "
        "SECONDS; the first load prints the full snapshot, later loads "
        "print deltas",
    )
    stats.add_argument(
        "--updates",
        type=int,
        default=0,
        metavar="N",
        help="with --follow: exit after N snapshot loads (0 = until Ctrl-C)",
    )
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser("trace", help="inspect qlog-style JSONL traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="per-category counts and top event names"
    )
    summarize.add_argument("trace_file", help="JSONL trace written by --trace")
    summarize.add_argument(
        "--top", type=int, default=15, help="how many event types to list"
    )
    summarize.set_defaults(func=cmd_trace_summarize)
    merge = trace_sub.add_parser(
        "merge",
        help="k-way-merge per-worker span streams into one canonical "
        "timeline (byte-identical for any worker count)",
    )
    merge.add_argument("output", help="merged span timeline to write (JSONL)")
    merge.add_argument(
        "inputs", nargs="+", help="per-worker traces (FILE.worker<k>)"
    )
    merge.set_defaults(func=cmd_trace_merge)
    tail = trace_sub.add_parser(
        "tail",
        help="follow a growing JSONL trace (tail -f with torn-line safety)",
    )
    tail.add_argument("trace_file", help="JSONL trace being written by --trace")
    tail.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="seconds between polls (default: 0.5)",
    )
    tail.add_argument(
        "--exit-idle",
        type=int,
        default=0,
        metavar="N",
        help="stop after N polls without new events (0 = until Ctrl-C)",
    )
    tail.add_argument(
        "--raw",
        action="store_true",
        help="print events as compact JSON instead of formatted lines",
    )
    tail.set_defaults(func=cmd_trace_tail)

    progress = sub.add_parser(
        "progress", help="render the heartbeat table of a sharded run"
    )
    progress.add_argument(
        "target",
        help="progress directory, or the simulate/index output path "
        "(heartbeats live in <output>.progress/)",
    )
    progress.add_argument(
        "--follow",
        action="store_true",
        help="reprint until every worker reports done",
    )
    progress.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between refreshes in follow mode (default: 2)",
    )
    progress.set_defaults(func=cmd_progress)

    sweep = sub.add_parser(
        "sweep", help="deterministic parameter-grid experiments"
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    sweep_run = sweep_sub.add_parser(
        "run",
        help="expand a grid spec into cells, simulate each at most once, "
        "write manifest + heatmap-ready long-form CSV/JSON",
    )
    sweep_run.add_argument(
        "spec", help="grid spec file (JSON; TOML on Python >= 3.11)"
    )
    sweep_run.add_argument(
        "--out",
        metavar="DIR",
        help="sweep output directory (default: spec path with the "
        "extension replaced by .sweep)",
    )
    sweep_run.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan cells across N worker processes (results byte-identical "
        "for any N; each cell simulates in-process)",
    )
    sweep_run.add_argument(
        "--force",
        action="store_true",
        help="re-simulate every cell, ignoring cached captures",
    )
    sweep_run.add_argument(
        "--quiet",
        action="store_true",
        help="skip the per-cell progress lines",
    )
    _add_obs_flags(sweep_run)
    _add_prom_flags(sweep_run)
    sweep_run.set_defaults(func=cmd_sweep_run)
    sweep_status = sweep_sub.add_parser(
        "status",
        help="per-cell state of a sweep directory (live heartbeats while "
        "cells are pending)",
    )
    sweep_status.add_argument("outdir", help="sweep output directory")
    sweep_status.set_defaults(func=cmd_sweep_status)
    sweep_render = sweep_sub.add_parser(
        "render",
        help="terminal heatmap of one metric over two axes (+ CSV export)",
    )
    sweep_render.add_argument("outdir", help="sweep output directory")
    sweep_render.add_argument(
        "--metric",
        metavar="NAME",
        help="metric to render (default: the spec's first metric)",
    )
    sweep_render.add_argument(
        "--x", metavar="AXIS", help="column axis (default: the last axis)"
    )
    sweep_render.add_argument(
        "--y", metavar="AXIS", help="row axis (default: the first axis)"
    )
    sweep_render.add_argument(
        "--fix",
        action="append",
        metavar="AXIS=VALUE",
        help="pin an extra axis to one value (repeatable); unfixed extra "
        "axes are mean-aggregated with a note",
    )
    sweep_render.add_argument(
        "--csv",
        metavar="FILE",
        help="also write the pivoted grid as CSV to FILE",
    )
    sweep_render.set_defaults(func=cmd_sweep_render)

    lint = sub.add_parser(
        "lint",
        help="static determinism/invariant analysis over Python sources",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report (same shape as the tools/ "
        "checkers' --json output)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default="lint_baseline.json",
        help="baseline of grandfathered findings (default: "
        "lint_baseline.json; a missing file is an empty baseline)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings and exit 0",
    )
    lint.add_argument(
        "--show-baselined",
        action="store_true",
        help="also list baselined findings (they never fail the run)",
    )
    lint.add_argument(
        "--rules",
        action="store_true",
        help="list the rule pack and exit",
    )
    lint.set_defaults(func=cmd_lint)

    top = sub.add_parser(
        "top", help="live-follow a sharded run's progress (progress --follow)"
    )
    top.add_argument("target", help="progress directory or simulate output path")
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between refreshes (default: 1)",
    )
    top.set_defaults(func=cmd_progress, follow=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
