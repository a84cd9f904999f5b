"""Sharded multiprocess simulation with a deterministic merge.

The paper's telescope dataset is 87.4M packets over a month; a single
Python process simulating that volume is wall-clock-bound on the CPU.
This module partitions a :class:`~repro.workloads.scenario.ScenarioConfig`
into independent sub-scenarios and runs them in worker processes
(``repro simulate --workers N``), then reassembles one capture:

1. **Partition** — :func:`plan_shards` groups the scenario's
   :class:`~repro.workloads.scenario.TrafficUnit`\\ s (per-hypergiant
   attack blocks, per-scanner sweeps, bots, noise) into balanced shards
   by greedy LPT on the units' cost weights.
2. **Run** — each worker builds the *full* deployment (cheap; identical
   construction-time random draws in every process) but installs only
   its shard's units, runs the event loop, and streams its telescope
   records — sorted by the canonical
   :func:`~repro.netstack.pcap.record_sort_key` — from the capture's
   spool to a temporary pcap.
3. **Merge** — the parent k-way-merges the per-worker pcaps into one
   time-ordered file (:func:`~repro.netstack.pcap.merge_pcap_files`),
   removes them, and folds the workers' metrics snapshots into its
   registry (:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`),
   pushgateway-style, so the existing Prometheus exporters publish
   whole-run numbers.  The merged pcap is the run's one capture: no
   shard file is left behind, whether the run succeeds or fails.

Determinism contract: all runtime randomness in the pipeline is *keyed*
— per-unit seeds (:func:`~repro.workloads.scenario.derive_seed`),
per-connection engine rngs, per-packet path hashes — never drawn from a
stream shared across units.  A packet's fate therefore does not depend
on which process simulated it or on event interleaving, and for a fixed
``(seed, scale)`` the merged capture is identical for any worker count
``N >= 2`` and record-identical to the serial run (same multiset of
records; the serial file orders same-microsecond ties by arrival
instead of the canonical key).  ``--workers 1`` *is* the serial path:
:func:`run_scenario` in the command's own process, no pool, no merge.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.atomic import remove_orphaned_temps
from repro.netstack.pcap import merge_pcap_files
from repro.obs import NULL_OBS, MetricsRegistry, Observability, open_tracer
from repro.obs.progress import HeartbeatWriter, clean_progress_dir, expected_events
from repro.obs.trace import CAT_SIM
from repro.pool import run_pool
from repro.workloads.scenario import (
    Scenario,
    ScenarioConfig,
    TrafficUnit,
    build_scenario,
    derive_seed,
    plan_traffic_units,
)


@dataclass(frozen=True)
class Shard:
    """One worker's slice of a scenario: a subset of its traffic units."""

    index: int
    seed: int  # derived from (config.seed, "shard", index); survives scaled()
    units: tuple[TrafficUnit, ...]

    @property
    def weight(self) -> int:
        return sum(unit.weight for unit in self.units)

    @property
    def unit_names(self) -> tuple[str, ...]:
        return tuple(unit.name for unit in self.units)


@dataclass
class ShardRunResult:
    """What :func:`simulate_sharded` hands back to the caller."""

    total_records: int
    shards: list[Shard]
    worker_records: list[int]  # records captured per shard, by shard order


def partition_units(
    units: Sequence[TrafficUnit], shards: int
) -> list[tuple[TrafficUnit, ...]]:
    """Greedy LPT partition of units into ``shards`` balanced groups.

    Units are placed heaviest-first onto the currently lightest shard
    (ties broken by shard index, unit order by ``(-weight, name)``), so
    the partition is deterministic for a given unit list.  Groups may be
    empty when there are more shards than units.
    """
    if shards < 1:
        raise ValueError("shard count must be >= 1 (got %r)" % shards)
    buckets: list[list[TrafficUnit]] = [[] for _ in range(shards)]
    loads = [0] * shards
    for unit in sorted(units, key=lambda u: (-u.weight, u.name)):
        lightest = min(range(shards), key=lambda i: (loads[i], i))
        buckets[lightest].append(unit)
        loads[lightest] += unit.weight
    return [tuple(bucket) for bucket in buckets]


def plan_shards(config: ScenarioConfig, workers: int) -> list[Shard]:
    """Partition ``config``'s traffic units across up to ``workers`` shards.

    Empty shards are dropped, so the result may be shorter than
    ``workers``.  Shard seeds derive from the config seed and the shard
    index only — like unit seeds, they commute with
    :meth:`~repro.workloads.scenario.ScenarioConfig.scaled`.
    """
    units = plan_traffic_units(config)
    shards = []
    for index, bucket in enumerate(partition_units(units, workers)):
        if not bucket:
            continue
        shards.append(
            Shard(
                index=index,
                seed=derive_seed(config.seed, "shard", index),
                units=bucket,
            )
        )
    return shards


def resolve_workers(workers, config: ScenarioConfig) -> int:
    """Resolve a ``--workers`` value (an int or ``"auto"``) to a count.

    ``auto`` picks ``min(usable CPUs, planned shards)`` — more workers
    than shards would sit idle, and :func:`plan_shards` drops empty
    buckets anyway.  The usable CPUs are the process's affinity mask where
    the platform has one (``taskset``, a container's cpuset), else
    ``os.cpu_count()``.  With one CPU it falls back to the serial path (1):
    there the workers time-slice one core and the pool, the per-shard
    pcaps and the merge are pure overhead (measured 0.77–0.88× of serial
    when the runner landed; 1.2× with two workers on two cores since).
    """
    if workers != "auto":
        return int(workers)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return 1
    planned = len(plan_shards(config, cpus))
    return max(1, min(cpus, planned))


def run_scenario(
    config: ScenarioConfig,
    units: Optional[Sequence[TrafficUnit]] = None,
    obs: Optional[Observability] = None,
    heartbeat: Optional[HeartbeatWriter] = None,
    on_built: Optional[Callable[[Scenario], None]] = None,
) -> Scenario:
    """Build the full deployment, run ``units`` (None: all) to the end.

    The one build → heartbeat → run routine: serial ``repro simulate``,
    shard workers, sweep cells and the tests all simulate through here
    and differ only in what they do with the finished scenario's
    capture (arrival order for the serial pcap, the canonical order for
    a shard).

    The two phases open ``simulate.build`` / ``simulate.run`` spans
    marked ``local`` — they describe this *process*, so they are excluded
    from the canonical merged timeline (see :mod:`repro.obs.spans`).
    When a ``heartbeat`` writer is given, it is updated through the
    build, every ~4096 loop events during the run, and once more
    (``final``) when the loop has drained.  ``on_built`` sees the
    scenario between the phases (the serial command hangs its Prometheus
    file writer on the loop there).
    """
    obs = obs or NULL_OBS
    if units is None:
        units = plan_traffic_units(config)
    if heartbeat is not None:
        heartbeat.total = expected_events(sum(unit.weight for unit in units))
        heartbeat.update("build")
    with obs.span("simulate.build", local=True, units=len(units)):
        scenario = build_scenario(config, obs=obs, units=units)
    if on_built is not None:
        on_built(scenario)
    loop = scenario.loop
    telescope = scenario.telescope
    if heartbeat is not None:

        def on_progress(count: int) -> None:
            heartbeat.update(
                "run", done=count, records=len(telescope.records), sim_time=loop.now
            )

        loop.on_progress = on_progress
        heartbeat.update("run")
    with obs.span("simulate.run", local=True):
        scenario.run()
    if loop.pending:
        raise RuntimeError(
            "scenario finished with %d events still queued" % loop.pending
        )
    if heartbeat is not None:
        heartbeat.update(
            "done",
            done=loop.events_processed,
            records=len(telescope.records),
            sim_time=loop.now,
            final=True,
        )
    return scenario


def _run_units(
    config: ScenarioConfig,
    unit_names: Optional[Sequence[str]],
    obs: Optional[Observability],
    heartbeat: Optional[HeartbeatWriter],
) -> Scenario:
    """:func:`run_scenario` over the named traffic units (None: all)."""
    units = plan_traffic_units(config)
    if unit_names is not None:
        wanted = set(unit_names)
        unknown = wanted - {unit.name for unit in units}
        if unknown:
            raise ValueError("unknown traffic units: %s" % ", ".join(sorted(unknown)))
        units = tuple(unit for unit in units if unit.name in wanted)
    return run_scenario(config, units, obs=obs, heartbeat=heartbeat)


def run_shard(
    config: ScenarioConfig,
    unit_names: Optional[Sequence[str]] = None,
    obs: Optional[Observability] = None,
    heartbeat: Optional[HeartbeatWriter] = None,
):
    """:func:`run_scenario` over the named traffic units, as records.

    Returns the telescope's records sorted by the canonical
    :func:`~repro.netstack.pcap.record_sort_key` — one object per packet,
    for tests that compare captures in memory; the pool's workers and
    :func:`run_to_pcap` stream the same order to a file instead.
    ``unit_names=None`` runs everything (a serial run in merge order).
    """
    scenario = _run_units(config, unit_names, obs, heartbeat)
    return scenario.telescope.capture.sorted_records()


def run_to_pcap(
    config: ScenarioConfig,
    output: str,
    obs: Optional[Observability] = None,
    heartbeat: Optional[HeartbeatWriter] = None,
    unit_names: Optional[Sequence[str]] = None,
) -> int:
    """Run a scenario in-process and persist its capture to ``output``.

    Records land on disk in the canonical merge order, streamed from the
    telescope's spool (:meth:`~repro.netstack.capbuf.CaptureBuffer.
    write_canonical`), so the file is byte-identical to what any
    ``--workers N`` merged run would produce for the same config.  This
    is the per-cell simulation primitive of ``repro.sweep`` (the pool of
    cells is its one process layer), and what a shard worker runs.
    Returns the number of captured records.
    """
    obs = obs or NULL_OBS
    scenario = _run_units(config, unit_names, obs, heartbeat)
    with obs.span("simulate.write", local=True):
        # repro: allow(IO001) -- append log: a shard's is merged, then removed;
        # a sweep cell's is vouched for by the cell.json written after it
        with open(output, "wb") as fileobj:
            return scenario.telescope.capture.write_canonical(fileobj)


def _worker_main(payload: tuple):
    """Worker-process entry: run one shard, persist its capture.

    Returns ``(record_count, metrics_snapshot_or_None)``; the capture
    itself travels via the filesystem (a temporary shard capture) to keep
    the IPC payload small.  The trace is the command's own
    ``--trace-sample`` / ``--trace-ring`` sink on this worker's file;
    the metrics snapshot, stage timers included, is what the parent
    merges; ``progress_dir`` points at the run's heartbeat directory.
    """
    (
        config,
        unit_names,
        pcap_path,
        want_metrics,
        trace_path,
        trace_sample,
        trace_ring,
        progress_dir,
        shard_index,
    ) = payload
    tracer = open_tracer(trace_path, sample=trace_sample, ring=trace_ring)
    metrics = MetricsRegistry() if want_metrics else None
    obs = Observability(tracer=tracer, metrics=metrics)
    heartbeat = (
        HeartbeatWriter(progress_dir, worker=shard_index) if progress_dir else None
    )
    try:
        count = run_to_pcap(config, pcap_path, obs, heartbeat, unit_names)
    finally:
        obs.close()
    return count, metrics.snapshot() if metrics is not None else None


def simulate_sharded(
    config: ScenarioConfig,
    workers: int,
    output: str,
    obs: Optional[Observability] = None,
    trace_path: Optional[str] = None,
    trace_sample: int = 0,
    trace_ring: int = 0,
    progress_dir: Optional[str] = None,
) -> ShardRunResult:
    """Run ``config`` across ``workers`` processes and merge into ``output``.

    Shard captures are written next to ``output`` (``output.shard<k>``),
    merged, and removed — on success and on failure alike (a worker raised
    or died, the merge was interrupted), so no shard file outlives the
    run.  When ``obs`` carries a metrics registry, workers snapshot theirs
    and the parent merges them, stage timers included.  When
    ``trace_path`` is given, worker *k*
    traces to ``trace_path.worker<k>`` (mergeable into one canonical span
    timeline with ``repro trace merge``) through the same sink the command
    uses: every ``trace_sample``-th event per type, or the last
    ``trace_ring`` events dumped when the worker ends.  ``progress_dir``
    makes every worker write live heartbeats there (stale ones are
    cleaned first) for ``repro progress`` / ``repro top``.
    """
    if workers < 2:
        raise ValueError(
            "simulate_sharded needs workers >= 2; run build_scenario serially"
        )
    obs = obs or NULL_OBS
    shards = plan_shards(config, workers)
    want_metrics = obs.metrics is not None
    if progress_dir is not None:
        clean_progress_dir(progress_dir)
    shard_paths = ["%s.shard%d" % (output, shard.index) for shard in shards]
    payloads = [
        (
            config,
            shard.unit_names,
            path,
            want_metrics,
            "%s.worker%d" % (trace_path, shard.index) if trace_path else None,
            trace_sample,
            trace_ring,
            progress_dir,
            shard.index,
        )
        for shard, path in zip(shards, shard_paths)
    ]
    if obs.tracer.enabled:
        obs.tracer.emit(
            CAT_SIM,
            "shard_plan",
            time=0.0,
            workers=len(shards),
            units=[list(shard.unit_names) for shard in shards],
            weights=[shard.weight for shard in shards],
        )
    failed = True
    try:
        results = [
            result for _index, result in sorted(run_pool(_worker_main, payloads, "shard"))
        ]
        # The parent deliberately opens no ``simulate.run`` span of its
        # own: the merged worker timers already carry the run stages, and
        # a parent duplicate would double-count them.
        with obs.span("simulate.merge", local=True, shards=len(shard_paths)):
            total = merge_pcap_files(shard_paths, output)
        failed = False
    finally:
        for path in shard_paths:
            with suppress(OSError):
                os.remove(path)
        if failed and progress_dir is not None:
            remove_orphaned_temps(progress_dir)
    for _count, snapshot in results:
        if snapshot is not None:  # None unless asked for
            obs.metrics.merge_snapshot(snapshot)
    return ShardRunResult(
        total_records=total,
        shards=shards,
        worker_records=[count for count, _snapshot in results],
    )
