"""``repro simulate`` and ``repro probe``: the commands that generate traffic."""

from __future__ import annotations

import argparse
from contextlib import ExitStack

from repro.active.lb_inference import classify_lb, follow_up_delay
from repro.active.migration import migration_probe
from repro.active.prober import Prober
from repro.atomic import atomic_output
from repro.commands.common import finish_obs, make_obs
from repro.commands.prom import PromPublishers, wants_prom
from repro.core.l7lb import convergence_curve
from repro.obs.progress import HeartbeatWriter, clean_progress_dir
from repro.simnet.shard import resolve_workers, run_scenario, simulate_sharded
from repro.telescope.darknet import Telescope
from repro.workloads.scenario import (
    ScenarioConfig,
    april_2021_config,
    build_lb_lab,
)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = (
        april_2021_config(seed=args.seed)
        if args.year == 2021
        else ScenarioConfig(seed=args.seed)
    )
    config = config.scaled(args.scale)
    if args.profile:
        args.speedscope = args.speedscope or args.output + ".speedscope.json"
    args.workers = resolve_workers(args.workers, config)
    if args.workers > 1:
        return _simulate_sharded(args, config)
    print("Simulating %d (scale %.2f, seed %d)…" % (args.year, args.scale, args.seed))
    obs = make_obs(args, force_metrics=wants_prom(args))
    progress_dir = args.output + ".progress"
    clean_progress_dir(progress_dir)
    heartbeat = HeartbeatWriter(progress_dir, worker=0)
    with ExitStack() as cleanup:  # runs last-in first-out
        cleanup.callback(finish_obs, args, obs)
        scenario = run_scenario(
            config,
            obs=obs,
            heartbeat=heartbeat,
            # The file writer ticks on the loop, which exists once built.
            on_built=lambda built: cleanup.callback(
                PromPublishers(args, obs, loop=built.loop).stop
            ),
        )
        with obs.span("simulate.write", local=True):
            write_capture(scenario.telescope, args.output)
    print(
        "Wrote %d captured packets to %s"
        % (len(scenario.telescope.records), args.output)
    )
    return 0


def write_capture(telescope: Telescope, path: str) -> None:
    """The serial capture, in arrival order: it is not re-sorted.

    Written in one burst once the run is over, so it is a whole document:
    a run that fails here leaves ``path`` as it was.
    """
    with atomic_output(path, "wb") as fileobj:
        telescope.write_pcap(fileobj)


def _simulate_sharded(args: argparse.Namespace, config: ScenarioConfig) -> int:
    """The ``--workers N`` (N >= 2) path: fork, run shards, merge.

    The parent's registry receives the merged worker snapshots, so
    ``--metrics``/``--prom-file`` report whole-run numbers (rendered
    after the merge rather than live).  With ``--trace``, worker *k*
    writes ``FILE.worker<k>`` (sampled or ring-buffered as the flags say)
    and the parent trace records the shard plan.  Same seed and scale ⇒
    same merged pcap for any worker count; the merged pcap is the only
    capture the run leaves.  Workers heartbeat into
    ``<output>.progress/`` (``repro progress`` renders it live).
    """
    print(
        "Simulating %d (scale %.2f, seed %d, %d workers)…"
        % (args.year, args.scale, args.seed, args.workers)
    )
    obs = make_obs(args, force_metrics=wants_prom(args))
    prom = PromPublishers(args, obs)
    try:
        result = simulate_sharded(
            config,
            args.workers,
            args.output,
            obs=obs,
            trace_path=args.trace,
            trace_sample=args.trace_sample,
            trace_ring=args.trace_ring,
            progress_dir=args.output + ".progress",
        )
    finally:
        prom.stop()
        finish_obs(args, obs)
    print(
        "Wrote %d captured packets to %s (merged from %d shards)"
        % (result.total_records, args.output, len(result.shards))
    )
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    obs = make_obs(args, force_metrics=wants_prom(args))
    lab = build_lb_lab(
        google_hosts=args.hosts,
        facebook_hosts=args.hosts,
        quic_lb_hosts=args.hosts,
        seed=args.seed,
        obs=obs,
    )
    prober = Prober(lab.loop, lab.network)
    prom = PromPublishers(args, obs, loop=lab.loop)
    try:
        with obs.span("probe.%s" % args.experiment, local=True):
            return _run_probe(args, lab, prober)
    finally:
        prom.stop()
        finish_obs(args, obs)


def _run_probe(args: argparse.Namespace, lab, prober) -> int:
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
