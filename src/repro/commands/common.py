"""What several command families share: the obs bundle and the follow loop."""

from __future__ import annotations

import argparse
import time as _wall
from typing import Callable

from repro.core.report import render_table
from repro.errors import UsageError
from repro.obs import MetricsRegistry, Observability, Profiler, open_tracer


def make_obs(args: argparse.Namespace, force_metrics: bool = False) -> Observability:
    """Build the Observability bundle the command threads through the stack.

    ``force_metrics`` attaches a registry even without ``--metrics`` (used
    by ``classify --json``, whose output embeds the snapshot, and by the
    Prometheus publishers, which render it live).
    """
    if args.trace_ring and not args.trace:
        raise UsageError("--trace-ring needs --trace FILE to dump into")
    tracer = open_tracer(
        args.trace,
        sample=args.trace_sample,
        ring=args.trace_ring,
        signal=args.trace_ring_signal,
    )
    metrics = MetricsRegistry() if force_metrics or args.metrics else None
    prof = Profiler(args.profile_every, metrics=metrics) if args.profile else None
    return Observability(tracer=tracer, metrics=metrics, prof=prof)


def finish_obs(args: argparse.Namespace, obs: Observability) -> None:
    """Flush the trace sink and persist the metrics snapshot, if requested.

    Runs in each command's ``finally`` block, so a ring-buffer tracer dumps
    its window even when the run crashes mid-way.  With ``--profile`` it
    also prints the per-stage attribution table and writes the speedscope
    export.
    """
    obs.close()
    if args.metrics and obs.metrics is not None:
        obs.metrics.write(args.metrics)
    prof = obs.prof
    if prof is not None:
        if args.speedscope:
            prof.write_speedscope(args.speedscope)
        print(_render_prof_summary(prof))
        if args.speedscope:
            print(
                "Wrote speedscope profile to %s (open at "
                "https://www.speedscope.app/)" % args.speedscope
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


#: What a :func:`follow` poll returns to end the loop itself.
DONE = object()


def follow(poll: Callable[[], object], interval: float, exit_idle: int = 0) -> bool:
    """Call ``poll()`` every ``interval`` wall seconds: the one follow loop.

    ``poll`` returns how much news it saw (rows, events, snapshot loads —
    anything truthy), or :data:`DONE` when it has seen all it came for.
    ``exit_idle`` N also ends the loop after N consecutive polls without
    news (0: never).  Ctrl-C ends it too, quietly; only then is the
    return value False.
    """
    idle = 0
    try:
        while True:
            news = poll()
            if news is DONE:
                return True
            idle = 0 if news else idle + 1
            if exit_idle and idle >= exit_idle:
                return True
            _wall.sleep(interval)
    except KeyboardInterrupt:
        return False
