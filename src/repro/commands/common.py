"""What several command families share: the obs bundle and the follow loop."""

from __future__ import annotations

import argparse
import time as _wall
from typing import Callable

from repro.errors import UsageError
from repro.obs import MetricsRegistry, Observability, open_tracer
from repro.obs.prof import render_profile, write_speedscope


def make_obs(args: argparse.Namespace, force_metrics: bool = False) -> Observability:
    """Build the Observability bundle the command threads through the stack.

    ``force_metrics`` attaches a registry even without ``--metrics`` (used
    by ``classify --json``, whose output embeds the snapshot, and by the
    Prometheus publishers, which render it live); ``--profile`` attaches
    one too, since the profile is read from its stage timers.
    """
    if args.trace_ring and not args.trace:
        raise UsageError("--trace-ring needs --trace FILE to dump into")
    if args.trace_ring_signal and not args.trace_ring:
        raise UsageError("--trace-ring-signal needs --trace-ring K")
    if args.speedscope and not args.profile:
        raise UsageError("--speedscope needs --profile")
    tracer = open_tracer(
        args.trace,
        sample=args.trace_sample,
        ring=args.trace_ring,
        signal=args.trace_ring_signal,
    )
    wants_registry = force_metrics or args.metrics or args.profile
    return Observability(
        tracer=tracer, metrics=MetricsRegistry() if wants_registry else None
    )


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
    if args.profile:
        timers = obs.metrics.timers
        if args.speedscope:
            write_speedscope(args.speedscope, timers)
        print(render_profile(timers))
        if args.speedscope:
            print(
                "Wrote speedscope profile to %s (open at "
                "https://www.speedscope.app/)" % args.speedscope
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
