"""``repro live``: follow one growing capture through the streaming plane."""

from __future__ import annotations

import argparse
import sys

from repro.commands.capture import validate_tables
from repro.commands.common import finish_obs, follow, make_obs
from repro.commands.prom import PromPublishers
from repro.core.render import render_analysis
from repro.errors import InputFileError
from repro.stream.live import PcapFollower, render_dashboard
from repro.stream.reducers import StreamAnalyses


def cmd_live(args: argparse.Namespace) -> int:
    """Follow a growing capture, stream rows into the online analyses.

    Each ``--interval`` seconds the capture is polled: newly completed
    records are dissected and appended to the follower's table, the new
    rows are fed to the :class:`~repro.stream.reducers.StreamAnalyses`
    accumulators, the ``stream.*`` gauges are (re)published, and the
    dashboard is reprinted.  When ``--exit-idle`` consecutive polls saw no
    new record (or on Ctrl-C), the loop ends and the *batch* analysis is
    rendered from the accumulated table — byte-for-byte what ``repro
    analyze`` prints, because the table is the same.
    """
    wanted = validate_tables(args)
    obs = make_obs(args, force_metrics=True)
    follower = PcapFollower(args.pcap, obs=obs, use_cache=not args.no_cache)
    analyses = StreamAnalyses()
    fed = 0
    seen_resets = 0
    prom = PromPublishers(args, obs)
    polls = 0

    def poll() -> int:
        nonlocal analyses, fed, seen_resets, polls
        follower.poll()
        if follower.resets != seen_resets:
            # The capture shrank (a fresh run reusing the path): the
            # fed-row cursor is void, so restart the reducers.
            print(
                "note: %s was rewritten; restarting online analyses"
                % follower.path,
                file=sys.stderr,
            )
            seen_resets = follower.resets
            analyses = StreamAnalyses()
            fed = 0
        new_rows = follower.num_rows - fed
        if new_rows:
            analyses.feed(follower.table, fed, follower.num_rows)
            fed = follower.num_rows
        polls += 1
        analyses.publish(obs.metrics)
        prom.write()
        if not args.quiet:
            print(render_dashboard(follower, analyses, polls))
            print()
        return new_rows

    try:
        if not follow(poll, args.interval, args.exit_idle):
            print("interrupted; rendering final analysis", file=sys.stderr)
    finally:
        follower.finish()
        prom.stop()
        finish_obs(args, obs)
    if not follower.started:
        raise InputFileError("%s: no capture appeared" % args.pcap)
    print(render_analysis(follower.view(), wanted))
    return 0
