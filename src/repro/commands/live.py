"""``repro live``: follow growing capture(s) through the streaming plane."""

from __future__ import annotations

import argparse
import os
import sys

from repro.capstore import ClassifiedView, build_from_shards
from repro.commands.capture import validate_tables
from repro.commands.common import finish_obs, follow, make_obs
from repro.commands.prom import PromPublishers
from repro.core.render import render_analysis
from repro.stream.live import PcapFollower, render_dashboard
from repro.stream.reducers import StreamAnalyses


def cmd_live(args: argparse.Namespace) -> int:
    """Follow growing capture(s), stream rows into the online analyses.

    Each ``--interval`` seconds every capture is polled: newly completed
    records are dissected and appended to the follower's table, the new
    rows are fed to the :class:`~repro.stream.reducers.StreamAnalyses` accumulators,
    the ``stream.*`` gauges are (re)published, and the dashboard is
    reprinted.  When no capture has produced a new record for
    ``--exit-idle`` consecutive polls (or on Ctrl-C), the loop ends and
    the *batch* analysis is rendered from the accumulated table — for a
    single pcap that output is byte-for-byte what ``repro analyze``
    prints, because the table is the same; for a shard set a fresh
    ``build_from_shards`` pass reproduces the merged-order table first.
    """
    wanted = validate_tables(args)
    obs = make_obs(args, force_metrics=True)
    followers = [
        PcapFollower(path, obs=obs, use_cache=not args.no_cache)
        for path in args.pcap
    ]
    analyses = StreamAnalyses()
    fed = [0] * len(followers)
    seen_resets = [0] * len(followers)
    prom = PromPublishers(args, obs)
    polls = 0

    def poll() -> int:
        nonlocal analyses, fed, seen_resets, polls
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
        prom.write()
        if not args.quiet:
            print(render_dashboard(followers, analyses, polls))
            print()
        return new_rows

    try:
        if not follow(poll, args.interval, args.exit_idle):
            print("interrupted; rendering final analysis", file=sys.stderr)
    finally:
        for follower in followers:
            follower.finish()
        prom.stop()
        finish_obs(args, obs)
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
        view = ClassifiedView(*build_from_shards(args.pcap))
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
