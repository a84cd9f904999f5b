"""``repro classify``, ``analyze`` and ``index``: the read side.

All three go through the columnar analysis plane (``repro.capstore``):
one in-process dissection pass builds a
``.capidx`` sidecar next to the pcap, and later runs load the columns
straight from disk (``--no-cache`` opts out).  Each reads exactly one
pcap — a sharded ``simulate`` leaves one merged capture, so that pcap
and its sidecar are the only input.  Nothing here imports the simulator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.capstore import (
    fingerprint_matches,
    load_or_build,
    read_header,
    sidecar_path,
)
from repro.commands.common import finish_obs, make_obs
from repro.core.render import render_analysis
from repro.core.report import render_table
from repro.core.selectors import VALID_TABLES
from repro.errors import UsageError
from repro.obs import Observability


def load_capture(args: argparse.Namespace, obs: Observability):
    """Load the sanitized capture of ``args.pcap`` through the analysis plane.

    Delegates to :func:`repro.capstore.load_or_build`: a valid ``.capidx``
    sidecar loads columns straight from disk (``index.load`` span, cache
    ``hit`` counter); otherwise one streaming dissection pass builds the
    table and persists the sidecar unless ``--no-cache``.
    """
    view, _cache_hit = load_or_build(args.pcap, use_cache=not args.no_cache, obs=obs)
    note_unindexed(args.command, args.pcap, view)
    return view


def note_unindexed(command: str, pcap: str, view) -> None:
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


def validate_tables(args: argparse.Namespace) -> set:
    """Resolve ``--tables`` before anything touches the pcap.

    Unknown names abort with the list of valid selectors — previously
    they were silently intersected away, so a typo like ``--tables rt0``
    cost a full dissection pass just to print nothing.  The error names
    the command that ran (``analyze`` or ``live``).
    """
    tables = args.tables
    if not tables:
        return {"1", "2", "3", "4"}
    unknown = sorted(set(tables) - set(VALID_TABLES))
    if unknown:
        raise UsageError(
            "unknown table name%s %s (valid names: %s)"
            % (
                "s" if len(unknown) > 1 else "",
                ", ".join(unknown),
                ", ".join(VALID_TABLES),
            )
        )
    return set(tables)


def cmd_classify(args: argparse.Namespace) -> int:
    obs = make_obs(args, force_metrics=args.json)
    try:
        with obs.span("classify", local=True):
            capture = load_capture(args, obs)
    finally:
        finish_obs(args, obs)
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


def cmd_analyze(args: argparse.Namespace) -> int:
    wanted = validate_tables(args)
    obs = make_obs(args)
    try:
        capture = load_capture(args, obs)
        with obs.span("analyze.render", local=True):
            print(render_analysis(capture, wanted))
        return 0
    finally:
        finish_obs(args, obs)


def cmd_index(args: argparse.Namespace) -> int:
    """Prebuild or inspect the ``.capidx`` sidecar for a pcap."""
    pcap = args.pcap
    index_path = sidecar_path(pcap)
    if args.info:
        try:
            header = read_header(index_path)
        except FileNotFoundError:
            print("%s: no index (run `repro index %s`)" % (index_path, pcap))
            return 1
        except Exception as exc:  # CapIndexError and friends
            print("%s: unreadable index: %s" % (index_path, exc))
            return 1
        stats = header.get("stats", {})
        source = header.get("source", {})
        valid = fingerprint_matches(source, pcap)
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
    obs = make_obs(args, force_metrics=True)
    try:
        if args.force:
            try:
                os.unlink(index_path)
            except FileNotFoundError:
                pass
        view, cache_hit = load_or_build(pcap, obs=obs)
    finally:
        finish_obs(args, obs)
    note_unindexed(args.command, pcap, view)
    stats = view.stats
    print(
        "%s %s: %d rows (%d backscatter, %d scans) from %d records"
        % (
            "Validated" if cache_hit else "Indexed",
            index_path,
            len(view),
            stats.backscatter,
            stats.scans,
            stats.total_records,
        )
    )
    return 0
