"""``repro stats``, ``trace``, ``progress`` and ``top``: read what a run wrote.

The files are the ones the observability flags leave behind — a
``--metrics`` snapshot, a ``--trace`` JSONL stream, the heartbeat
directory next to a run's output — and each command either renders one
once or follows it (:func:`repro.commands.common.follow`) as it grows.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from repro.commands.common import DONE, follow
from repro.core.report import render_histogram, render_table
from repro.errors import UsageError
from repro.obs import load_snapshot, merge_span_timelines
from repro.obs.progress import (
    aggregate,
    read_heartbeats,
    render_progress,
    resolve_progress_dir,
)
from repro.obs.trace import read_trace
from repro.stream.tail import JsonlTail, SnapshotTail


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


def _diff_rows(flat_a: dict, flat_b: dict) -> tuple[list, int]:
    """Delta table rows between two flattened snapshots (B minus A).

    Returns ``(rows, unchanged)``.
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


def _print_diff(flat_a: dict, flat_b: dict, title: str) -> None:
    """The delta table of ``stats --diff`` and of each ``--follow`` update."""
    rows, unchanged = _diff_rows(flat_a, flat_b)
    if rows:
        print(
            render_table(
                ["metric", "labels", "A", "B", "delta", "change"], rows, title=title
            )
        )
    print("%d changed, %d unchanged" % (len(rows), unchanged))


def cmd_stats_diff(path_a: str, path_b: str) -> int:
    """Per-metric deltas between two ``--metrics`` snapshots (B minus A)."""
    flat_a = _flatten_snapshot(load_snapshot(path_a))
    flat_b = _flatten_snapshot(load_snapshot(path_b))
    if not flat_a and not flat_b:
        print("neither file contains metrics sections (not --metrics snapshots?)")
        return 1
    _print_diff(flat_a, flat_b, "Snapshot diff: %s -> %s" % (path_a, path_b))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Pretty-print a metrics snapshot written by ``--metrics``."""
    if args.diff:
        return cmd_stats_diff(args.diff[0], args.diff[1])
    if not args.metrics_file:
        raise UsageError("give a snapshot file, or --diff A.json B.json")
    if args.follow:
        return _stats_follow(args)
    snapshot = load_snapshot(args.metrics_file)
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
    tail = SnapshotTail(args.metrics_file)
    previous = None
    shown = 0
    announced = False

    def poll():
        nonlocal previous, shown, announced
        snapshot = tail.poll()
        if snapshot is None:
            if previous is None and not announced:
                print("waiting for %s…" % args.metrics_file, file=sys.stderr)
                announced = True
            return 0
        flat = _flatten_snapshot(snapshot)
        if previous is None:
            _print_snapshot(snapshot)
        else:
            _print_diff(previous, flat, "Changes in %s" % args.metrics_file)
        previous = flat
        shown += 1
        if args.updates and shown >= args.updates:
            return DONE
        print()
        return 1

    follow(poll, args.follow)
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
    tail = JsonlTail(args.trace_file)
    announced = False
    reported_bad = 0
    reported_resets = 0

    def poll() -> int:
        nonlocal announced, reported_bad, reported_resets
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
                        json.dumps(event.get("data", {}), separators=(",", ":")),
                    )
                )
        if tail.bad_lines > reported_bad:
            print(
                "note: skipped %d malformed line(s) in %s"
                % (tail.bad_lines - reported_bad, args.trace_file),
                file=sys.stderr,
            )
            reported_bad = tail.bad_lines
        if not events and tail.offset == 0 and not announced:
            print("waiting for %s…" % args.trace_file, file=sys.stderr)
            announced = True
        return len(events)

    follow(poll, args.interval, args.exit_idle)
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
    beats: list[dict] = []
    renders = 0

    def poll():
        nonlocal beats, renders
        if renders:
            print()
        renders += 1
        skipped: list[str] = []
        beats = read_heartbeats(directory, skipped=skipped)
        print(render_progress(beats))
        if skipped:
            print(
                "note: skipped %d unreadable heartbeat(s): %s"
                % (len(skipped), ", ".join(skipped)),
                file=sys.stderr,
            )
        if not args.follow or (beats and aggregate(beats)["running"] == 0):
            return DONE
        return 1

    follow(poll, args.interval)
    return 0 if beats or args.follow else 1
