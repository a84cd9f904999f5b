"""``--profile``: the stage timers as a table and as speedscope JSON.

There is one stage clock, :meth:`Observability.span
<repro.obs.Observability.span>`: every span books its wall seconds into
the metrics registry's ``timers``, keyed by its ``/``-joined path
(``simulate.build/simulate.unit``).  A sharded run's workers snapshot
their registries and the parent merges them, timers included, so the
functions here read one mapping whatever the worker count.  Spans open
per stage, never per packet, so a profiled run executes the same code
as an unprofiled one; per-layer attribution of crypto, network and
engine time is the end-to-end benchmark's traced mode
(``benchmarks/e2e/run.py --trace 1``).

* :func:`stage_rows` — per path: calls, total seconds, self seconds
  (total minus the totals of the stages nested directly inside it) and
  share of the summed self time;
* :func:`render_profile` — the exit table ``--profile`` prints;
* :func:`to_speedscope` / :func:`write_speedscope` — the same tree as a
  speedscope ``sampled`` document, one sample per stage weighted by its
  self time, for https://www.speedscope.app/;
* :func:`validate_speedscope` — the schema check CI runs on the export.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Sequence

from repro.atomic import atomic_output
from repro.core.report import render_table
from repro.obs.spans import PATH_SEP

#: ``{path: [seconds, calls]}``: the shape of ``MetricsRegistry.timers``.
Timers = Mapping[str, Sequence[float]]


def stage_rows(timers: Timers) -> List[dict]:
    """One row per stage path, sorted by path: the attribution table.

    ``self_seconds`` is clamped at 0: merged worker timers and a parent's
    own can overlap.
    """
    children: Dict[str, float] = {}
    for path, (seconds, _calls) in timers.items():
        if PATH_SEP in path:
            parent = path.rsplit(PATH_SEP, 1)[0]
            children[parent] = children.get(parent, 0.0) + seconds
    rows = [
        {
            "stage": path,
            "calls": int(calls),
            "seconds": seconds,
            "self_seconds": max(seconds - children.get(path, 0.0), 0.0),
        }
        for path, (seconds, calls) in sorted(timers.items())
    ]
    grand = sum(row["self_seconds"] for row in rows)
    for row in rows:
        row["share"] = row["self_seconds"] / grand if grand > 0 else 0.0
    return rows


def render_profile(timers: Timers) -> str:
    """The ``--profile`` exit table: every stage, by self time."""
    rows = sorted(stage_rows(timers), key=lambda row: -row["self_seconds"])
    top = sum(
        seconds for path, (seconds, _calls) in timers.items() if PATH_SEP not in path
    )
    return render_table(
        ["stage", "calls", "total [s]", "self [s]", "share"],
        [
            [
                row["stage"],
                row["calls"],
                "%.3f" % row["seconds"],
                "%.3f" % row["self_seconds"],
                "%.1f%%" % (100.0 * row["share"]),
            ]
            for row in rows
        ],
        title="Profile (%d stages, %.3f s in top-level stages)" % (len(rows), top),
    )


def to_speedscope(timers: Timers, name: str = "repro pipeline") -> dict:
    """The stage tree as a speedscope ``sampled`` profile document.

    One sample per stage: its stack is the stage's path, its weight the
    stage's self time, so the flamegraph shows where the wall time went.
    """
    frames: List[dict] = []
    frame_index: Dict[str, int] = {}
    samples: List[List[int]] = []
    weights: List[float] = []
    for row in stage_rows(timers):
        stack = []
        for label in row["stage"].split(PATH_SEP):
            if label not in frame_index:
                frame_index[label] = len(frames)
                frames.append({"name": label})
            stack.append(frame_index[label])
        samples.append(stack)
        weights.append(round(row["self_seconds"], 9))
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": round(sum(weights), 9),
                "samples": samples,
                "weights": weights,
            }
        ],
        "activeProfileIndex": 0,
        "exporter": "repro-prof",
        "name": name,
    }


def write_speedscope(path: str, timers: Timers, name: str = "repro pipeline") -> None:
    with atomic_output(path) as fileobj:
        json.dump(to_speedscope(timers, name), fileobj, indent=1, sort_keys=True)
        fileobj.write("\n")


def validate_speedscope(doc: dict) -> List[str]:
    """Schema-check a speedscope document; returns problems (empty = valid).

    Covers the invariants the speedscope file-format schema enforces for
    the profile types this repo emits: required top-level keys, frame
    shape, and per-profile consistency (``sampled`` stacks reference real
    frames and pair 1:1 with weights; ``evented`` events stay in
    ``startValue..endValue``).
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if "$schema" not in doc:
        problems.append("missing $schema")
    frames = doc.get("shared", {}).get("frames")
    if not isinstance(frames, list):
        problems.append("shared.frames missing or not a list")
        frames = []
    for index, entry in enumerate(frames):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            problems.append("frame %d lacks a string name" % index)
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        problems.append("profiles missing or empty")
        profiles = []
    for index, profile in enumerate(profiles):
        where = "profile %d" % index
        kind = profile.get("type")
        if kind not in ("sampled", "evented"):
            problems.append("%s: unknown type %r" % (where, kind))
            continue
        for field in ("name", "unit", "startValue", "endValue"):
            if field not in profile:
                problems.append("%s: missing %s" % (where, field))
        if kind == "sampled":
            samples = profile.get("samples", [])
            weights = profile.get("weights", [])
            if len(samples) != len(weights):
                problems.append(
                    "%s: %d samples vs %d weights"
                    % (where, len(samples), len(weights))
                )
            for sample in samples:
                if any(
                    not isinstance(i, int) or i < 0 or i >= len(frames)
                    for i in sample
                ):
                    problems.append("%s: sample references unknown frame" % where)
                    break
            if any(w < 0 for w in weights):
                problems.append("%s: negative weight" % where)
        else:  # evented
            start = profile.get("startValue", 0)
            end = profile.get("endValue", 0)
            for event in profile.get("events", []):
                if event.get("type") not in ("O", "C"):
                    problems.append("%s: bad event type %r" % (where, event.get("type")))
                    break
                if not start <= event.get("at", start) <= end:
                    problems.append("%s: event outside start/end range" % where)
                    break
    index = doc.get("activeProfileIndex")
    if index is not None and not (
        isinstance(index, int) and 0 <= index < max(len(profiles), 1)
    ):
        problems.append("activeProfileIndex out of range")
    return problems
