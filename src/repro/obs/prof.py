"""Deterministic hot-path profiler: stage tree, speedscope export.

The ROADMAP's "vectorize the per-packet hot path" item needs *attribution*
before optimization: which stage of which packet's lifecycle burns the
wall time — key derivation, AEAD sealing, header protection, dissection,
or plain event dispatch.  A conventional wall-clock sampling profiler
(SIGPROF / ``py-spy``) cannot answer that here, because the pipeline's
determinism gates forbid anything timing-dependent in the simulated path.
This profiler is therefore **event-count triggered**: which occurrences
of a stage get timed is a pure function of per-stage call counters, so
two runs of the same scenario sample the identical set of occurrences and
the shard/analyze byte-parity gates keep holding.  Wall clocks are read
*only* to measure the sampled occurrences; they never influence control
flow.

Structure:

* :class:`Profiler` owns a tree of :class:`_StageNode`\\ s, one per
  ``(path, profile)`` — the span layer (``repro.obs.spans``) pushes and
  pops named stages, hot leaves (AEAD, header protection, per-record
  dissection) use the cheaper :meth:`leaf_begin`/:meth:`leaf_end` pair.
* Every stage's first occurrence is always timed (rare stages are exact),
  then every ``every``-th after that; elapsed totals are rescaled by
  ``calls / sampled`` at snapshot time, so estimates stay unbiased for
  stages with homogeneous cost.
* :meth:`snapshot` / :meth:`merge_snapshot` mirror the metrics registry's
  pushgateway discipline: shard workers profile independently and the
  parent folds their trees into one.
* Exports: Prometheus histograms (``prof.stage_seconds`` per
  stage×profile, observed live into an attached registry) and
  speedscope-format JSON (:meth:`to_speedscope`) for flamegraph viewing
  at https://www.speedscope.app/.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.atomic import atomic_output

#: ``prof.stage_seconds`` histogram bounds: from single AEAD calls (~µs)
#: up to whole pipeline stages.  Static so shard workers always register
#: identical buckets (snapshot merging requires it).
STAGE_SECONDS_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)

#: Path separator in snapshots and speedscope frame names.
PATH_SEP = "/"


class _StageNode:
    """One stage×profile aggregate in the profiler's call tree."""

    __slots__ = (
        "name",
        "profile",
        "parent",
        "children",
        "calls",
        "sampled",
        "wall",
        "packets",
        "path",
    )

    def __init__(
        self, name: str, profile: Optional[str], parent: Optional["_StageNode"]
    ) -> None:
        self.name = name
        self.profile = profile
        self.parent = parent
        self.children: Dict[Tuple[str, Optional[str]], _StageNode] = {}
        self.calls = 0
        self.sampled = 0
        self.wall = 0.0  # seconds actually measured (sampled occurrences)
        self.packets = 0
        if parent is None or not parent.name:
            self.path = name
        else:
            self.path = parent.path + PATH_SEP + name

    def child(self, name: str, profile: Optional[str]) -> "_StageNode":
        key = (name, profile)
        node = self.children.get(key)
        if node is None:
            node = self.children[key] = _StageNode(name, profile, self)
        return node

    def wall_estimate(self) -> float:
        """Estimated total wall seconds: measured, rescaled by sampling."""
        if not self.sampled:
            return 0.0
        return self.wall * (self.calls / self.sampled)

    def self_estimate(self) -> float:
        """Own time: estimate minus children (clamped — estimates can cross)."""
        children = sum(c.wall_estimate() for c in self.children.values())
        return max(self.wall_estimate() - children, 0.0)


class Profiler:
    """Event-count-sampled stage profiler (see module docstring).

    ``every`` is the sampling interval per stage node: occurrence 1 is
    always timed, then 1+every, 1+2·every… — deterministic for a given
    call sequence.  ``metrics``, when given, receives a
    ``prof.stage_seconds`` histogram observation (labels ``stage``,
    ``profile``) for every *measured* occurrence, so Prometheus dashboards
    see live per-stage latency without waiting for the speedscope dump.
    """

    def __init__(self, every: int = 64, metrics=None) -> None:
        if every < 1:
            raise ValueError("profiler sampling interval must be >= 1 (got %r)" % every)
        self.every = every
        self.metrics = metrics
        self.root = _StageNode("", None, None)
        self._stack: List[_StageNode] = [self.root]
        self._span_ids: List[int] = [0]
        self._next_id = 1
        self._hist = (
            metrics.histogram(
                "prof.stage_seconds", STAGE_SECONDS_BOUNDS, ("stage", "profile")
            )
            if metrics is not None
            else None
        )

    # ------------------------------------------------------------- span API
    @property
    def current_path(self) -> str:
        return self._stack[-1].path

    @property
    def current_span_id(self) -> int:
        return self._span_ids[-1]

    def push(self, name: str, profile: Optional[str] = None):
        """Enter a stage; returns ``(node, start, span_id, parent_id)``.

        Span ids are assigned to *every* occurrence from a plain counter —
        before any sampling decision — so parent/child links in the trace
        stay stable no matter how the profiler or a
        :class:`~repro.obs.sinks.SamplingTracer` thins events.
        """
        node = self._stack[-1].child(name, profile)
        node.calls += 1
        start = perf_counter() if (node.calls - 1) % self.every == 0 else None
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._span_ids[-1]
        self._stack.append(node)
        self._span_ids.append(span_id)
        return node, start, span_id, parent_id

    def pop(self, node: _StageNode, start: Optional[float], packets: int = 0) -> None:
        """Leave the current stage, accounting elapsed time if sampled."""
        self._stack.pop()
        self._span_ids.pop()
        node.packets += packets
        if start is not None:
            elapsed = perf_counter() - start
            node.sampled += 1
            node.wall += elapsed
            if self._hist is not None:
                self._hist.observe_key((node.name, node.profile or ""), elapsed)

    # ------------------------------------------------------------- leaf API
    def leaf_begin(self, name: str, profile: Optional[str] = None):
        """Cheap enter for leaf stages (no children, no trace events)."""
        node = self._stack[-1].child(name, profile)
        node.calls += 1
        start = perf_counter() if (node.calls - 1) % self.every == 0 else None
        return node, start

    def leaf_end(
        self, node: _StageNode, start: Optional[float], packets: int = 0
    ) -> None:
        node.packets += packets
        if start is not None:
            elapsed = perf_counter() - start
            node.sampled += 1
            node.wall += elapsed
            if self._hist is not None:
                self._hist.observe_key((node.name, node.profile or ""), elapsed)

    # ------------------------------------------------------------- export
    def _walk(self):
        """Yield every populated node, depth-first in sorted child order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is not self.root:
                yield node
            for key in sorted(node.children, reverse=True):
                stack.append(node.children[key])

    def snapshot(self) -> dict:
        """The whole tree as JSON-ready dicts (mergeable, see below)."""
        nodes = []
        for node in self._walk():
            segments = []
            cursor = node
            while cursor is not None and cursor.name:
                segments.append([cursor.name, cursor.profile])
                cursor = cursor.parent
            nodes.append(
                {
                    "path": list(reversed(segments)),
                    "calls": node.calls,
                    "sampled": node.sampled,
                    "wall": node.wall,
                    "packets": node.packets,
                }
            )
        return {"every": self.every, "nodes": nodes}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another profiler's :meth:`snapshot` into this tree.

        The pushgateway step of a sharded run: each worker process
        profiles its shard, the parent merges.  Counters and measured
        seconds add; estimates are recomputed from the merged sums.
        """
        for entry in snapshot.get("nodes", ()):
            node = self.root
            for name, profile in entry["path"]:
                node = node.child(name, profile)
            node.calls += entry["calls"]
            node.sampled += entry["sampled"]
            node.wall += entry["wall"]
            node.packets += entry["packets"]

    def total_estimate(self) -> float:
        """Estimated wall seconds across all root-level stages."""
        return sum(c.wall_estimate() for c in self.root.children.values())

    def stage_totals(self) -> Dict[str, dict]:
        """Per stage *name* (summed over paths/profiles): self-time totals.

        This is the flat attribution table BENCH_prof.json records: for
        each stage name, estimated self seconds, calls, and packets.
        """
        totals: Dict[str, dict] = {}
        for node in self._walk():
            entry = totals.setdefault(
                node.name, {"self_seconds": 0.0, "calls": 0, "packets": 0}
            )
            entry["self_seconds"] += node.self_estimate()
            entry["calls"] += node.calls
            entry["packets"] += node.packets
        return totals

    def stage_shares(self) -> Dict[str, float]:
        """Each stage name's share of total estimated self time (sums to 1)."""
        totals = self.stage_totals()
        grand = sum(entry["self_seconds"] for entry in totals.values())
        if grand <= 0:
            return {}
        return {
            name: entry["self_seconds"] / grand for name, entry in totals.items()
        }

    def to_speedscope(self, name: str = "repro pipeline") -> dict:
        """The stage tree as a speedscope ``sampled`` profile document.

        One sample per populated node: the sample's stack is the node's
        path, its weight the node's *self* time (estimate minus children),
        so the flamegraph shows exactly where the pipeline's wall time
        went.  Viewable at https://www.speedscope.app/ or with the
        ``speedscope`` CLI.
        """
        frames: List[dict] = []
        frame_index: Dict[str, int] = {}

        def frame(label: str) -> int:
            if label not in frame_index:
                frame_index[label] = len(frames)
                frames.append({"name": label})
            return frame_index[label]

        samples: List[List[int]] = []
        weights: List[float] = []

        def descend(node: _StageNode, stack: List[int]) -> None:
            label = node.name if node.profile is None else (
                "%s [%s]" % (node.name, node.profile)
            )
            here = stack + [frame(label)]
            self_weight = node.self_estimate()
            if self_weight > 0 or not node.children:
                samples.append(here)
                weights.append(round(self_weight, 9))
            for key in sorted(node.children):
                descend(node.children[key], here)

        for key in sorted(self.root.children):
            descend(self.root.children[key], [])
        total = round(sum(weights), 9)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
            "activeProfileIndex": 0,
            "exporter": "repro-prof",
            "name": name,
        }

    def write_speedscope(self, path: str, name: str = "repro pipeline") -> None:
        with atomic_output(path) as fileobj:
            json.dump(self.to_speedscope(name), fileobj, indent=1, sort_keys=True)
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
