"""Cross-process progress plane: atomic heartbeat files, live rendering.

A month-at-paper-scale sharded run is opaque from the outside: workers
are separate processes, their traces are per-process files, and the
parent waits on the pool.  This module gives every worker a
*heartbeat file* — one small JSON document, rewritten atomically
(:func:`repro.atomic.atomic_output`, the node_exporter textfile-collector
discipline :class:`~repro.obs.export.PromFileWriter` follows too) — in a
shared progress directory next to the output pcap.  Readers never see a torn
write: they either get the previous complete document or the new one.

``repro progress <target>`` aggregates the directory into a table;
``repro top <target>`` follows it live.  The heartbeat carries enough
for an ETA: events done vs. expected, a rolling rate, and the stage the
worker is in.

ETA calibration: a traffic unit's ``weight`` counts its *packets*, but
the loop processes more events than packets sent: one per sent packet,
plus a delivery to every device that can react (the servers) and their
timers.  A delivery to the telescope is not an event — it is handed each
datagram at transmit time — so a scan costs exactly one event per unit of
weight and an attack about 1.5.  Measured on the standard scenario, the
ratio is ~1.2 (:data:`EVENTS_PER_WEIGHT`); shard totals are scaled by it
so the ETA denominator is in the same currency as the numerator.
"""

from __future__ import annotations

import glob
import json
import os
import time as _wall
from typing import List, Optional

from repro.atomic import atomic_output
from repro.core.report import render_table
from repro.errors import InputFileError

#: Event-loop events per unit of traffic-unit weight (measured 1.23 on
#: the standard scenario: ``events`` over ``unit_weight`` in
#: ``BENCH_prof.json``, which ``benchmarks/bench_prof.py`` writes).  Used
#: only for ETA display, never in any simulated decision.
EVENTS_PER_WEIGHT = 1.2

#: Heartbeat filename suffix; ``read_heartbeats`` globs for it, so the
#: pid-unique ``.tmp`` staging files are invisible to readers.
HEARTBEAT_SUFFIX = ".hb.json"


class HeartbeatWriter:
    """One worker's progress file, atomically rewritten at most ~2 Hz.

    ``total`` is the worker's expected event count (its shard weight
    times :data:`EVENTS_PER_WEIGHT`); ``update`` calls are cheap when
    rate-limited away, so callers can invoke it from tight loops.
    """

    def __init__(
        self,
        directory: str,
        worker: int,
        total: float = 0.0,
        min_interval: float = 0.5,
    ) -> None:
        self.worker = worker
        self.total = total
        self.min_interval = min_interval
        self.path = os.path.join(directory, "worker%d%s" % (worker, HEARTBEAT_SUFFIX))
        self._started = _wall.time()
        self._last_write = 0.0
        os.makedirs(directory, exist_ok=True)

    def update(
        self,
        stage: str,
        done: float = 0.0,
        records: int = 0,
        sim_time: float = 0.0,
        final: bool = False,
    ) -> bool:
        """Rewrite the heartbeat; returns True if a write happened.

        Rate-limited to one write per ``min_interval`` wall seconds
        except when ``final`` (completion must always land).
        """
        now = _wall.time()
        if not final and now - self._last_write < self.min_interval:
            return False
        self._last_write = now
        elapsed = now - self._started
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = max(self.total - done, 0.0)
        eta = remaining / rate if rate > 0 and self.total else None
        doc = {
            "worker": self.worker,
            "pid": os.getpid(),
            "stage": stage,
            "done": done,
            "total": self.total,
            "records": records,
            "sim_time": round(sim_time, 6),
            "started": self._started,
            "updated": now,
            "rate": round(rate, 3),
            "eta": round(eta, 3) if eta is not None else None,
            "status": "done" if final else "running",
        }
        with atomic_output(self.path) as fileobj:
            json.dump(doc, fileobj, separators=(",", ":"))
            fileobj.write("\n")
        return True


def clean_progress_dir(directory: str) -> None:
    """Drop stale heartbeats so a new run starts with an empty table."""
    # repro: allow(DET005) -- deleting every match: removal order cannot leak
    for path in glob.glob(os.path.join(directory, "*" + HEARTBEAT_SUFFIX)):
        try:
            os.remove(path)
        except OSError:
            pass


def read_heartbeats(
    directory: str, skipped: Optional[List[str]] = None
) -> List[dict]:
    """All readable heartbeats in ``directory``, sorted by worker index.

    Tolerant by design: a heartbeat deleted between the directory listing
    and the read (a finishing run cleaning up under a live ``repro top``),
    mid-replace, or containing garbage bytes is skipped rather than
    failing the whole table.  ``ValueError`` covers both malformed JSON
    and non-UTF-8 content (``UnicodeDecodeError``), neither of which a
    renderer polling someone else's files can prevent.  ``skipped``, if
    given, collects the basenames of files that were passed over so the
    caller can surface a one-line note.
    """
    beats = []
    for path in sorted(glob.glob(os.path.join(directory, "*" + HEARTBEAT_SUFFIX))):
        try:
            with open(path) as fileobj:
                doc = json.load(fileobj)
        except (OSError, ValueError):
            if skipped is not None:
                skipped.append(os.path.basename(path))
            continue
        if isinstance(doc, dict):
            beats.append(doc)
    beats.sort(key=lambda d: d.get("worker", 0))
    return beats


def resolve_progress_dir(target: str) -> str:
    """Map a CLI target to its progress directory.

    Accepts the directory itself, the simulate output path (the run
    writes heartbeats to ``<output>.progress/``), or a sweep output
    directory (``repro sweep run`` writes per-cell heartbeats to
    ``<outdir>/progress/``).  A one-line error when none exists —
    progress inspection must never traceback on a finished/cleaned run.
    """
    if os.path.isdir(target):
        nested = os.path.join(target, "progress")
        if not glob.glob(
            os.path.join(target, "*" + HEARTBEAT_SUFFIX)
        ) and os.path.isdir(nested):
            return nested
        return target
    candidate = target + ".progress"
    if os.path.isdir(candidate):
        return candidate
    raise InputFileError(
        "no progress directory at %r or %r (is the run sharded and "
        "started, or already cleaned up?)" % (target, candidate)
    )


def aggregate(beats: List[dict]) -> dict:
    """Whole-run totals across worker heartbeats."""
    done = sum(b.get("done") or 0 for b in beats)
    total = sum(b.get("total") or 0 for b in beats)
    records = sum(b.get("records") or 0 for b in beats)
    running = [b for b in beats if b.get("status") != "done"]
    etas = [b["eta"] for b in running if b.get("eta") is not None]
    return {
        "workers": len(beats),
        "running": len(running),
        "done": done,
        "total": total,
        "records": records,
        "percent": 100.0 * done / total if total else 0.0,
        "eta": max(etas) if etas else None,
    }


def _format_eta(eta: Optional[float]) -> str:
    if eta is None:
        return "-"
    if eta >= 3600:
        return "%dh%02dm" % (eta // 3600, (eta % 3600) // 60)
    if eta >= 60:
        return "%dm%02ds" % (eta // 60, eta % 60)
    return "%.1fs" % eta


def render_progress(beats: List[dict], now: Optional[float] = None) -> str:
    """The per-worker progress table plus a one-line total."""
    if not beats:
        return "(no heartbeats yet)"
    now = _wall.time() if now is None else now
    rows = []
    for beat in beats:
        total = beat.get("total") or 0
        done = beat.get("done") or 0
        percent = 100.0 * done / total if total else 0.0
        age = now - beat.get("updated", now)
        rows.append(
            [
                beat.get("worker", "?"),
                beat.get("stage", "?"),
                "%.1f%%" % percent,
                int(done),
                int(total),
                beat.get("records", 0),
                "%.1f" % beat.get("sim_time", 0.0),
                _format_eta(beat.get("eta")) if beat.get("status") != "done" else "done",
                "%.1fs" % age,
            ]
        )
    table = render_table(
        ["worker", "stage", "pct", "events", "expected", "records", "sim_t", "eta", "age"],
        rows,
    )
    totals = aggregate(beats)
    summary = "total: %d/%d events (%.1f%%), %d records, %d/%d workers running, eta %s" % (
        totals["done"],
        totals["total"],
        totals["percent"],
        totals["records"],
        totals["running"],
        totals["workers"],
        _format_eta(totals["eta"]),
    )
    return table + "\n" + summary


def expected_events(weight: float) -> float:
    """ETA denominator for a shard of the given total unit weight."""
    return weight * EVENTS_PER_WEIGHT
