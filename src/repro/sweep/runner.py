"""The deterministic grid runner behind ``repro sweep run``.

One sweep is a directory::

    <outdir>/
      manifest.json        # spec echo + per-cell status/wall/records
      results.csv          # long-form: axis columns + metric + value
      results.json         # same data, JSON (axes echoed for `render`)
      progress/            # per-cell heartbeats (repro progress/top)
      cells/<cell_id>/
        capture.pcap       # the cell's simulated month
        capture.pcap.capidx
        cell.json          # resolved coordinates/config, for humans
        sim_metrics.json   # simulation-time registry snapshot

Caching is per cell, two layers deep.  A cell whose ``cell_id`` directory
already holds a matching ``cell.json`` and capture skips simulation
entirely (status ``cached``); its metric evaluation then goes through
:func:`~repro.capstore.cache.load_or_build`, whose ``.capidx`` sidecar
turns the dissection into a column load — so a warm re-run touches no
packet bytes at all, and extending one axis simulates only the cells that
did not exist before.  ``capstore.cache`` hit/miss counters (merged into
the caller's registry) are the observable proof.

Determinism contract: ``results.csv``/``results.json`` are byte-identical
for the same spec regardless of worker count, cache state, or how many
times the sweep ran before — everything nondeterministic (wall times,
cache statuses, pids) lives in ``manifest.json`` instead.  Cells simulate
via :func:`~repro.simnet.shard.run_to_pcap`, whose canonical record
order is already worker-count-independent.

``--workers N`` fans *cells* across :func:`repro.pool.run_pool`; one cell
is one in-process simulation (the same primitive a ``--workers N`` shard
worker runs), so the pool is the only process layer.

A ``cell.json`` exists only beside a complete capture, and a sweep that
is interrupted or loses a worker removes the cell directories it had not
finished: the next run resumes from whole cells or from nothing.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import time
from contextlib import closing, suppress
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional

from repro.atomic import atomic_output, remove_orphaned_temps
from repro.capstore import load_or_build
from repro.errors import CommandError
from repro.obs import NULL_OBS, MetricsRegistry, Observability
from repro.obs.progress import HeartbeatWriter, clean_progress_dir
from repro.obs.trace import CAT_SWEEP
from repro.pool import run_pool
from repro.simnet.shard import run_to_pcap
from repro.sweep.metrics import evaluate_metrics
from repro.sweep.render import MANIFEST_NAME, PROGRESS_DIR, RESULTS_JSON, format_value
from repro.sweep.spec import Cell, SweepSpec

RESULTS_CSV = "results.csv"
CELLS_DIR = "cells"


class SweepRunError(CommandError):
    """One or more cells failed; the manifest records which."""


@dataclass
class CellOutcome:
    """What one cell's execution hands back to the sweep parent."""

    index: int
    cell_id: str
    status: str  # "simulated" | "cached" | "failed"
    records: int
    wall_seconds: float
    values: dict  # metric -> float
    snapshot: Optional[dict] = None  # cell-process registry, for merging
    error: str = ""


@dataclass
class SweepResult:
    """What :func:`run_sweep` returns."""

    spec: SweepSpec
    outdir: str
    cells: List[Cell]
    outcomes: List[CellOutcome]
    wall_seconds: float
    csv_path: str = ""
    manifest_path: str = ""

    @property
    def simulated(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "simulated")

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")


def cell_dir(outdir: str, cell: Cell) -> str:
    return os.path.join(outdir, CELLS_DIR, cell.cell_id)


def run_cell(
    cell: Cell,
    metric_names: tuple,
    celldir: str,
    progress_dir: Optional[str] = None,
    force: bool = False,
) -> CellOutcome:
    """Simulate (or reuse) one cell and evaluate its metrics.

    Runs in a pool worker or inline; all observability happens against a
    private registry whose snapshot travels back for the parent to merge
    (the sharded-simulate pushgateway discipline).  Never raises: a
    failing cell reports ``status="failed"`` so its siblings still run
    and the manifest can say which coordinates broke.
    """
    # repro: allow(DET002) -- wall_seconds is a declared nondeterministic
    # fact (manifest.json only; results.csv never sees it)
    start = time.perf_counter()
    registry = MetricsRegistry()
    obs = Observability(metrics=registry)
    heartbeat = (
        HeartbeatWriter(progress_dir, worker=cell.index) if progress_dir else None
    )
    pcap = os.path.join(celldir, "capture.pcap")
    meta_path = os.path.join(celldir, "cell.json")
    try:
        os.makedirs(celldir, exist_ok=True)
        # The directory name *is* the hash of the resolved config, and
        # cell.json vouches for the capture beside it: written last, gone
        # before the capture is rewritten (--force).
        meta = {} if force else _load_json(meta_path)
        cached = meta.get("cell_id") == cell.cell_id and os.path.exists(pcap)
        if cached:
            records = int(meta.get("records", 0))
            sim_snapshot = _load_json(os.path.join(celldir, "sim_metrics.json"))
            if heartbeat is not None:
                heartbeat.update("cached", records=records, final=True)
        else:
            with suppress(FileNotFoundError):
                os.remove(meta_path)
            sim_registry = MetricsRegistry()
            with obs.span("sweep.simulate"):
                records = run_to_pcap(
                    cell.config,
                    pcap,
                    obs=Observability(metrics=sim_registry),
                    heartbeat=heartbeat,
                )
            sim_snapshot = sim_registry.snapshot()
            _dump_json(os.path.join(celldir, "sim_metrics.json"), sim_snapshot)
            _dump_json(
                meta_path,
                {
                    "cell_id": cell.cell_id,
                    "coords": [list(pair) for pair in cell.coords],
                    "records": records,
                    "seed": cell.config.seed,
                    "config": asdict(cell.config),
                },
            )
        view, _hit = load_or_build(pcap, obs=obs)
        with obs.span("sweep.evaluate"):
            values = evaluate_metrics(metric_names, view, sim_snapshot)
    except Exception as exc:  # noqa: BLE001 - reported via the manifest
        return CellOutcome(
            index=cell.index,
            cell_id=cell.cell_id,
            status="failed",
            records=0,
            # repro: allow(DET002) -- closes the manifest-only wall interval
            wall_seconds=time.perf_counter() - start,
            values={},
            snapshot=registry.snapshot(),
            error="%s: %s" % (type(exc).__name__, exc),
        )
    return CellOutcome(
        index=cell.index,
        cell_id=cell.cell_id,
        status="cached" if cached else "simulated",
        records=records,
        # repro: allow(DET002) -- closes the manifest-only wall interval
        wall_seconds=time.perf_counter() - start,
        values=values,
        snapshot=registry.snapshot(),
    )


def _cell_main(payload: tuple) -> CellOutcome:
    """Picklable pool entry around :func:`run_cell`."""
    return run_cell(*payload)


def run_sweep(
    spec: SweepSpec,
    outdir: str,
    workers: int = 1,
    force: bool = False,
    obs: Optional[Observability] = None,
    on_cell: Optional[Callable[[Cell, CellOutcome], None]] = None,
) -> SweepResult:
    """Expand ``spec``, run every cell, write manifest + long-form results.

    ``workers > 1`` fans cells across :func:`~repro.pool.run_pool`;
    outcomes are reordered by cell index before anything is written, so
    the results files are byte-identical to a serial run.  ``force``
    re-simulates even cached cells.  ``on_cell`` fires as each outcome
    arrives (pool order), for live CLI reporting.  Raises
    :class:`SweepRunError` after writing the manifest when any cell
    failed — the partial sweep state stays inspectable via
    ``repro sweep status``.  A run cut short (a dead worker, an
    interrupt) removes the directories of the cells it had not finished.
    """
    obs = obs or NULL_OBS
    cells = spec.cells()
    os.makedirs(os.path.join(outdir, CELLS_DIR), exist_ok=True)
    progress_dir = os.path.join(outdir, PROGRESS_DIR)
    clean_progress_dir(progress_dir)
    _write_manifest(outdir, spec, workers, cells, outcomes=None)
    if obs.tracer.enabled:
        obs.tracer.emit(
            CAT_SWEEP,
            "sweep_plan",
            time=0.0,
            name=spec.name,
            cells=len(cells),
            axes={axis: len(values) for axis, values in spec.axes.items()},
            workers=workers,
        )
    cells_by_index = {cell.index: cell for cell in cells}
    payloads = [
        (cell, spec.metrics, cell_dir(outdir, cell), progress_dir, force)
        for cell in cells
    ]
    gauge = obs.metrics.gauge("sweep.cells", ("state",)) if obs.metrics else None
    if gauge is not None:
        gauge.set_key(("total",), len(cells))

    # repro: allow(DET002) -- sweep wall_seconds is reported to the operator
    # and manifest only, never folded into results
    start = time.perf_counter()
    outcomes: List[CellOutcome] = []

    def collect(outcome: CellOutcome) -> None:
        outcomes.append(outcome)
        if gauge is not None:
            gauge.set_key(("done",), len(outcomes))
            gauge.set_key(
                (outcome.status,),
                sum(1 for o in outcomes if o.status == outcome.status),
            )
        if obs.tracer.enabled:
            obs.tracer.emit(
                CAT_SWEEP,
                "cell_done",
                time=0.0,
                cell=outcome.cell_id,
                label=cells_by_index[outcome.index].label,
                status=outcome.status,
                records=outcome.records,
                wall_seconds=round(outcome.wall_seconds, 3),
            )
        if on_cell is not None:
            on_cell(cells_by_index[outcome.index], outcome)

    # No span of the parent's own: every cell times its stages into its
    # registry, merged below, and a parent duplicate would double-count.
    try:
        if workers > 1 and len(cells) > 1:
            # closing(): the pool's workers die here, not whenever the
            # generator is collected.
            with closing(run_pool(_cell_main, payloads, "cell", workers)) as done:
                for _index, outcome in done:
                    collect(outcome)
        else:
            for payload in payloads:
                collect(_cell_main(payload))
    except BaseException:
        for celldir in (cell_dir(outdir, cell) for cell in cells):
            if not os.path.exists(os.path.join(celldir, "cell.json")):
                shutil.rmtree(celldir, ignore_errors=True)
        remove_orphaned_temps(outdir)
        raise
    # repro: allow(DET002) -- closes the operator-facing wall interval
    wall = time.perf_counter() - start

    outcomes.sort(key=lambda o: o.index)
    if obs.metrics is not None:
        for outcome in outcomes:
            if outcome.snapshot:
                obs.metrics.merge_snapshot(outcome.snapshot)
        obs.metrics.gauge("sweep.wall_seconds").set_key((), wall)
    result = SweepResult(
        spec=spec,
        outdir=outdir,
        cells=cells,
        outcomes=outcomes,
        wall_seconds=wall,
        manifest_path=_write_manifest(outdir, spec, workers, cells, outcomes),
    )
    failed = [o for o in outcomes if o.status == "failed"]
    if failed:
        raise SweepRunError(
            "%d of %d cells failed: %s (see `repro sweep status %s`)"
            % (
                len(failed),
                len(cells),
                "; ".join(
                    "%s (%s)" % (cells_by_index[o.index].label, o.error)
                    for o in failed[:5]
                ),
                outdir,
            )
        )
    result.csv_path = _write_results(outdir, spec, cells, outcomes)
    return result


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _write_manifest(
    outdir: str,
    spec: SweepSpec,
    workers: int,
    cells: List[Cell],
    outcomes: Optional[List[CellOutcome]],
) -> str:
    """The nondeterministic half of the output: statuses, wall times.

    Written twice per run — once up front with every cell ``pending`` (so
    ``repro sweep status`` has something to aggregate mid-run alongside
    the heartbeats) and once at the end with real outcomes.
    """
    by_index = {o.index: o for o in outcomes} if outcomes else {}
    cell_docs = []
    for cell in cells:
        outcome = by_index.get(cell.index)
        cell_docs.append(
            {
                "index": cell.index,
                "cell_id": cell.cell_id,
                "label": cell.label,
                "coords": [list(pair) for pair in cell.coords],
                "seed": cell.config.seed,
                "pcap": os.path.join(CELLS_DIR, cell.cell_id, "capture.pcap"),
                "status": outcome.status if outcome else "pending",
                "records": outcome.records if outcome else 0,
                "wall_seconds": round(outcome.wall_seconds, 3) if outcome else 0.0,
                "error": outcome.error if outcome else "",
            }
        )
    doc = {
        "spec": {
            "name": spec.name,
            "axes": spec.axes,
            "base": spec.base,
            "metrics": list(spec.metrics),
            "seed_mode": spec.seed_mode,
        },
        "workers": workers,
        "cells": cell_docs,
        "totals": {
            "cells": len(cells),
            "simulated": sum(1 for c in cell_docs if c["status"] == "simulated"),
            "cached": sum(1 for c in cell_docs if c["status"] == "cached"),
            "failed": sum(1 for c in cell_docs if c["status"] == "failed"),
            "pending": sum(1 for c in cell_docs if c["status"] == "pending"),
        },
    }
    path = os.path.join(outdir, MANIFEST_NAME)
    _dump_json(path, doc)
    return path


def results_rows(
    spec: SweepSpec, cells: List[Cell], outcomes: List[CellOutcome]
) -> List[List[str]]:
    """Long-form rows: one per (cell, metric), in cell-then-spec order."""
    by_index = {o.index: o for o in outcomes}
    rows = []
    for cell in cells:
        outcome = by_index[cell.index]
        coord_text = [format_value(value) for _axis, value in cell.coords]
        for metric in spec.metrics:
            rows.append(
                coord_text + [metric, format_value(outcome.values[metric])]
            )
    return rows


def _write_results(
    outdir: str, spec: SweepSpec, cells: List[Cell], outcomes: List[CellOutcome]
) -> str:
    """The deterministic half: metric values keyed by cell coordinates.

    Both files are pure functions of (spec, simulated behaviour): no wall
    times, no cache statuses, no absolute paths — re-running the sweep,
    warm or cold, serial or pooled, reproduces them byte for byte.
    """
    header = list(spec.axis_names) + ["metric", "value"]
    rows = results_rows(spec, cells, outcomes)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    csv_path = os.path.join(outdir, RESULTS_CSV)
    with atomic_output(csv_path, "wb") as fileobj:  # "\n" on every platform
        fileobj.write(buffer.getvalue().encode())
    by_index = {o.index: o for o in outcomes}
    _dump_json(
        os.path.join(outdir, RESULTS_JSON),
        {
            "spec": spec.name,
            "axes": spec.axes,
            "metrics": list(spec.metrics),
            "cells": [
                {
                    "coords": [list(pair) for pair in cell.coords],
                    "cell_id": cell.cell_id,
                    "values": by_index[cell.index].values,
                }
                for cell in cells
            ],
        },
    )
    return csv_path


def _dump_json(path: str, doc: dict) -> None:
    # Insertion order, not sort_keys: the axes mapping's order is semantic
    # (render defaults lean on it) and construction is already canonical.
    with atomic_output(path) as fileobj:
        json.dump(doc, fileobj, indent=2)
        fileobj.write("\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fileobj:
            return json.load(fileobj)
    except (OSError, ValueError):
        return {}
