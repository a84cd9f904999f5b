"""Per-cell metric evaluation for ``repro.sweep``.

A spec's metric names follow the grammar of :mod:`repro.core.selectors`,
whose :func:`~repro.core.selectors.validate_metric` checks them when the
spec is parsed, long before any simulation runs.  Three sources feed
them: the classified capture itself (row counts, drops, removal share); the
:meth:`~repro.core.render.CaptureFold.values` of one fold pass over the
capture's rows, asked only for the selectors the spec's names read; and
the *simulation-time* registry snapshot, persisted per cell as
``sim_metrics.json`` so a cache-warm re-run evaluates registry metrics
without re-simulating.  Registry metrics the simulation never touched
evaluate to ``0.0`` (a cell with no drops has no ``net.dropped`` counter
— that zero is the data point, not an error).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core.render import CaptureFold
from repro.core.selectors import (
    ANALYSIS_NAMES,
    CAPTURE_NAMES,
    DROP_REASONS,
    REGISTRY_PREFIXES,
)

DEFAULT_METRICS = (
    "rows.total",
    "rows.backscatter",
    "rows.scans",
    "removed_share",
)


def _from_snapshot(name: str, snapshot: dict) -> float:
    """Resolve a ``counter:``/``gauge:`` metric from a snapshot."""
    kind, _, rest = name.partition(":")
    metric_name, _, key = rest.partition("|")
    body = snapshot.get(kind + "s", {}).get(metric_name)
    if body is None:
        return 0.0
    values = body.get("values", {})
    if key or not body.get("label_names"):
        return float(values.get(key, 0.0))
    return float(sum(values.values()))


def evaluate_metrics(
    metrics: Iterable[str], view, sim_snapshot: dict
) -> Dict[str, float]:
    """Evaluate every requested metric for one cell.

    ``view`` is the cell's classified capture (a
    :class:`~repro.capstore.table.ClassifiedView`); ``sim_snapshot`` the
    simulation-time registry snapshot (``{}`` when the cell ran without
    metrics).  The capture's rows are read at most once per cell, into
    the accumulators the requested names need — a spec recording only
    row counts never touches the dissected packets.
    """
    metrics = list(metrics)
    stats = view.stats
    counts = (len(view), stats.backscatter, stats.scans, stats.total_records)
    drops = tuple(getattr(stats, reason) for reason in DROP_REASONS)
    values = dict(zip(CAPTURE_NAMES, counts + (stats.removed_share,) + drops))
    wanted = {ANALYSIS_NAMES[name][0] for name in metrics if name in ANALYSIS_NAMES}
    if wanted:
        fold = CaptureFold(wanted)
        fold.feed(view.table, 0, len(view))
        values.update(fold.values())
    return {
        name: _from_snapshot(name, sim_snapshot)
        if name.startswith(REGISTRY_PREFIXES)
        else float(values[name])
        for name in metrics
    }
