"""Per-cell metric evaluation for ``repro.sweep``.

A sweep spec names the metrics to record per grid cell.  Three sources
feed them:

* the classified capture itself (row counts, removal share);
* the ``repro.core`` accumulators (version shares, packet mixes, SCID
  uniqueness, off-net counts), filled by one
  :class:`~repro.core.render.CaptureFold` pass over the capture's rows —
  the loop ``repro analyze`` renders from, asked only for what the
  spec's names read;
* the *simulation-time* metrics registry snapshot, persisted per cell as
  ``sim_metrics.json`` so a cache-warm re-run can evaluate registry
  metrics without re-simulating.

Metric grammar (``validate_metric`` enforces it at spec-parse time, long
before any simulation runs):

===========================================  ==================================
name                                         value
===========================================  ==================================
``rows.total``                               sanitized rows in the capture
``rows.backscatter`` / ``rows.scans``        rows per packet class
``records.total``                            raw records before sanitization
``removed_share``                            fraction removed by sanitization
``version_share.<side>.<bucket>``            Table 2 share [%], ``side`` in
                                             clients/servers, ``bucket`` a
                                             ``TABLE2_ROWS`` entry
``packet_share.<origin>.<category>``         Table 3 share [%], ``origin`` a
                                             hypergiant/Remaining, ``category``
                                             a ``TABLE3_ROWS`` entry
``scid_unique.<origin>``                     Table 4 unique SCID count
``offnet.servers`` / ``offnet.low_host_id``  off-net servers seen / with
                                             low-entropy host IDs (Table 6)
``counter:<name>[|<labels>]``                sim-time counter total (or one
                                             ``|``-joined label key)
``gauge:<name>[|<labels>]``                  sim-time gauge value
``timer:<stage>``                            sim-time stage seconds
===========================================  ==================================

Registry metrics that the simulation never touched evaluate to ``0.0``
(a cell with no drops has no ``net.dropped`` counter — that zero is the
data point, not an error).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core.packet_mix import TABLE3_ROWS
from repro.core.render import ORIGINS, CaptureFold
from repro.core.versions import TABLE2_ROWS

SIDES = ("clients", "servers")

DEFAULT_METRICS = (
    "rows.total",
    "rows.backscatter",
    "rows.scans",
    "removed_share",
)

_FIXED = {
    "rows.total",
    "rows.backscatter",
    "rows.scans",
    "records.total",
    "removed_share",
    "offnet.servers",
    "offnet.low_host_id",
}

#: Registry-snapshot prefixes: the name after the colon is free-form.
_REGISTRY_PREFIXES = ("counter:", "gauge:", "timer:")

#: First component of an analysis metric → the :class:`CaptureFold`
#: selector whose accumulators it is read from.
_SELECTORS = {
    "version_share": "2",
    "packet_share": "3",
    "scid_unique": "4",
    "offnet": "offnet",
}


def validate_metric(name: str) -> None:
    """Raise ``ValueError`` for a metric name the evaluator cannot serve."""
    if not isinstance(name, str) or not name:
        raise ValueError("metric names must be non-empty strings (got %r)" % (name,))
    if name in _FIXED:
        return
    for prefix in _REGISTRY_PREFIXES:
        if name.startswith(prefix):
            if not name[len(prefix):]:
                raise ValueError("metric %r names no registry metric" % name)
            return
    parts = name.split(".", 2)
    if parts[0] == "version_share":
        if len(parts) == 3 and parts[1] in SIDES and parts[2] in TABLE2_ROWS:
            return
        raise ValueError(
            "metric %r: expected version_share.<clients|servers>.<bucket> "
            "with bucket one of %s" % (name, ", ".join(TABLE2_ROWS))
        )
    if parts[0] == "packet_share":
        if len(parts) == 3 and parts[1] in ORIGINS and parts[2] in TABLE3_ROWS:
            return
        raise ValueError(
            "metric %r: expected packet_share.<origin>.<category> with "
            "origin one of %s and category one of %s"
            % (name, ", ".join(ORIGINS), ", ".join(TABLE3_ROWS))
        )
    if parts[0] == "scid_unique":
        if len(parts) == 2 and parts[1] in ORIGINS:
            return
        raise ValueError(
            "metric %r: expected scid_unique.<origin> with origin one of %s"
            % (name, ", ".join(ORIGINS))
        )
    raise ValueError(
        "unknown metric %r (see repro.sweep.metrics for the grammar)" % name
    )


def _from_snapshot(name: str, snapshot: dict) -> float:
    """Resolve a ``counter:``/``gauge:``/``timer:`` metric from a snapshot."""
    kind, _, rest = name.partition(":")
    if kind == "timer":
        return float(snapshot.get("timers", {}).get(rest, {}).get("seconds", 0.0))
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
    wanted = {_SELECTORS.get(name.partition(".")[0]) for name in metrics} - {None}
    fold = CaptureFold(wanted)
    if wanted:
        fold.feed(view.datagrams())
    sides = {"clients": fold.clients, "servers": fold.servers}
    mix = fold.mix + fold.scan_mix if "3" in wanted else None  # Table 3: both
    out: Dict[str, float] = {}
    for name in metrics:
        if name == "rows.total":
            value = float(len(view))
        elif name == "rows.backscatter":
            value = float(view.stats.backscatter)
        elif name == "rows.scans":
            value = float(view.stats.scans)
        elif name == "records.total":
            value = float(view.stats.total_records)
        elif name == "removed_share":
            value = float(view.stats.removed_share)
        elif name.startswith(_REGISTRY_PREFIXES):
            value = _from_snapshot(name, sim_snapshot)
        elif name.startswith("version_share."):
            _, side, bucket = name.split(".", 2)
            value = float(sides[side].shares().share(bucket))
        elif name.startswith("packet_share."):
            _, origin, category = name.split(".", 2)
            value = float(mix.share(origin, category))
        elif name.startswith("scid_unique."):
            _, origin = name.split(".", 1)
            stats = fold.scids.stats
            value = float(stats[origin].unique_count) if origin in stats else 0.0
        elif name == "offnet.servers":
            value = float(len(fold.offnet.features))
        elif name == "offnet.low_host_id":
            value = float(fold.offnet.counts()[1])
        else:  # pragma: no cover - validate_metric guards the spec
            raise ValueError("unknown metric %r" % name)
        out[name] = value
    return out
