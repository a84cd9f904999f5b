"""Terminal heatmaps and status tables for sweep output directories.

``repro sweep render`` pivots the long-form ``results.json`` into a 2-D
grid over two chosen axes; any remaining axes are either pinned with
``--fix axis=value`` or mean-aggregated (with a note saying so, because a
silently averaged axis reads like a lie).  Cells carry a shade glyph
(``·░▒▓█`` by value quintile across the rendered grid) next to the
number, so gradients are visible at a glance in a plain terminal — the
ESA-QUICOPTSAT datarate/latency tables rendered the same way.

``repro sweep status`` renders the manifest: per-cell state plus, while
cells are still pending, the live heartbeat table the workers write.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.core.report import render_table
from repro.errors import InputFileError
from repro.obs.progress import read_heartbeats, render_progress

#: What a sweep directory's reader opens; the runner writes the same names.
#: They live here, with :func:`format_value`, so ``sweep status`` / ``sweep
#: render`` never import the runner and, behind it, the simulator.
MANIFEST_NAME = "manifest.json"
RESULTS_JSON = "results.json"
PROGRESS_DIR = "progress"

#: Shade ramp, lowest to highest value quintile.
SHADES = "·░▒▓█"


class RenderError(InputFileError):
    """A render request the results file cannot satisfy."""


def format_value(value) -> str:
    """Canonical text for an axis value or metric value.

    Floats render via ``repr`` (shortest round-tripping form), so the
    same value always produces the same text — the byte-stability
    contract of ``results.csv`` leans on this.
    """
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load(outdir: str, name: str, hint: str) -> dict:
    try:
        with open(os.path.join(outdir, name)) as fileobj:
            return json.load(fileobj)
    except OSError:
        raise RenderError("%s: no %s (%s)" % (outdir, name, hint)) from None
    except ValueError as exc:
        raise RenderError("%s: invalid %s: %s" % (outdir, name, exc)) from None


def load_results(outdir: str) -> dict:
    return _load(outdir, RESULTS_JSON, "did `repro sweep run` finish?")


def load_manifest(outdir: str) -> dict:
    return _load(outdir, MANIFEST_NAME, "not a sweep output directory?")


def _format_number(value: float) -> str:
    return "%.4g" % value


def pivot(
    results: dict,
    metric: str,
    x_axis: str,
    y_axis: str,
    fixed: Optional[Dict[str, str]] = None,
) -> Tuple[List[str], List[str], Dict[Tuple[str, str], float], List[str]]:
    """Reduce the long-form cells to a (y, x) -> value grid.

    Returns ``(x_values, y_values, grid, averaged_axes)`` with axis values
    as their canonical :func:`format_value` text, in spec order.  Cells
    sharing a (y, x) coordinate after pinning — unfixed extra axes — are
    mean-aggregated and the axes responsible are reported.
    """
    axes = results["axes"]
    for axis in (x_axis, y_axis):
        if axis not in axes:
            raise RenderError(
                "unknown axis %r (spec axes: %s)" % (axis, ", ".join(axes))
            )
    if x_axis == y_axis:
        raise RenderError("--x and --y must name different axes")
    if metric not in results["metrics"]:
        raise RenderError(
            "metric %r was not recorded (spec metrics: %s)"
            % (metric, ", ".join(results["metrics"]))
        )
    fixed = fixed or {}
    for axis, value in fixed.items():
        if axis not in axes:
            raise RenderError(
                "cannot fix unknown axis %r (spec axes: %s)"
                % (axis, ", ".join(axes))
            )
        allowed = [format_value(v) for v in axes[axis]]
        if value not in allowed:
            raise RenderError(
                "axis %r has no value %r (values: %s)"
                % (axis, value, ", ".join(allowed))
            )
    sums: Dict[Tuple[str, str], float] = {}
    counts: Dict[Tuple[str, str], int] = {}
    for cell in results["cells"]:
        coords = {axis: format_value(value) for axis, value in cell["coords"]}
        if any(coords.get(axis) != value for axis, value in fixed.items()):
            continue
        key = (coords[y_axis], coords[x_axis])
        sums[key] = sums.get(key, 0.0) + cell["values"][metric]
        counts[key] = counts.get(key, 0) + 1
    grid = {key: sums[key] / counts[key] for key in sums}
    averaged = [
        axis
        for axis in axes
        if axis not in (x_axis, y_axis) and axis not in fixed
    ]
    x_values = [format_value(v) for v in axes[x_axis]]
    y_values = [format_value(v) for v in axes[y_axis]]
    return x_values, y_values, grid, averaged


def _shade(value: float, low: float, high: float) -> str:
    if high <= low:
        return SHADES[-1]
    position = (value - low) / (high - low)
    return SHADES[min(int(position * len(SHADES)), len(SHADES) - 1)]


def render_heatmap(
    results: dict,
    metric: str,
    x_axis: str,
    y_axis: str,
    fixed: Optional[Dict[str, str]] = None,
) -> str:
    """The terminal heatmap: one row per y value, shaded by quintile."""
    x_values, y_values, grid, averaged = pivot(
        results, metric, x_axis, y_axis, fixed
    )
    values = list(grid.values())
    low, high = (min(values), max(values)) if values else (0.0, 0.0)
    rows = []
    for y in y_values:
        row = [y]
        for x in x_values:
            value = grid.get((y, x))
            if value is None:
                row.append("-")
            else:
                row.append("%s %s" % (_shade(value, low, high), _format_number(value)))
        rows.append(row)
    title = "%s — %s by %s (y) x %s (x)" % (
        results["spec"],
        metric,
        y_axis,
        x_axis,
    )
    if fixed:
        title += ", " + ", ".join(
            "%s=%s" % (axis, value) for axis, value in sorted(fixed.items())
        )
    out = render_table(["%s \\ %s" % (y_axis, x_axis)] + x_values, rows, title=title)
    if averaged:
        out += "\n(mean over unfixed axes: %s — pin with --fix axis=value)" % (
            ", ".join(averaged)
        )
    return out


def heatmap_csv(
    results: dict,
    metric: str,
    x_axis: str,
    y_axis: str,
    fixed: Optional[Dict[str, str]] = None,
) -> str:
    """The same pivot as plain CSV, ready for external plotting."""
    x_values, y_values, grid, _averaged = pivot(
        results, metric, x_axis, y_axis, fixed
    )
    lines = [",".join(["%s\\%s" % (y_axis, x_axis)] + x_values)]
    for y in y_values:
        cells = [
            format_value(grid[(y, x)]) if (y, x) in grid else ""
            for x in x_values
        ]
        lines.append(",".join([y] + cells))
    return "\n".join(lines) + "\n"


def render_status(outdir: str) -> str:
    """The manifest's per-cell table, plus live heartbeats while running."""
    manifest = load_manifest(outdir)
    totals = manifest["totals"]
    rows = [
        [
            cell["index"],
            cell["label"],
            cell["status"],
            cell["records"],
            "%.2fs" % cell["wall_seconds"],
            cell["error"] or "-",
        ]
        for cell in manifest["cells"]
    ]
    parts = [
        render_table(
            ["cell", "coordinates", "status", "records", "wall", "error"],
            rows,
            title="Sweep %s: %d cells (%d simulated, %d cached, %d failed, "
            "%d pending)"
            % (
                manifest["spec"]["name"],
                totals["cells"],
                totals["simulated"],
                totals["cached"],
                totals["failed"],
                totals["pending"],
            ),
        )
    ]
    if totals["pending"]:
        beats = read_heartbeats(os.path.join(outdir, PROGRESS_DIR))
        if beats:
            parts.append("")
            parts.append(render_progress(beats))
    return "\n".join(parts)
