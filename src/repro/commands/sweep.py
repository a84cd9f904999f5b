"""``repro sweep run|status|render``: deterministic parameter-grid experiments.

``status`` and ``render`` read a sweep directory through
:mod:`repro.sweep.render` alone; only ``run`` imports the runner (and,
behind it, the simulator) and the Prometheus publishers.
"""

from __future__ import annotations

import argparse
import os

from repro.atomic import atomic_output
from repro.commands.common import finish_obs, make_obs
from repro.sweep.render import (
    RenderError,
    heatmap_csv,
    load_results,
    render_heatmap,
    render_status,
)


def cmd_sweep_run(args: argparse.Namespace) -> int:
    """Expand a grid spec, run every cell, write manifest + results."""
    from repro.commands.prom import PromPublishers
    from repro.sweep.runner import run_sweep
    from repro.sweep.spec import load_spec

    spec = load_spec(args.spec)
    outdir = args.out or os.path.splitext(args.spec)[0] + ".sweep"
    cells = spec.cells()
    print(
        "Sweep %s: %d cells (%s) -> %s"
        % (
            spec.name,
            len(cells),
            " x ".join(
                "%s[%d]" % (axis, len(values))
                for axis, values in spec.axes.items()
            ),
            outdir,
        )
    )
    obs = make_obs(args, force_metrics=True)
    prom = PromPublishers(args, obs)
    seen = [0]

    def on_cell(cell, outcome) -> None:
        seen[0] += 1
        if not args.quiet:
            print(
                "  [%*d/%d] %-40s %-9s %6d records  %6.2fs"
                % (
                    len(str(len(cells))),
                    seen[0],
                    len(cells),
                    cell.label,
                    outcome.status,
                    outcome.records,
                    outcome.wall_seconds,
                )
            )

    try:
        result = run_sweep(
            spec,
            outdir,
            workers=args.workers,
            force=args.force,
            obs=obs,
            on_cell=on_cell,
        )
    finally:
        prom.stop()
        finish_obs(args, obs)
    print(
        "Swept %d cells (%d simulated, %d cached) in %.2fs -> %s, %s"
        % (
            len(result.cells),
            result.simulated,
            result.cached,
            result.wall_seconds,
            result.csv_path,
            result.manifest_path,
        )
    )
    return 0


def cmd_sweep_status(args: argparse.Namespace) -> int:
    """Render a sweep directory's manifest (plus live heartbeats)."""
    print(render_status(args.outdir))
    return 0


def cmd_sweep_render(args: argparse.Namespace) -> int:
    """Pivot sweep results into a terminal heatmap (and optional CSV)."""
    results = load_results(args.outdir)
    axes = list(results["axes"])
    if len(axes) < 2:
        raise RenderError(
            "a heatmap needs two axes; this sweep has %s — read %s/results.csv"
            % (", ".join(axes) or "none", args.outdir)
        )
    metric = args.metric or results["metrics"][0]
    x_axis = args.x or axes[-1]
    y_axis = args.y or next(a for a in axes if a != x_axis)
    fixed = {}
    for pin in args.fix or ():
        axis, sep, value = pin.partition("=")
        if not sep:
            raise RenderError("--fix wants axis=value (got %r)" % pin)
        fixed[axis] = value
    print(render_heatmap(results, metric, x_axis, y_axis, fixed))
    if args.csv:
        with atomic_output(args.csv) as fileobj:
            fileobj.write(heatmap_csv(results, metric, x_axis, y_axis, fixed))
        print("Wrote pivoted CSV to %s" % args.csv)
    return 0
