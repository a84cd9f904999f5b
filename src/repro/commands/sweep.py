"""``repro sweep run|status|render``: deterministic parameter-grid experiments."""

from __future__ import annotations

import argparse
import os

from repro.commands.common import finish_obs, make_obs
from repro.commands.prom import PromPublishers
from repro.sweep import (
    RenderError,
    SweepRunError,
    SweepSpecError,
    heatmap_csv,
    load_results,
    load_spec,
    render_heatmap,
    render_status,
    run_sweep,
)


def cmd_sweep_run(args: argparse.Namespace) -> int:
    """Expand a grid spec, run every cell, write manifest + results."""
    try:
        spec = load_spec(args.spec)
    except SweepSpecError as exc:
        raise SystemExit("repro sweep run: %s" % exc)
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
        with obs.timed("sweep"):
            result = run_sweep(
                spec,
                outdir,
                workers=args.workers,
                force=args.force,
                obs=obs,
                on_cell=on_cell,
            )
    except SweepRunError as exc:
        raise SystemExit(
            "repro sweep run: %s (see `repro sweep status %s`)" % (exc, outdir)
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
    try:
        print(render_status(args.outdir))
    except RenderError as exc:
        raise SystemExit("repro sweep status: %s" % exc)
    return 0


def cmd_sweep_render(args: argparse.Namespace) -> int:
    """Pivot sweep results into a terminal heatmap (and optional CSV)."""
    try:
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
            with open(args.csv, "w") as fileobj:
                fileobj.write(heatmap_csv(results, metric, x_axis, y_axis, fixed))
            print("Wrote pivoted CSV to %s" % args.csv)
    except RenderError as exc:
        raise SystemExit("repro sweep render: %s" % exc)
    return 0
