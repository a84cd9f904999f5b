"""``repro.sweep`` — deterministic parameter-grid experiments.

The sweep plane turns the repo's one-off benchmark grids into cached,
reproducible experiments: a declarative spec (:mod:`repro.sweep.spec`)
expands into cells with derived seeds, the runner
(:mod:`repro.sweep.runner`) simulates each cell at most once — per-cell
capture directories plus ``.capidx`` sidecars make warm re-runs touch
only cells that did not exist before — and the metric evaluator
(:mod:`repro.sweep.metrics`) records any registry or ``repro.core``
analysis value into heatmap-ready long-form CSV/JSON
(:mod:`repro.sweep.render` draws them in the terminal).

CLI surface: ``repro sweep run <spec>``, ``repro sweep status <outdir>``,
``repro sweep render <outdir> --metric M --x AXIS --y AXIS``.
"""
