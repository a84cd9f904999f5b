"""Static determinism & invariant linting (``repro lint``).

The shard-merge, capstore-cache, streaming, and sweep planes all stake
their correctness on byte-identical determinism.  This package checks
the underlying source-level contract *statically* — stdlib ``ast``, no
dependencies — so a violation fails at diff time instead of costing a
bisect through a million-packet campaign:

* :mod:`repro.lint.engine` — file walker, pragma suppression
  (``# repro: allow(RULE-ID) -- justification``), committed-baseline
  support, single-pass rule dispatch;
* :mod:`repro.lint.rules` — the rule pack (DET001–DET005, OBS001,
  MP001, PERF001, IO001) encoding the repo's real invariants;
* :mod:`repro.lint.report` — text and JSON reporters sharing the
  ``tools/_report.py`` JSON shape.

Entry points: ``repro lint [--json] [--rules] [--baseline FILE]
[--update-baseline] [paths…]`` from the CLI, or
:func:`repro.lint.engine.lint_paths` from Python.
"""
