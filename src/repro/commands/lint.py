"""``repro lint``: the static determinism/invariant analyzer."""

from __future__ import annotations

import argparse
import os

from repro.errors import InputFileError
from repro.lint.engine import Baseline, lint_paths
from repro.lint.report import render_json, render_rules, render_text


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static determinism/invariant analyzer over Python sources.

    Exit status 1 says there are *new* (unbaselined, unsuppressed)
    findings, 0 that the tree honours the determinism contract.  The
    committed baseline (``lint_baseline.json``, empty in this repo)
    exists so a fork can adopt the linter before paying down debt;
    ``--update-baseline`` regenerates it from the current findings.
    """
    if args.rules:
        print(render_rules())
        return 0
    paths = args.paths or ["src"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise InputFileError("no such path: %s" % ", ".join(missing))
    baseline = Baseline.load(args.baseline)
    result = lint_paths(paths, baseline=baseline)
    if args.update_baseline:
        Baseline.write(args.baseline, result.findings + result.baselined)
        print(
            "Wrote %d finding(s) to %s"
            % (len(result.findings) + len(result.baselined), args.baseline)
        )
        return 0
    if args.json:
        print(render_json(result))
    else:
        print(render_text(result, verbose_baseline=args.show_baselined))
    return 1 if result.findings else 0
