#!/usr/bin/env python
"""Validate the ``BENCH_*.json`` result files at the repo root.

Every benchmark under ``benchmarks/`` persists its measurements as a
``BENCH_<name>.json`` next to the README; dashboards and the docs quote
those numbers, so a truncated write or a NaN smuggled through
``json.dump`` would silently poison them.  This checker asserts the
shared contract: each file parses as a non-empty JSON object, every
number reachable in it is finite, and it carries the ``environment``
stamp of ``benchmarks/_harness.py`` (interpreter, CPUs, commit, source
trees, platform, load) — a number without its machine is not comparable
with anything — and that stamp names a clean commit: a ``+dirty`` one
means the numbers came from a working tree nobody can check out again.
The commit may still be one no reader can resolve (results recorded
from a commit made only to record them); the ``trees`` it stamps, the
hashes of ``src/`` and ``benchmarks/``, are what a reader checks:
``git rev-parse <commit>:src`` of the commit that carries the file:

    python tools/check_bench_json.py BENCH_*.json

With no arguments it checks every ``BENCH_*.json`` in the repo root.
Exit status is the number of invalid files (0 = all valid).  ``--json``
emits the shared machine-readable report (see ``tools/_report.py``;
same document shape as ``repro lint --json``).
"""

from __future__ import annotations

import glob
import json
import math
import os
import sys
from typing import List

from _report import Report, split_json_flag  # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
#: What ``benchmarks/_harness.py::environment_stamp`` records.
STAMP_FIELDS = ("python", "cpus", "commit", "trees", "platform", "loadavg")


def _non_finite_paths(value, prefix="$") -> List[str]:
    """JSONPath-ish locations of every non-finite number in ``value``."""
    bad = []
    if isinstance(value, float) and not math.isfinite(value):
        bad.append(prefix)
    elif isinstance(value, dict):
        for key in value:
            bad.extend(_non_finite_paths(value[key], "%s.%s" % (prefix, key)))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            bad.extend(_non_finite_paths(item, "%s[%d]" % (prefix, index)))
    return bad


def check_file(path: str) -> List[str]:
    """Problems with one bench result file (empty = valid)."""
    try:
        with open(path, encoding="utf-8") as fileobj:
            doc = json.load(fileobj)
    except OSError as exc:
        return ["unreadable: %s" % exc.strerror]
    except ValueError as exc:
        return ["not valid JSON: %s" % exc]
    if not isinstance(doc, dict):
        return ["top-level value is %s, expected an object" % type(doc).__name__]
    if not doc:
        return ["top-level object is empty"]
    problems = [
        "non-finite number at %s" % location
        for location in _non_finite_paths(doc)
    ]
    stamp = doc.get("environment")
    if not isinstance(stamp, dict):
        problems.append("no environment stamp (benchmarks/_harness.py)")
    else:
        problems.extend(
            "environment stamp lacks %r" % field
            for field in STAMP_FIELDS
            if field not in stamp
        )
        commit = stamp.get("commit")
        if isinstance(commit, str) and commit.endswith("+dirty"):
            problems.append(
                "commit stamp %s is dirty: re-record from a clean tree" % commit
            )
    return problems


def main(argv: List[str]) -> int:
    json_mode, args = split_json_flag(argv[1:])
    if not args:
        args = sorted(glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))
        if not args:
            print("no BENCH_*.json files found", file=sys.stderr)
            return 2
    report = Report("check-bench-json")
    bad = 0
    for path in args:
        report.checked += 1
        problems = check_file(path)
        if problems:
            bad += 1
            for problem in problems:
                report.add(problem, path=path)
        elif not json_mode:
            print("%s: valid bench results" % path)
    report.emit("bench result files ok (%d)" % report.checked, json_mode=json_mode)
    return bad


if __name__ == "__main__":
    sys.exit(main(sys.argv))
