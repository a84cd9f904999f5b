"""What the ``bench_*.py`` scripts share: the stamp on a recorded result,
:func:`record`, which writes it, and :func:`report`, which keeps a
bench's reproduced rows.

A ``BENCH_*.json`` is read long after the box that produced it is gone;
the stamp says which interpreter, how many CPUs, which commit and how
busy the machine was, so a number is never compared with one from a
different machine without noticing.

Kept out of ``conftest.py`` on purpose: a session that also collects
another directory's ``conftest.py`` (``benchmarks/e2e/tests/``) gets
that one for ``import conftest``, and ``_harness`` has no such twin.
"""

import json
import os
import platform
import subprocess

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def report(name: str, text: str) -> str:
    """Persist one experiment's reproduced output and echo it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name + ".txt")
    with open(path, "w") as fileobj:
        fileobj.write(text + "\n")
    print("\n" + text)
    return path


def record(name: str, results: dict, check: bool) -> str:
    """Write a bench's results as ``BENCH_<name>.json``; returns the path.

    A plain run re-records the committed baseline at the repo root.  A
    ``--check`` run, or the pytest entry, only gates: it writes under the
    untracked ``benchmarks/out/`` and leaves the checkout as it found it.
    """
    folder = OUT_DIR if check else ROOT
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, "BENCH_%s.json" % name)
    with open(path, "w") as fileobj:
        json.dump(results, fileobj, indent=2, sort_keys=True)
        fileobj.write("\n")
    return path


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _git(*args):
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def environment_stamp():
    """Python, CPUs, commit, source trees, platform and load average, as
    JSON-ready dict.

    ``commit`` ends in ``+dirty`` when tracked files other than the
    recorded results differ from it: the numbers then belong to the
    working tree, not to that commit.  ``trees`` holds the git tree
    hashes of ``src/`` and ``benchmarks/`` at that commit, the code the
    numbers measure: results recorded from a commit that was never
    published still name trees a reader can check against any commit
    (``git rev-parse <commit>:src``).
    """
    commit = _git("rev-parse", "HEAD")
    if commit and _git(
        "status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_*.json"
    ):
        commit += "+dirty"
    return {
        "python": platform.python_version(),
        "cpus": cpus(),
        "commit": commit or "unknown",
        "trees": {
            name: _git("rev-parse", "HEAD:" + name) or "unknown"
            for name in ("src", "benchmarks")
        },
        "platform": platform.platform(),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
    }
