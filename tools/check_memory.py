#!/usr/bin/env python
"""Check that the simulator's memory does not grow with its capture.

The telescope spools every record once it is final, so a serial
``repro simulate`` holds the records in flight, not the pcap.  This
checker runs the command twice as child processes, at ``--scale 0.25``
and at ``--scale 1`` (a pcap about four times larger), reads each
child's peak resident set (``ru_maxrss`` from ``os.wait4``) and fails
when the larger run's exceeds the smaller's by more than
:data:`RSS_GROWTH` — or when the two pcaps are not about
:data:`SCALE_RATIO` apart, which would make the comparison say nothing::

    python tools/check_memory.py [--json]

Exit status is the number of findings (0 = bounded).  ``--json`` emits
the shared machine-readable report (see ``tools/_report.py``; same
document shape as ``repro lint --json``).  About 12 s on a 2-CPU box.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from typing import List, Tuple

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

from _report import Report, split_json_flag  # noqa: E402

SCALES = (0.25, 1.0)
#: The larger run's pcap over the smaller's must lie within this factor
#: of the scale ratio for the check to mean anything.
SCALE_RATIO = SCALES[1] / SCALES[0]
#: The most the larger run's peak RSS may exceed the smaller's by.
RSS_GROWTH = 0.25


def simulate(scale: float, directory: str) -> Tuple[float, int]:
    """(peak RSS in MiB, pcap bytes) of one ``repro simulate`` child."""
    pcap = os.path.join(directory, "scale-%g.pcap" % scale)
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "simulate", pcap, "--scale", str(scale)],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    # wait4 rather than Popen.wait: it returns the child's rusage.
    _pid, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise RuntimeError(
            "repro simulate --scale %g exited with %d" % (scale, child.returncode)
        )
    return usage.ru_maxrss / 1024.0, os.path.getsize(pcap)  # Linux: KiB


def check(runs: List[Tuple[float, int]], report: Report) -> None:
    (small_rss, small_pcap), (large_rss, large_pcap) = runs
    report.checked = len(runs)
    ratio = large_pcap / small_pcap
    if not 0.75 * SCALE_RATIO <= ratio <= 1.25 * SCALE_RATIO:
        report.add(
            "the pcaps are %.2fx apart, not about %gx: the runs do not test the bound"
            % (ratio, SCALE_RATIO)
        )
    if large_rss > (1 + RSS_GROWTH) * small_rss:
        report.add(
            "peak RSS grew %.1f -> %.1f MiB (+%.0f%%, bound +%.0f%%) while the pcap "
            "grew %.1f -> %.1f MiB: the capture is held in memory"
            % (
                small_rss,
                large_rss,
                100 * (large_rss / small_rss - 1),
                100 * RSS_GROWTH,
                small_pcap / 2**20,
                large_pcap / 2**20,
            )
        )


def main(argv: List[str]) -> int:
    json_mode, rest = split_json_flag(argv[1:])
    if rest:
        print("usage: check_memory.py [--json]", file=sys.stderr)
        return 2
    report = Report("check-memory")
    with tempfile.TemporaryDirectory() as directory:
        runs = [simulate(scale, directory) for scale in SCALES]
    check(runs, report)
    (small_rss, small_pcap), (large_rss, large_pcap) = runs
    return report.emit(
        "memory bounded: peak RSS %.1f -> %.1f MiB while the pcap grew %.1f -> %.1f MiB"
        % (small_rss, large_rss, small_pcap / 2**20, large_pcap / 2**20),
        json_mode,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv))
