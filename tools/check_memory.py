#!/usr/bin/env python
"""Check that the pipeline's memory does not grow with its capture.

The telescope spools every record once it is final, so a serial
``repro simulate`` holds the records in flight, not the pcap; ``index``
and ``analyze`` hold the sidecar's columns once, plus their accumulators
and the column slices of the one window the fold reads at a time.  This checker runs the pipeline twice, at
``--scale 0.25`` and at ``--scale 1`` (a pcap about four times larger):
``simulate``, then ``index`` and ``analyze --tables 1 2 3 4 rto lengths``
on its pcap, each a child process whose peak resident set it reads
(``ru_maxrss`` from ``os.wait4``).  It fails when

* the larger ``simulate`` exceeds the smaller by more than
  :data:`RSS_GROWTH`;
* the larger ``index`` or ``analyze`` exceeds the smaller by more than
  :data:`READ_GROWTH` MiB per MiB the sidecar grew;
* or the two pcaps or sidecars are not about :data:`SCALE_RATIO` apart,
  which would make the comparison say nothing::

    python tools/check_memory.py [--json]

Exit status is the number of findings (0 = bounded).  ``--json`` emits
the shared machine-readable report (see ``tools/_report.py``; same
document shape as ``repro lint --json``).  About 15 s on a 2-CPU box.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from typing import Dict, List

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

from _report import Report, split_json_flag  # noqa: E402

SCALES = (0.25, 1.0)
#: The larger run's pcap (and sidecar) over the smaller's must lie within
#: this factor of the scale ratio for the check to mean anything.
SCALE_RATIO = SCALES[1] / SCALES[0]
#: The most the larger ``simulate``'s peak RSS may exceed the smaller's by.
RSS_GROWTH = 0.25
#: The most a read-side stage's peak RSS may grow, in MiB per MiB of
#: sidecar growth: the columns once, plus what their accumulators keep.
READ_GROWTH = 4.0
#: The read-side stages, after ``simulate``: their arguments past the pcap.
READ_STAGES = (
    ("index", ()),
    ("analyze", ("--tables", "1", "2", "3", "4", "rto", "lengths")),
)


def peak_rss(argv: List[str]) -> float:
    """Peak RSS in MiB of one ``repro`` child run to completion."""
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv], env=env, stdout=subprocess.DEVNULL
    )
    # wait4 rather than Popen.wait: it returns the child's rusage.
    _pid, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise RuntimeError(
            "repro %s exited with %d" % (" ".join(argv), child.returncode)
        )
    return usage.ru_maxrss / 1024.0  # Linux: KiB


def pipeline(scale: float, directory: str) -> Dict[str, float]:
    """Peak RSS (MiB) of each stage and the bytes of the pcap and sidecar."""
    pcap = os.path.join(directory, "scale-%g.pcap" % scale)
    run = {"simulate": peak_rss(["simulate", pcap, "--scale", str(scale)])}
    for stage, args in READ_STAGES:
        run[stage] = peak_rss([stage, pcap, *args])
    run["pcap"] = os.path.getsize(pcap)
    run["sidecar"] = os.path.getsize(pcap + ".capidx")
    return run


def check(runs: List[Dict[str, float]], report: Report) -> None:
    small, large = runs
    report.checked = len(runs) * (1 + len(READ_STAGES))
    for name in ("pcap", "sidecar"):
        ratio = large[name] / small[name]
        if not 0.75 * SCALE_RATIO <= ratio <= 1.25 * SCALE_RATIO:
            report.add(
                "the %ss are %.2fx apart, not about %gx: the runs do not test the bound"
                % (name, ratio, SCALE_RATIO)
            )
    if large["simulate"] > (1 + RSS_GROWTH) * small["simulate"]:
        report.add(
            "simulate's peak RSS grew %.1f -> %.1f MiB (+%.0f%%, bound +%.0f%%) while "
            "the pcap grew %.1f -> %.1f MiB: the capture is held in memory"
            % (
                small["simulate"],
                large["simulate"],
                100 * (large["simulate"] / small["simulate"] - 1),
                100 * RSS_GROWTH,
                small["pcap"] / 2**20,
                large["pcap"] / 2**20,
            )
        )
    sidecar_growth = (large["sidecar"] - small["sidecar"]) / 2**20
    for stage, _args in READ_STAGES:
        per_mib = (large[stage] - small[stage]) / sidecar_growth
        if per_mib > READ_GROWTH:
            report.add(
                "%s's peak RSS grew %.1f -> %.1f MiB, %.1f MiB per MiB of sidecar "
                "growth (%.2f -> %.2f MiB; bound %g): the sidecar is held more than once"
                % (
                    stage,
                    small[stage],
                    large[stage],
                    per_mib,
                    small["sidecar"] / 2**20,
                    large["sidecar"] / 2**20,
                    READ_GROWTH,
                )
            )


def main(argv: List[str]) -> int:
    json_mode, rest = split_json_flag(argv[1:])
    if rest:
        print("usage: check_memory.py [--json]", file=sys.stderr)
        return 2
    report = Report("check-memory")
    with tempfile.TemporaryDirectory() as directory:
        runs = [pipeline(scale, directory) for scale in SCALES]
    check(runs, report)
    small, large = runs
    return report.emit(
        "memory bounded: peak RSS %s while the pcap grew %.1f -> %.1f MiB "
        "and the sidecar %.2f -> %.2f MiB"
        % (
            ", ".join(
                "%s %.1f -> %.1f MiB" % (stage, small[stage], large[stage])
                for stage in ("simulate", *(stage for stage, _ in READ_STAGES))
            ),
            small["pcap"] / 2**20,
            large["pcap"] / 2**20,
            small["sidecar"] / 2**20,
            large["sidecar"] / 2**20,
        ),
        json_mode,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv))
