"""``tools/check_paper.py``: the paper's numbers, checked from one run.

Every test reads the same measurement — both study months simulated,
classified and evaluated once, and the sub-second labs probed once — so
the checker's cost is paid once here.  The other labs' rows are held to
their intervals by the checker itself in CI's ``lint`` job.
"""

import dataclasses
import json
import math
import os
import sys

import pytest

from repro.core.offnet import CLASSIFIERS
from repro.core.selectors import validate_metric

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
import check_paper  # noqa: E402


#: The labs that probe in well under a second.
QUICK_LABS = ("same-instance", "lb-type")
QUICK = [
    row
    for row in check_paper.TARGETS
    if all(
        source in check_paper.MONTHS or source in QUICK_LABS
        for source, _ in check_paper.operands(row)
    )
]


@pytest.fixture(scope="module")
def measured():
    return check_paper.measure(QUICK)


def test_every_target_holds(measured, capsys):
    sources = {source for row in QUICK for source, _ in check_paper.operands(row)}
    assert sources == set(check_paper.MONTHS) | set(QUICK_LABS)
    assert check_paper.check(QUICK, measured) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert len(lines) == len(QUICK) + 1  # one per row, the all-clear
    assert lines[-1] == "paper targets ok (%d)" % len(QUICK)
    assert out.err == ""


@pytest.mark.parametrize("source", QUICK_LABS)
def test_a_lab_returns_the_names_it_declares(source):
    names, lab = check_paper.LABS[source]
    assert sorted(lab()) == sorted(names)


def test_a_row_outside_its_interval_is_one_finding(measured, capsys):
    targets = list(QUICK)
    index = next(
        i for i, row in enumerate(targets) if row.target == "version_share.servers.QUICv1"
    )
    row = targets[index]
    ours = check_paper.ours_of(row, measured)
    targets[index] = row._replace(lo=ours + 1, hi=ours + 2)
    assert check_paper.check(targets, measured) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "Table 2 %s version_share.servers.QUICv1: ours %s outside [%s, %s] (paper 48.1)"
        % (
            row.source,
            check_paper._number(ours),
            check_paper._number(ours + 1),
            check_paper._number(ours + 2),
        )
    ]
    assert check_paper.check(targets, measured, json_mode=True) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "check-paper" and doc["ok"] is False
    assert doc["checked"] == len(targets) and len(doc["findings"]) == 1


def test_a_follow_up_that_never_completed_fails_its_rows(monkeypatch):
    """A delay of ``None`` is measured as ``nan``, inside no interval."""
    follow_up_delay = check_paper.follow_up_delay
    monkeypatch.setattr(
        check_paper,
        "follow_up_delay",
        lambda *args, **kwargs: dataclasses.replace(
            follow_up_delay(*args, **kwargs), delay=None
        ),
    )
    values = check_paper.lb_type_lab()
    rows = [row for row in QUICK if row.source == "lb-type" and "delay" in row.target]
    assert rows and all(math.isnan(values[row.target]) for row in rows)
    measured = {(row.source, row.target): values[row.target] for row in rows}
    assert check_paper.check(rows, measured) == len(rows)


def _is_table6_name(name):
    classifier, _, measure = name[len(check_paper.TABLE6):].rpartition(".")
    return (
        name.startswith(check_paper.TABLE6)
        and classifier in CLASSIFIERS
        and measure in check_paper.TABLE6_MEASURES
    )


def test_every_row_names_a_number_and_owns_its_differences():
    for row in check_paper.TARGETS:
        for source, name in check_paper.operands(row):
            if source in check_paper.MONTHS:
                if not _is_table6_name(name):
                    validate_metric(name)
            else:
                assert name in check_paper.LABS[source][0], row
        assert row.lo <= row.hi, row
        holds_paper = row.paper is not None and row.lo <= row.paper <= row.hi
        assert holds_paper or row.reason, row
