"""``tools/check_paper.py``: the paper's numbers, checked from one run.

Every test reads the same measurement — both study months simulated,
classified and evaluated once — so the checker's cost is paid once here.
"""

import json
import os
import sys

import pytest

from repro.core.offnet import CLASSIFIERS
from repro.core.selectors import validate_metric

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
import check_paper  # noqa: E402


@pytest.fixture(scope="module")
def measured():
    return check_paper.measure()


def test_every_target_holds(measured, capsys):
    assert check_paper.check(check_paper.TARGETS, measured) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert len(lines) == len(check_paper.TARGETS) + 1  # one per row, the all-clear
    assert lines[-1] == "paper targets ok (%d)" % len(check_paper.TARGETS)
    assert out.err == ""


def test_a_row_outside_its_interval_is_one_finding(measured, capsys):
    targets = list(check_paper.TARGETS)
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
            row.month,
            check_paper._number(ours),
            check_paper._number(ours + 1),
            check_paper._number(ours + 2),
        )
    ]
    assert check_paper.check(targets, measured, json_mode=True) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "check-paper" and doc["ok"] is False
    assert doc["checked"] == len(targets) and len(doc["findings"]) == 1


def _is_table6_name(name):
    classifier, _, measure = name[len(check_paper.TABLE6):].rpartition(".")
    return (
        name.startswith(check_paper.TABLE6)
        and classifier in CLASSIFIERS
        and measure in check_paper.TABLE6_MEASURES
    )


def test_every_row_names_a_number_and_owns_its_differences():
    for row in check_paper.TARGETS:
        for month, name in check_paper.operands(row):
            assert month in check_paper.MONTHS
            if not _is_table6_name(name):
                validate_metric(name)
        assert row.lo <= row.hi, row
        holds_paper = row.paper is not None and row.lo <= row.paper <= row.hi
        assert holds_paper or row.reason, row
