"""What the docs say about metrics holds: every committed sweep spec parses,
and the experiment book lists every family of the grammar."""

import json
import os
import re

import pytest

from repro.core.selectors import CAPTURE_NAMES, FAMILIES
from repro.sweep.spec import load_spec

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as _fileobj:
    BOOK = _fileobj.read()

#: The book's fenced JSON sweep specs, by name.
BOOK_SPECS = {
    doc["name"]: doc
    for doc in map(json.loads, re.findall(r"^```json\n(.*?)^```", BOOK, re.M | re.S))
}
EXAMPLE_SPECS = ("sweep_demo", "sweep_quickstart")


def test_the_book_carries_the_specs_it_describes():
    assert {"table2-robustness", "offnet-visibility"} <= set(BOOK_SPECS)


@pytest.mark.parametrize("name", EXAMPLE_SPECS + tuple(sorted(BOOK_SPECS)))
def test_every_committed_spec_parses(name, tmp_path):
    """``load_spec`` checks each metric name against the grammar."""
    if name in EXAMPLE_SPECS:
        path = os.path.join(REPO_ROOT, "examples", name + ".json")
    else:
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(BOOK_SPECS[name]))
    assert load_spec(str(path)).metrics


def test_the_metrics_paragraph_lists_every_family():
    (paragraph,) = re.findall(r"^\*\*Metrics\*\*.*?(?=\n\n)", BOOK, re.M | re.S)
    for name in list(FAMILIES) + list(CAPTURE_NAMES):
        assert "`" + name in paragraph, name
