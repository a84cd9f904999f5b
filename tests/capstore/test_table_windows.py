"""``CaptureFold.feed`` slices a table's columns in fixed windows.

The window is a module constant; shrunk to a few rows here, a fold fed
any range — one that starts or ends inside a window, an empty one, the
whole table — must count what the batch functions count over that
range's materialized rows, and a fold fed in spans that cross windows
must end in the state one feed of the whole table reaches.
"""

import pytest

from repro.capstore import build_capture_table
from repro.core import render
from repro.core.render import CaptureFold
from repro.core.selectors import ANALYSIS_NAMES
from repro.stream.reducers import StreamAnalyses
from repro.telescope.classify import SanitizationStats

from tests.integration.test_fold_sources import ALL_SELECTORS, _batch_metrics

WINDOW = 7


@pytest.fixture(scope="module")
def table(month_pcap):
    table, _stats = build_capture_table(month_pcap)
    assert table.num_rows > 10 * WINDOW
    return table


def test_every_range_yields_the_materialized_rows(table, monkeypatch):
    monkeypatch.setattr(render, "FOLD_WINDOW", WINDOW)
    rows = table.num_rows
    ranges = [
        (0, rows),  # the whole table
        (0, 0),
        (WINDOW + 3, WINDOW + 3),  # empty, inside a window
        (0, WINDOW),  # exactly one window
        (3, WINDOW),  # starts inside the first window
        (0, 2 * WINDOW + 1),  # ends one past a window
        (WINDOW - 1, 3 * WINDOW + 2),  # starts and ends inside windows
        (rows - WINDOW - 2, rows),  # the ragged last window
    ]
    for start, end in ranges:
        fold = CaptureFold(ALL_SELECTORS)
        fold.feed(table, start, end)
        packets = [table.materialize(row) for row in range(start, end)]
        expected = _batch_metrics(SanitizationStats(), packets)
        assert fold.values() == {name: expected[name] for name in ANALYSIS_NAMES}, (
            start,
            end,
        )


def test_stream_fold_over_spans_that_cross_windows(table, monkeypatch):
    whole = StreamAnalyses()
    whole.feed(table, 0, table.num_rows)  # in the module's own windows
    monkeypatch.setattr(render, "FOLD_WINDOW", WINDOW)
    ragged = StreamAnalyses()
    spans = [5, 9, 2 * WINDOW, 1, 3 * WINDOW + 4]
    start, step = 0, 0
    while start < table.num_rows:
        end = min(start + spans[step % len(spans)], table.num_rows)
        ragged.feed(table, start, end)
        start, step = end, step + 1
    assert ragged.fold.values() == whole.fold.values()
    assert ragged.snapshot() == whole.snapshot()
