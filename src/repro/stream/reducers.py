"""The paper's headline numbers, kept up to date while a capture grows.

:class:`StreamAnalyses` is one reader of
:class:`~repro.core.render.CaptureFold` — the fold of a table's columns
into each ``repro.core`` accumulator, the same one ``repro analyze``
renders from — over the selectors the dashboard shows: Table 2's version
mix per side, Table 3's packet mix, Table 4 / Figure 5's SCIDs and
Table 6's off-net servers.  It feeds the fold each newly appended
:class:`~repro.capstore.CaptureTable` range and adds the only thing with
no batch form, per-class / per-origin row counts over the observed
capture span, counted off the row columns.  Because the batch functions
*are* folds over these accumulators, the state after any prefix, fed in
any batching, equals the batch result over that prefix
(``tests/stream/test_reducers.py``).  :meth:`StreamAnalyses.snapshot`
names the numbers in :mod:`repro.core.selectors`' grammar and
:meth:`StreamAnalyses.publish` exports them as ``stream.*`` gauges.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.capstore.table import CaptureTable
from repro.core.render import CaptureFold
from repro.core.selectors import ANALYSIS_NAMES, FAMILIES
from repro.telescope.classify import KLASS_VALUES

#: The grammar's ``rows.*`` names -> the packet class labelling ``stream.rows``.
_ROW_CLASSES = {"rows.backscatter": "backscatter", "rows.scans": "scan"}

#: The fold selectors the dashboard shows; none of them groups sessions.
SELECTORS = ("2", "3", "4", "offnet")
#: ``stream.<family>`` gauge -> its labels: the placeholders of every family
#: the selectors count, then the families only a growing capture has.
_GAUGES = {
    f: tuple(p for p, _ in places)
    for f, (selector, places) in FAMILIES.items()
    if selector in SELECTORS
}
_GAUGES.update(rows=("klass",), rows_fed=(), span_seconds=(), rows_per_sec=("origin",))


class StreamAnalyses:
    """A :class:`CaptureFold` plus span counters; feed row ranges, read anytime."""

    def __init__(self) -> None:
        self.fold = CaptureFold(set(SELECTORS))
        #: Rows per packet class ("backscatter" / "scan").
        self.rows: Counter = Counter()
        self.rows_by_origin: Counter = Counter()
        self.ts_min: Optional[float] = None
        self.ts_max: Optional[float] = None

    # -- ingestion -------------------------------------------------------

    def feed(self, table: CaptureTable, start: int, end: int) -> int:
        """Absorb rows ``[start, end)`` of ``table``; returns rows fed.

        Rows must be fed exactly once and in table order (the follower's
        append-only cursor guarantees both).
        """
        if end <= start:
            return 0
        self.fold.feed(table, start, end)
        for code, count in Counter(table.klass[start:end]).items():
            self.rows[KLASS_VALUES[code].value] += count
        for origin_id, count in Counter(table.origin_id[start:end]).items():
            self.rows_by_origin[table.origins[origin_id]] += count
        stamps = table.ts[start:end]
        low, high = min(stamps), max(stamps)
        self.ts_min = low if self.ts_min is None else min(low, self.ts_min)
        self.ts_max = high if self.ts_max is None else max(high, self.ts_max)
        return end - start

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Every number the dashboard shows, as ``{name: number}``: the
        fold's :meth:`~repro.core.render.CaptureFold.values`, the rows per
        class under the grammar's ``rows.*`` names, and what only a
        growing capture has — ``rows_fed``, ``span_seconds`` and
        ``rows_per_sec.<origin>`` for every origin seen so far."""
        values = self.fold.values()
        for name, klass in _ROW_CLASSES.items():
            values[name] = self.rows[klass]
        values["rows_fed"] = rows = sum(self.rows.values())
        span = self.ts_max - self.ts_min if rows else 0.0
        values["span_seconds"] = span
        for origin, count in self.rows_by_origin.items():
            values["rows_per_sec." + origin] = count / span if span > 0 else 0.0
        return values

    def publish(self, metrics) -> None:
        """Mirror :meth:`snapshot` into one ``stream.<family>`` gauge per family.

        Gauges, as the state holds absolute running values; a name's
        placeholder values label its series.  Each gauge's series are
        replaced whole, so the exposition holds the current names and
        nothing else — none of a capture since rewritten (``repro live``).
        """
        if metrics is None:
            return
        series = {family: {} for family in _GAUGES}
        for name, value in self.snapshot().items():
            if name in ANALYSIS_NAMES:
                _selector, family, key = ANALYSIS_NAMES[name]
            elif name in _ROW_CLASSES:
                family, key = "rows", (_ROW_CLASSES[name],)
            else:  # rows_fed, span_seconds, rows_per_sec.<origin>
                family, _, rest = name.partition(".")
                key = (rest,) if rest else ()
            series[family][key] = value
        for family, values in series.items():
            name = "stream." + family.replace(".", "_")
            metrics.gauge(name, _GAUGES[family]).values = values
