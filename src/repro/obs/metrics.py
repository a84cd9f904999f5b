"""Named counters, gauges, histograms, and stage timers.

A :class:`MetricsRegistry` is the numeric half of the observability layer
(the tracer is the narrative half).  Instruments support low-cardinality
labels (origin AS, packet type, drop reason) stored as value tuples, so
the hot-path cost of an increment is one tuple hash and one dict add.
Two APIs coexist:

* ``counter.inc(1, outcome="delivered", device="telescope")`` — readable,
  used from cold paths;
* ``counter.inc_key(("delivered", "telescope"))`` — the hot-path form,
  skipping kwargs construction.

``snapshot()`` renders everything to plain dicts (JSON-ready); the CLI's
``repro stats`` pretty-prints such snapshots, and benches persist them as
machine-readable baselines.  ``timers`` holds wall-clock seconds and
calls per pipeline stage, keyed by the stage's ``/``-joined span path
(``simulate.build/simulate.unit``); :meth:`Observability.span
<repro.obs.Observability.span>` is what books them.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Optional, Sequence, Tuple

from repro.atomic import atomic_output
from repro.errors import InputFileError

LabelKey = Tuple[str, ...]

#: Join character for label values in snapshot keys ("delivered|telescope").
KEY_SEP = "|"


def _key_from_labels(label_names: Sequence[str], labels: dict) -> LabelKey:
    if set(labels) != set(label_names):
        raise ValueError(
            "expected labels %r, got %r" % (tuple(label_names), tuple(labels))
        )
    return tuple(str(labels[name]) for name in label_names)


class Counter:
    """Monotonic sum per label tuple."""

    __slots__ = ("name", "label_names", "values")

    def __init__(self, name: str, label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.label_names = tuple(label_names)
        self.values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        self.inc_key(_key_from_labels(self.label_names, labels), amount)

    def inc_key(self, key: LabelKey = (), amount: float = 1) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self.values.get(_key_from_labels(self.label_names, labels), 0)

    def total(self) -> float:
        return sum(self.values.values())


class Gauge:
    """Last-written value per label tuple."""

    __slots__ = ("name", "label_names", "values")

    def __init__(self, name: str, label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.label_names = tuple(label_names)
        self.values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        self.values[_key_from_labels(self.label_names, labels)] = value

    def set_key(self, key: LabelKey, value: float) -> None:
        self.values[key] = value

    def value(self, **labels) -> float:
        return self.values.get(_key_from_labels(self.label_names, labels), 0)


class _HistogramSeries:
    __slots__ = ("counts", "count", "sum")

    def __init__(self, bucket_count: int) -> None:
        self.counts = [0] * bucket_count  # one per bound, plus +Inf overflow
        self.count = 0
        self.sum = 0.0


class Histogram:
    """Fixed-bucket histogram; the last bucket is the +Inf overflow."""

    __slots__ = ("name", "label_names", "bounds", "series")

    def __init__(
        self,
        name: str,
        bounds: Sequence[float],
        label_names: Sequence[str] = (),
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted, non-empty list")
        self.name = name
        self.label_names = tuple(label_names)
        self.bounds = tuple(float(b) for b in bounds)
        self.series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels) -> None:
        self.observe_key(_key_from_labels(self.label_names, labels), value)

    def observe_key(self, key: LabelKey, value: float) -> None:
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = _HistogramSeries(len(self.bounds) + 1)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        series.counts[index] += 1
        series.count += 1
        series.sum += value

    def bucket_labels(self) -> list:
        return ["<=%g" % b for b in self.bounds] + ["+Inf"]


class MetricsRegistry:
    """Get-or-create home for every instrument, plus stage timers."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.timers: Dict[str, list] = {}  # stage path -> [seconds, calls]

    # -- instrument accessors -------------------------------------------------
    def counter(self, name: str, label_names: Sequence[str] = ()) -> Counter:
        return self._get(self._counters, Counter, name, label_names)

    def gauge(self, name: str, label_names: Sequence[str] = ()) -> Gauge:
        return self._get(self._gauges, Gauge, name, label_names)

    def histogram(
        self,
        name: str,
        bounds: Sequence[float],
        label_names: Sequence[str] = (),
    ) -> Histogram:
        existing = self._histograms.get(name)
        if existing is not None:
            if existing.label_names != tuple(label_names):
                raise ValueError(
                    "histogram %r re-registered with labels %r != %r"
                    % (name, tuple(label_names), existing.label_names)
                )
            return existing
        created = Histogram(name, bounds, label_names)
        self._histograms[name] = created
        return created

    def _get(self, store, cls, name, label_names):
        existing = store.get(name)
        if existing is not None:
            if existing.label_names != tuple(label_names):
                raise ValueError(
                    "%s %r re-registered with labels %r != %r"
                    % (cls.__name__, name, tuple(label_names), existing.label_names)
                )
            return existing
        created = cls(name, label_names)
        store[name] = created
        return created

    # -- stage timing ----------------------------------------------------------
    def add_time(self, stage: str, seconds: float, calls: int = 1) -> None:
        """Book ``seconds`` over ``calls`` runs of the stage at path ``stage``."""
        entry = self.timers.get(stage)
        if entry is None:
            self.timers[stage] = [seconds, calls]
        else:
            entry[0] += seconds
            entry[1] += calls

    # -- export ----------------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything, as JSON-ready plain dicts."""
        return {
            "counters": {
                c.name: {
                    "label_names": list(c.label_names),
                    "values": {KEY_SEP.join(k): v for k, v in sorted(c.values.items())},
                }
                for c in self._counters.values()
            },
            "gauges": {
                g.name: {
                    "label_names": list(g.label_names),
                    "values": {KEY_SEP.join(k): v for k, v in sorted(g.values.items())},
                }
                for g in self._gauges.values()
            },
            "histograms": {
                h.name: {
                    "label_names": list(h.label_names),
                    "buckets": h.bucket_labels(),
                    "bounds": list(h.bounds),
                    "values": {
                        KEY_SEP.join(k): {
                            "counts": list(s.counts),
                            "count": s.count,
                            "sum": s.sum,
                        }
                        for k, s in sorted(h.series.items())
                    },
                }
                for h in self._histograms.values()
            },
            "timers": {
                stage: {"seconds": seconds, "calls": calls}
                for stage, (seconds, calls) in sorted(self.timers.items())
            },
        }

    @staticmethod
    def _snapshot_key(label_names: Sequence[str], key_text: str) -> LabelKey:
        """Invert the ``KEY_SEP`` join of :meth:`snapshot` value keys."""
        if not label_names:
            return ()
        return tuple(key_text.split(KEY_SEP))

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is the pushgateway-style aggregation step of a sharded run:
        each worker process snapshots its registry, and the parent merges
        the snapshots so the existing exporters (``--metrics``,
        Prometheus file/HTTP) see whole-run numbers.  Counters, histogram
        series, and stage timers add element-wise.  Gauges add too: the
        gauges this pipeline sets (event totals, rates) are per-process
        quantities whose only meaningful cross-process combination is the
        sum — a last-writer-wins merge would report one arbitrary worker.
        """
        for name, body in snapshot.get("counters", {}).items():
            counter = self.counter(name, tuple(body.get("label_names", ())))
            for key_text, value in body.get("values", {}).items():
                counter.inc_key(
                    self._snapshot_key(counter.label_names, key_text), value
                )
        for name, body in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name, tuple(body.get("label_names", ())))
            for key_text, value in body.get("values", {}).items():
                key = self._snapshot_key(gauge.label_names, key_text)
                gauge.set_key(key, gauge.values.get(key, 0) + value)
        for name, body in snapshot.get("histograms", {}).items():
            bounds = body.get("bounds")
            if bounds is None:
                raise ValueError(
                    "histogram %r snapshot lacks 'bounds' "
                    "(written by an older version?)" % name
                )
            hist = self.histogram(name, bounds, tuple(body.get("label_names", ())))
            for key_text, series_body in body.get("values", {}).items():
                key = self._snapshot_key(hist.label_names, key_text)
                series = hist.series.get(key)
                if series is None:
                    series = hist.series[key] = _HistogramSeries(len(hist.bounds) + 1)
                for index, bucket_count in enumerate(series_body["counts"]):
                    series.counts[index] += bucket_count
                series.count += series_body["count"]
                series.sum += series_body["sum"]
        for stage, entry in snapshot.get("timers", {}).items():
            self.add_time(stage, entry["seconds"], entry["calls"])

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        with atomic_output(path) as fileobj:
            fileobj.write(self.to_json() + "\n")


def _is_number(value: object) -> bool:
    # Not a bool (an int to Python), and finite: JSON's NaN, Infinity and
    # 1e999 parse, but no table can format or subtract them.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _snapshot_problem(snapshot: object) -> Optional[str]:
    """Why ``snapshot`` is not shaped as :meth:`MetricsRegistry.snapshot`
    writes it, as far as ``repro stats`` reads it; None when it is.

    Every section is optional (``{}`` is an empty snapshot) and keys no
    reader looks at are ignored.
    """
    if not isinstance(snapshot, dict):
        return "a JSON %s, not an object" % type(snapshot).__name__
    for section in ("counters", "gauges", "histograms", "timers"):
        entries = snapshot.get(section, {})
        if not isinstance(entries, dict):
            return "%r is not an object" % section
        for name, body in entries.items():
            where = "%s %r" % (section, name)
            if not isinstance(body, dict):
                return where + " is not an object"
            if section == "timers":
                if not (_is_number(body.get("seconds")) and _is_number(body.get("calls"))):
                    return where + " lacks a numeric 'seconds' or 'calls'"
                continue
            labels, values = body.get("label_names"), body.get("values")
            if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
                return where + ": 'label_names' is not a list of strings"
            if not isinstance(values, dict):
                return where + ": 'values' is not an object"
            if section != "histograms":
                if not all(_is_number(value) for value in values.values()):
                    return where + ": a value is not a finite number"
                continue
            if not isinstance(body.get("buckets"), list):
                return where + ": 'buckets' is not a list"
            for series in values.values():
                if not (
                    isinstance(series, dict)
                    and isinstance(series.get("counts"), list)
                    and all(_is_number(count) for count in series["counts"])
                    and _is_number(series.get("count"))
                    and _is_number(series.get("sum"))
                ):
                    return where + ": a series lacks numeric 'counts', 'count' or 'sum'"
    return None


def load_snapshot(path: str) -> dict:
    """Read back a snapshot written by :meth:`MetricsRegistry.write`.

    A file that is not JSON, or JSON of another shape, raises
    :class:`~repro.errors.InputFileError` naming the path.
    """
    with open(path) as fileobj:
        try:
            snapshot = json.load(fileobj)
        except json.JSONDecodeError as exc:
            raise InputFileError(
                "%s: invalid snapshot JSON at line %d (truncated write?)"
                % (path, exc.lineno)
            ) from None
    problem = _snapshot_problem(snapshot)
    if problem is not None:
        raise InputFileError("%s: not a metrics snapshot: %s" % (path, problem))
    return snapshot
