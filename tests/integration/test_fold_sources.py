"""The same numbers from either row source, for every prefix.

The analyses fold plain values that come either straight from a
:class:`~repro.capstore.CaptureTable`'s columns (``datagrams``) or from
``CapturedPacket`` objects (``datagram_values``); the standalone batch
functions are a third spelling.  For the four golden scenarios and the
hostile-pcap corpus, the three must agree accumulator by accumulator —
``tests/stream/test_reducers.py``'s fold property, extended to
``SessionStore``, timing, Fig. 7 and the off-net servers — at every
checkpoint of a capture fed in two different batchings: the columns in
ragged ranges, the objects one at a time.  The fold's other two readers
are then held to the same references from outside: ``StreamAnalyses``
for what it counts itself, ``evaluate_metrics`` name by name.
"""

import os
from collections import Counter
from dataclasses import replace

import pytest

from repro.capstore import (
    CaptureTable,
    ClassifiedView,
    build_capture_table,
    default_acknowledged,
    default_asdb,
    record_verdict,
)
from repro.capstore.table import DATAGRAM_FIELDS, datagram_values
from repro.cli import main
from repro.core.offnet import OffnetServers, extract_features
from repro.core.packet_mix import TABLE3_ROWS, packet_mix, top_length_signatures
from repro.core.render import ORIGINS, CaptureFold
from repro.core.scid_stats import table4
from repro.core.selectors import VALID_TABLES
from repro.core.session import SessionStore
from repro.core.timing import profiles_of, timing_profiles
from repro.core.versions import TABLE2_ROWS, table2
from repro.netstack.pcap import read_pcap
from repro.stream.reducers import StreamAnalyses
from repro.sweep.metrics import SIDES, evaluate_metrics, validate_metric
from repro.telescope.classify import (
    ClassifiedCapture,
    PacketClass,
    SanitizationStats,
)
from repro.workloads.scenario import ScenarioConfig, build_scenario

from tests.integration.test_fuzz import _capture_records, _pcap_bytes
from tests.integration.test_golden_pcap import MONTHS, ONE_SIDED

#: Every selector the fold knows: the ``--tables`` names plus the one
#: only ``StreamAnalyses`` and ``evaluate_metrics`` ask for.
ALL_SELECTORS = set(VALID_TABLES) | {"offnet"}
RAGGED = (1, 7, 50, 3, 211, 19)


def _write_case(case, path):
    if case in MONTHS:
        assert main(["simulate", path, *MONTHS[case]]) == 0
    elif case in ONE_SIDED:
        config = replace(
            ScenarioConfig(seed=20220101).scaled(0.05),
            **{knob: 0 for knob in ONE_SIDED[case]},
        )
        scenario = build_scenario(config)
        scenario.run()
        with open(path, "wb") as fileobj:
            scenario.telescope.write_pcap(fileobj)
    else:
        with open(path, "wb") as fileobj:
            fileobj.write(_pcap_bytes(_capture_records()))


@pytest.fixture(scope="module", params=sorted(MONTHS) + sorted(ONE_SIDED) + ["hostile"])
def capture(request, tmp_path_factory):
    """``(view, packets, records)``: the columns, one object per row in row
    order, and the pcap records they were dissected from."""
    path = str(tmp_path_factory.mktemp("fold") / "case.pcap")
    _write_case(request.param, path)
    table, stats = build_capture_table(path, workers=1)
    assert table.num_rows > 0
    records = read_pcap(path)
    os.unlink(path)
    packets = [table.materialize(row) for row in range(table.num_rows)]
    return ClassifiedView(table, stats), packets, records


@pytest.fixture(scope="module")
def sources(capture):
    view, packets, _records = capture
    return view.table, packets


def _checkpoints(rows, every_prefix):
    """Row counts at which the two folds are compared: the ragged batch
    boundaries, or every prefix of a capture small enough for that."""
    if every_prefix:
        return list(range(1, rows + 1))
    out, at, step = [], 0, 0
    while at < rows:
        at = min(at + RAGGED[step % len(RAGGED)], rows)
        out.append(at)
        step += 1
    return out


def _fold_state(fold):
    """Everything a CaptureFold holds, as plain comparable data."""
    return {
        "clients": (fold.clients.keys, fold.clients.counts),
        "servers": (fold.servers.keys, fold.servers.counts),
        "mix": fold.mix.counts,
        "scan_mix": fold.scan_mix.counts,
        "scids": {
            origin: (
                stats.unique_scids,
                list(stats.length_counts.items()),
                stats.matrix().freq,
            )
            for origin, stats in fold.scids.stats.items()
        },
        "sessions": fold.sessions.sessions(),
        "timing": list(profiles_of(fold.sessions).items()),
        "lengths": [(o, e) for o, e in fold.signatures.top().items()],
        "offnet": fold.offnet.features,
    }


def _batch_state(packets):
    """The same, from the standalone batch functions over ``packets``."""
    backscatter = [p for p in packets if p.klass is PacketClass.BACKSCATTER]
    scans = [p for p in packets if p.klass is PacketClass.SCAN]
    shares = table2(ClassifiedCapture(backscatter=backscatter, scans=scans))
    offnet = OffnetServers()
    for packet in backscatter:
        offnet.add(packet)
    return {
        "clients": shares["clients"].counts,
        "servers": shares["servers"].counts,
        "mix": packet_mix(backscatter).counts,
        "scan_mix": packet_mix(scans).counts,
        "scids": {
            origin: (
                stats.unique_scids,
                list(stats.length_counts.items()),
                stats.matrix().freq,
            )
            for origin, stats in table4(backscatter).items()
        },
        "sessions": SessionStore.from_packets(backscatter).sessions(),
        "timing": list(timing_profiles(backscatter).items()),
        "lengths": list(top_length_signatures(backscatter).items()),
        "offnet": offnet.features,
    }


def test_reader_yields_what_the_objects_hold(sources):
    table, packets = sources
    rows = list(table.datagrams())
    assert rows == [datagram_values(packet) for packet in packets]
    assert all(len(row) == len(DATAGRAM_FIELDS) for row in rows)
    # Any range is the same slice of the whole, whatever its offsets.
    for start, end in ((0, 0), (0, 1), (1, len(rows)), (len(rows) // 3, len(rows) // 2)):
        assert list(table.datagrams(start, end)) == rows[start:end]


def test_render_fold_agrees_at_every_checkpoint(sources):
    table, packets = sources
    from_columns, from_objects = CaptureFold(ALL_SELECTORS), CaptureFold(ALL_SELECTORS)
    fed = 0
    for upto in _checkpoints(len(packets), every_prefix=len(packets) <= 32):
        from_columns.feed(table.datagrams(fed, upto))
        for packet in packets[fed:upto]:
            from_objects.feed([datagram_values(packet)])
        fed = upto
        state = _fold_state(from_columns)
        assert state == _fold_state(from_objects)
        batch = _batch_state(packets[:upto])
        for side in ("clients", "servers"):
            keys, counts = state.pop(side)
            assert counts == batch.pop(side) and len(keys) == sum(counts.values())
        assert state == batch


def _as_two_shards(records, cut, origins):
    """The rows of ``records[:cut]`` and of ``records[cut:]`` as tables of
    their own, the second numbering ``origins`` backwards — what the
    followers of a ``--no-merge`` shard set hold."""
    first, second = CaptureTable(), CaptureTable()
    for name in reversed(origins):
        second.origin_index(name)
    for table, part in ((first, records[:cut]), (second, records[cut:])):
        verdict = record_verdict(table, default_asdb(), default_acknowledged())
        for record in part:
            verdict(record.timestamp, record.data, 0, len(record.data))
    return first, second


def test_stream_fold_agrees_at_every_checkpoint(capture):
    """What only ``StreamAnalyses`` counts — rows, span, rates — against the
    objects; the accumulators are the fold's, held above."""
    view, packets, records = capture
    table = view.table
    ragged = StreamAnalyses()
    fed = 0
    for upto in _checkpoints(len(packets), every_prefix=len(packets) <= 32):
        ragged.feed(table, fed, upto)
        fed = upto
        at_once = StreamAnalyses()
        at_once.feed(table, 0, upto)
        snap = ragged.snapshot()
        assert snap == at_once.snapshot()
        seen = packets[:upto]
        stamps = [packet.timestamp for packet in seen]
        span = max(stamps) - min(stamps)
        assert snap["span_seconds"] == ragged.span_seconds == span
        assert snap["rows_fed"] == upto
        assert snap["rows"] == Counter(packet.klass.value for packet in seen)
        assert snap["rows_per_sec"] == {
            origin: count / span if span > 0 else 0.0
            for origin, count in Counter(packet.origin for packet in seen).items()
        }
    sharded = StreamAnalyses()
    for shard in _as_two_shards(records, len(records) // 3, table.origins):
        sharded.feed(shard, 0, shard.num_rows)
    assert sharded.snapshot() == ragged.snapshot()


def _batch_metrics(stats, packets):
    """Every name ``repro.sweep.metrics``' grammar admits over a capture,
    valued by the standalone batch functions over the objects."""
    backscatter = [p for p in packets if p.klass is PacketClass.BACKSCATTER]
    scans = [p for p in packets if p.klass is PacketClass.SCAN]
    shares = table2(ClassifiedCapture(backscatter=backscatter, scans=scans))
    mix = packet_mix(backscatter + scans)
    scid_stats = table4(backscatter)
    features = extract_features(backscatter)
    expected = {
        "rows.total": len(packets),
        "rows.backscatter": len(backscatter),
        "rows.scans": len(scans),
        "records.total": stats.total_records,
        "removed_share": stats.removed_share,
        "offnet.servers": len(features),
        "offnet.low_host_id": sum(1 for f in features.values() if f.low_host_id()),
    }
    for side in SIDES:
        for bucket in TABLE2_ROWS:
            expected["version_share.%s.%s" % (side, bucket)] = shares[side].share(bucket)
    for origin in ORIGINS:
        for category in TABLE3_ROWS:
            expected["packet_share.%s.%s" % (origin, category)] = mix.share(
                origin, category
            )
        expected["scid_unique." + origin] = (
            scid_stats[origin].unique_count if origin in scid_stats else 0
        )
    for name in expected:
        validate_metric(name)
    assert len(expected) == 2 * len(TABLE2_ROWS) + 4 * len(TABLE3_ROWS) + 4 + 2 + 5
    return expected


def test_sweep_metrics_equal_the_batch_functions(capture):
    view, packets, _records = capture
    expected = _batch_metrics(view.stats, packets)
    assert evaluate_metrics(list(expected), view, {}) == expected
    # Asking for one name is asking for the same number.
    for name in ("version_share.servers.QUICv1", "offnet.low_host_id"):
        assert evaluate_metrics([name], view, {}) == {name: expected[name]}


def test_sweep_metrics_of_an_empty_table():
    view = ClassifiedView(CaptureTable(), SanitizationStats())
    expected = _batch_metrics(view.stats, [])
    assert set(expected.values()) == {0}
    assert evaluate_metrics(list(expected), view, {}) == expected
