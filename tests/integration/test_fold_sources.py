"""The same numbers from either row source, for every prefix.

The analyses fold plain values that come either straight from a
:class:`~repro.capstore.CaptureTable`'s columns (``datagrams``) or from
``CapturedPacket`` objects (``datagram_values``); the standalone batch
functions are a third spelling.  For the four golden scenarios and the
hostile-pcap corpus, the three must agree accumulator by accumulator —
``tests/stream/test_reducers.py``'s fold property, extended to
``SessionStore``, timing and Fig. 7 — at every checkpoint of a capture
fed in two different batchings: the columns in ragged ranges, the
objects one at a time.
"""

import os
from dataclasses import replace

import pytest

from repro.capstore import build_capture_table
from repro.capstore.table import DATAGRAM_FIELDS, datagram_values
from repro.cli import main
from repro.core.offnet import OffnetServers
from repro.core.packet_mix import packet_mix, top_length_signatures
from repro.core.render import VALID_TABLES, CaptureFold
from repro.core.scid_stats import table4
from repro.core.session import SessionStore
from repro.core.timing import profiles_of, timing_profiles
from repro.core.versions import table2
from repro.stream.reducers import StreamAnalyses
from repro.telescope.classify import ClassifiedCapture, PacketClass
from repro.workloads.scenario import ScenarioConfig, build_scenario

from tests.integration.test_fuzz import _capture_records, _pcap_bytes
from tests.integration.test_golden_pcap import MONTHS, ONE_SIDED

ALL_TABLES = set(VALID_TABLES)
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
def sources(request, tmp_path_factory):
    """``(table, packets)``: the columns, and one object per row in row order."""
    path = str(tmp_path_factory.mktemp("fold") / "case.pcap")
    _write_case(request.param, path)
    table, _stats = build_capture_table(path, workers=1)
    assert table.num_rows > 0
    os.unlink(path)
    return table, [table.materialize(row) for row in range(table.num_rows)]


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
    }


def _batch_state(packets):
    """The same, from the standalone batch functions over ``packets``."""
    backscatter = [p for p in packets if p.klass is PacketClass.BACKSCATTER]
    scans = [p for p in packets if p.klass is PacketClass.SCAN]
    shares = table2(ClassifiedCapture(backscatter=backscatter, scans=scans))
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
    from_columns, from_objects = CaptureFold(ALL_TABLES), CaptureFold(ALL_TABLES)
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


def test_stream_fold_agrees_at_every_checkpoint(sources):
    table, packets = sources
    from_columns, from_objects = StreamAnalyses(), StreamAnalyses()
    fed = 0
    for upto in _checkpoints(len(packets), every_prefix=len(packets) <= 32):
        from_columns.feed(table, fed, upto)
        for packet in packets[fed:upto]:
            from_objects.add(packet)
        fed = upto
        assert from_columns.snapshot() == from_objects.snapshot()
        assert from_columns._offnet.features == from_objects._offnet.features
        backscatter = [
            p for p in packets[:upto] if p.klass is PacketClass.BACKSCATTER
        ]
        batch = OffnetServers()
        for packet in backscatter:
            batch.add(packet)
        assert from_columns._offnet.features == batch.features
        assert {o: s.scids for o, s in from_columns.scids.items()} == {
            o: s.unique_scids for o, s in table4(backscatter).items()
        }
        assert from_columns.packet_mix == packet_mix(packets[:upto]).counts
