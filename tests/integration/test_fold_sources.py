"""The same numbers from the columns and from the objects, for every prefix.

The analyses fold a :class:`~repro.capstore.CaptureTable`'s columns
(``CaptureFold.feed``); the standalone batch functions are the other
spelling, over ``CapturedPacket`` objects (``datagram_values``).  For the
four golden scenarios and the hostile-pcap corpus, the two must agree
accumulator by accumulator — ``tests/stream/test_reducers.py``'s fold
property, extended to ``SessionStore``, timing, Fig. 7, the off-net
servers and the flood events — at every checkpoint of a capture fed in
ragged ranges, and those ranges must end where one feed of the same
prefix does.  The fold's other two readers are then held to the same
references from outside: ``StreamAnalyses`` for what it counts itself,
``evaluate_metrics`` name by name — every name of the grammar
``repro.core.selectors`` declares, which is exactly the set
``CaptureFold.values`` fills.
"""

import os
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.capstore import (
    CaptureTable,
    ClassifiedView,
    build_capture_table,
    default_acknowledged,
    default_asdb,
    record_verdict,
)
from repro.cli import main
from repro.core.ibr_activity import detect_flood_events
from repro.core.offnet import OffnetServers, extract_features
from repro.core.packet_mix import packet_mix, top_length_signatures
from repro.core.render import CaptureFold
from repro.core.scid_entropy import chi_square_uniformity, is_structured, nybble_matrix
from repro.core.scid_stats import table4
from repro.core.selectors import (
    ANALYSIS_NAMES,
    CAPTURE_NAMES,
    DROP_REASONS,
    FAMILIES,
    ORIGINS,
    PACKET_CATEGORIES,
    SIDES,
    SUMMARY_FEATURES,
    TABLE2_ROWS,
    TABLE3_ROWS,
    VALID_TABLES,
    validate_metric,
)
from repro.core.session import SessionStore
from repro.core.summary import summarize
from repro.core.timing import profiles_of, timing_profiles
from repro.core.versions import session_shares, table2
from repro.netstack.pcap import read_pcap
from repro.stream.reducers import StreamAnalyses
from repro.sweep.metrics import evaluate_metrics
from repro.telescope.classify import (
    PacketClass,
    SanitizationStats,
    datagram_values,
)
from repro.workloads.scenario import ScenarioConfig, build_scenario

from tests.integration.test_fuzz import _capture_records, _pcap_bytes
from tests.integration.test_golden_pcap import MONTHS, ONE_SIDED

#: Every selector the fold knows: the ``--tables`` names plus the ones
#: no table prints, which ``StreamAnalyses`` or ``evaluate_metrics`` ask for.
ALL_SELECTORS = set(VALID_TABLES) | {"offnet", "entropy", "events"}
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
    table, stats = build_capture_table(path)
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


def _servers(fold):
    """``(sessions, counts)`` of Table 2's server side: from its own
    ``VersionMix``, or from the session store when the fold keeps one."""
    if fold.servers is not None:
        return fold.servers.keys, fold.servers.counts
    return fold.sessions.sessions(), session_shares(fold.sessions).counts


def _fold_state(fold):
    """Everything a CaptureFold holds, as plain comparable data."""
    return {
        "clients": (fold.clients.keys, fold.clients.counts),
        "servers": _servers(fold),
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
        "events": fold.events.events(),
    }


def _batch_state(packets):
    """The same, from the standalone batch functions over ``packets``."""
    backscatter = [p for p in packets if p.klass is PacketClass.BACKSCATTER]
    scans = [p for p in packets if p.klass is PacketClass.SCAN]
    shares = table2(SimpleNamespace(backscatter=backscatter, scans=scans))
    offnet = OffnetServers()
    for row in map(datagram_values, backscatter):
        _, src_ip, _, _, origin, payload_length, types, _, _, scids, _ = row
        offnet.add_values(origin, src_ip, types, scids, payload_length)
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
        "events": detect_flood_events(backscatter),
    }


def _assert_batch_holds(state, packets):
    """A fold's state is the batch functions' over ``packets``; Table 2's
    session keys are the table's pair ids there, the bytes here."""
    batch = _batch_state(packets)
    for side in ("clients", "servers"):
        keys, counts = state.pop(side)
        assert counts == batch.pop(side) and len(keys) == sum(counts.values())
    assert state == batch


def test_reader_yields_what_the_objects_hold(sources):
    """Any row range, whatever its offsets, folds to what the batch
    functions compute from that range's objects."""
    table, packets = sources
    rows = len(packets)
    for start, end in ((0, 0), (0, 1), (1, rows), (rows // 3, rows // 2)):
        fold = CaptureFold(ALL_SELECTORS)
        fold.feed(table, start, end)
        _assert_batch_holds(_fold_state(fold), packets[start:end])


def test_render_fold_agrees_at_every_checkpoint(sources):
    table, packets = sources
    ragged = CaptureFold(ALL_SELECTORS)
    fed = 0
    for upto in _checkpoints(len(packets), every_prefix=len(packets) <= 32):
        ragged.feed(table, fed, upto)
        fed = upto
        at_once = CaptureFold(ALL_SELECTORS)
        at_once.feed(table, 0, upto)
        state = _fold_state(ragged)
        assert state == _fold_state(at_once)
        _assert_batch_holds(state, packets[:upto])


def _as_two_shards(records, cut, origins):
    """The rows of ``records[:cut]`` and of ``records[cut:]`` as tables of
    their own, the second numbering ``origins`` backwards — two tables
    ``StreamAnalyses.feed`` must fold as one."""
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
        assert snap["span_seconds"] == span
        assert snap["rows_fed"] == upto
        classes = Counter(packet.klass for packet in seen)
        assert snap["rows.backscatter"] == classes[PacketClass.BACKSCATTER]
        assert snap["rows.scans"] == classes[PacketClass.SCAN]
        rates = {
            name.partition(".")[2]: value
            for name, value in snap.items()
            if name.startswith("rows_per_sec.")
        }
        assert rates == {
            origin: count / span if span > 0 else 0.0
            for origin, count in Counter(packet.origin for packet in seen).items()
        }
    sharded = StreamAnalyses()
    for shard in _as_two_shards(records, len(records) // 3, table.origins):
        sharded.feed(shard, 0, shard.num_rows)
    assert sharded.snapshot() == ragged.snapshot()


def test_values_names_the_whole_grammar(sources):
    """A fold's names are its selectors' families, expanded, zeros included."""
    table, _packets = sources
    everything = CaptureFold(ALL_SELECTORS)
    everything.feed(table, 0, table.num_rows)
    assert set(everything.values()) == set(ANALYSIS_NAMES)
    for selector in {selector for selector, _ in FAMILIES.values()}:
        fold = CaptureFold({selector})
        fold.feed(table, 0, table.num_rows)
        assert set(fold.values()) == {
            name for name, (of, _, _) in ANALYSIS_NAMES.items() if of == selector
        }


def _batch_metrics(stats, packets):
    """Every name ``repro.core.selectors``' grammar admits over a capture,
    valued by the standalone batch functions over the objects."""
    backscatter = [p for p in packets if p.klass is PacketClass.BACKSCATTER]
    scans = [p for p in packets if p.klass is PacketClass.SCAN]
    shares = table2(SimpleNamespace(backscatter=backscatter, scans=scans))
    mix = packet_mix(backscatter + scans)
    scid_stats = table4(backscatter)
    features = extract_features(backscatter)
    profiles = timing_profiles(backscatter)
    tops = top_length_signatures(backscatter)
    events = detect_flood_events(backscatter)
    per_origin = Counter(event.origin for event in events)
    expected = {
        "rows.total": len(packets),
        "rows.backscatter": len(backscatter),
        "rows.scans": len(scans),
        "records.total": stats.total_records,
        "removed_share": stats.removed_share,
        "offnet.servers": len(features),
        "offnet.low_host_id": sum(1 for f in features.values() if f.low_host_id()),
        "flood_victims": len({event.victim for event in events}),
    }
    for reason in DROP_REASONS:
        expected["dropped." + reason] = getattr(stats, reason)
    for hypergiant, column in summarize(backscatter).items():
        for feature in SUMMARY_FEATURES:
            expected["summary.%s.%s" % (hypergiant, feature)] = int(
                getattr(column, feature)
            )
    for side in SIDES:
        for bucket in TABLE2_ROWS:
            expected["version_share.%s.%s" % (side, bucket)] = shares[side].share(bucket)
            expected["sessions.%s.%s" % (side, bucket)] = shares[side].counts[bucket]
        expected["sessions.%s.total" % side] = shares[side].total
    for origin in ORIGINS:
        for category in TABLE3_ROWS:
            expected["packet_share.%s.%s" % (origin, category)] = mix.share(
                origin, category
            )
        for category in PACKET_CATEGORIES:
            expected["packet_mix.%s.%s" % (origin, category)] = mix.counts.get(
                origin, Counter()
            )[category]
        found = scid_stats.get(origin)
        matrix = nybble_matrix(found.unique_scids if found else ())
        expected["scid_unique." + origin] = found.unique_count if found else 0
        expected["scid_dominant_len." + origin] = found.dominant_length if found else 0
        expected["scid_structured." + origin] = int(is_structured(matrix))
        expected["scid_max_chi2." + origin] = max(
            chi_square_uniformity(matrix), default=0.0
        )
        entropy = matrix.entropy_per_position() or [0.0]
        expected["scid_entropy.first." + origin] = entropy[0]
        expected["scid_entropy.min." + origin] = min(entropy)
        expected["scid_entropy.last." + origin] = entropy[-1]
        profile = profiles.get(origin)
        expected["rto.sessions." + origin] = profile.sessions if profile else 0
        expected["rto.initial." + origin] = (profile and profile.initial_rto) or 0
        expected["rto.backoff." + origin] = (profile and profile.backoff_factor) or 0
        low, high = (profile and profile.resend_range) or (0, 0)
        expected["resends.min." + origin], expected["resends.max." + origin] = low, high
        top = tops.get(origin)
        expected["length_top_packets." + origin] = (
            top[0][0].count(",") + 1 if top else 0
        )
        expected["flood_events." + origin] = per_origin[origin]
    for name in expected:
        validate_metric(name)
    assert set(expected) == set(ANALYSIS_NAMES) | set(CAPTURE_NAMES)
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
    # Server-chosen IDs are the active echo probe's finding, not the capture's.
    assert {
        value
        for name, value in expected.items()
        if not name.endswith(".server_chosen_ids")
    } == {0}
    assert evaluate_metrics(list(expected), view, {}) == expected
