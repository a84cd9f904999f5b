"""One fold per render: tables compose, share nothing they should not,
and are read from the columns — once, by all three readers of the fold —
without an object per row."""

from itertools import combinations

import pytest

from repro.capstore import CaptureTable, ClassifiedView, load_or_build
from repro.core.packet_mix import TABLE3_ROWS
from repro.core.render import ORIGINS, render_analysis
from repro.core.selectors import VALID_TABLES
from repro.core.versions import TABLE2_ROWS
from repro.quic.packet import PacketType, ParsedLongHeader
from repro.quic.version import QUIC_V1
from repro.stream.reducers import StreamAnalyses
from repro.sweep.metrics import DEFAULT_METRICS, SIDES, evaluate_metrics
from repro.telescope.classify import CapturedPacket, ClassifiedCapture, PacketClass

ALL_TABLES = set(VALID_TABLES)

#: Every sweep metric that is read off an analysis: 34 names.
ANALYSIS_METRICS = (
    ["version_share.%s.%s" % (s, b) for s in SIDES for b in TABLE2_ROWS]
    + ["packet_share.%s.%s" % (o, c) for o in ORIGINS for c in TABLE3_ROWS]
    + ["scid_unique." + o for o in ORIGINS]
    + ["offnet.servers", "offnet.low_host_id"]
)


@pytest.fixture(scope="module")
def columnar(month_pcap):
    view, _hit = load_or_build(month_pcap, use_cache=False)
    return view


class TestComposition:
    """Sharing accumulators between selectors must not be observable."""

    @pytest.fixture(scope="class")
    def single(self, columnar):
        return {name: render_analysis(columnar, {name}) for name in VALID_TABLES}

    def test_every_selector_renders_something(self, single):
        assert all(single.values())

    @pytest.mark.parametrize("size", range(2, len(VALID_TABLES) + 1))
    def test_a_subset_is_its_selectors_joined_in_order(self, columnar, single, size):
        for subset in combinations(VALID_TABLES, size):
            assert render_analysis(columnar, set(subset)) == "\n".join(
                single[name] for name in subset
            ), subset


def _header(kind, scid=b"\x11" * 8):
    return ParsedLongHeader(
        packet_type=kind,
        version=QUIC_V1.value,
        dcid=b"\x22" * 8,
        scid=scid,
        token=b"",
        pn_offset=26,
        packet_length=600,
        payload_length=570,
    )


def _datagram(index, klass, kinds):
    return CapturedPacket(
        timestamp=1000.0 + index,
        src_ip=0x8EFA0000 + index,
        dst_ip=0x2C000001,
        src_port=443 if klass is PacketClass.BACKSCATTER else 50000,
        dst_port=50000 if klass is PacketClass.BACKSCATTER else 443,
        udp_payload_length=600 * len(kinds),
        packets=[_header(kind) for kind in kinds],
        klass=klass,
        origin="Google",
    )


class TestScansStayOutOfTable1:
    """Table 1's coalescence mark reads backscatter alone; Table 3 counts
    backscatter + scans.  A scanner inside Google's AS that coalesces
    Initial & Handshake must show in Table 3 and not flip Table 1."""

    @pytest.fixture(scope="class")
    def capture(self):
        coalesced = (PacketType.INITIAL, PacketType.HANDSHAKE)
        return ClassifiedCapture(
            backscatter=[
                _datagram(i, PacketClass.BACKSCATTER, (PacketType.INITIAL,))
                for i in range(10)
            ],
            scans=[_datagram(100 + i, PacketClass.SCAN, coalesced) for i in range(10)],
        )

    @staticmethod
    def _cell(render, row, column=-1):
        (line,) = [l for l in render.splitlines() if l.startswith(row)]
        return line.split()[column]

    @pytest.mark.parametrize(
        "wanted", [{"1"}, {"1", "3"}, ALL_TABLES], ids=["1", "1+3", "all"]
    )
    def test_table1_ignores_the_scan(self, capture, wanted):
        assert self._cell(render_analysis(capture, wanted), "Coalescence") == "no"

    def test_table3_counts_it(self, capture):
        render = render_analysis(capture, {"1", "3"})
        assert self._cell(render, "Coalesced Initial & Handshake", -2) == "50.00"

    def test_the_mark_flips_once_the_backscatter_coalesces(self, capture):
        coalesced = (PacketType.INITIAL, PacketType.HANDSHAKE)
        capture = ClassifiedCapture(
            backscatter=capture.backscatter
            + [_datagram(200, PacketClass.BACKSCATTER, coalesced)],
            scans=capture.scans,
        )
        assert self._cell(render_analysis(capture, {"1"}), "Coalescence") == "yes"


class TestNothingMaterialised:
    """``analyze``, ``live`` and ``sweep`` read plain values cut from the
    columns: no ``ParsedLongHeader`` list, no ``CapturedPacket``."""

    @pytest.fixture
    def no_objects(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a row was materialised")

        monkeypatch.setattr(CaptureTable, "packets_of", refuse)
        monkeypatch.setattr(CaptureTable, "materialize", refuse)

    def test_render_analysis_builds_no_row_object(self, columnar, no_objects):
        # A view of its own: nothing another test split or cached.
        view = ClassifiedView(columnar.table, columnar.stats)
        assert render_analysis(view, ALL_TABLES).startswith("Table 1")

    def test_stream_feed_builds_no_row_object(self, columnar, no_objects):
        analyses = StreamAnalyses()
        rows = columnar.table.num_rows
        assert analyses.feed(columnar.table, 0, rows // 2) == rows // 2
        analyses.feed(columnar.table, rows // 2, rows)
        assert analyses.rows_fed == rows

    def test_evaluate_metrics_builds_no_row_object(self, columnar, no_objects):
        view = ClassifiedView(columnar.table, columnar.stats)
        values = evaluate_metrics(ANALYSIS_METRICS, view, {})
        assert len(values) == 34 and values["offnet.servers"] > 0


class TestOneReadOfTheColumns:
    """Each reader of the fold cuts the columns once, however many tables,
    gauges or metric names it then serves."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        datagrams = CaptureTable.datagrams

        def counted(table, *bounds):
            calls.append(bounds)
            return datagrams(table, *bounds)

        monkeypatch.setattr(CaptureTable, "datagrams", counted)
        return calls

    def test_once_per_reader(self, columnar, reads):
        view = ClassifiedView(columnar.table, columnar.stats)
        rows = columnar.table.num_rows
        render_analysis(view, ALL_TABLES)
        assert reads == [()]
        analyses = StreamAnalyses()
        analyses.feed(columnar.table, 0, rows // 2)
        analyses.feed(columnar.table, rows // 2, rows)
        analyses.snapshot()
        assert reads[1:] == [(0, rows // 2), (rows // 2, rows)]
        del reads[:]
        evaluate_metrics(list(DEFAULT_METRICS) + ANALYSIS_METRICS, view, {})
        assert reads == [()]
        evaluate_metrics(["scid_unique.Google"], view, {})
        assert reads == [(), ()]

    def test_row_counts_and_registry_metrics_read_nothing(self, columnar, reads):
        view = ClassifiedView(columnar.table, columnar.stats)
        names = list(DEFAULT_METRICS) + ["records.total", "counter:net.dropped"]
        assert evaluate_metrics(names, view, {})["rows.total"] == len(view)
        assert reads == []
