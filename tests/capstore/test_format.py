""".capidx sidecar format: round-trip fidelity and corruption handling."""

import hashlib
import sys
from array import array
from itertools import chain

import pytest

from repro.capstore import (
    MAGIC,
    SCHEMA_VERSION,
    CapIndexError,
    CaptureTable,
    ClassifiedView,
    SidecarCorrupt,
    build_from_records,
    default_acknowledged,
    default_asdb,
    dump_index,
    dumps_index,
    load_index,
    read_header,
)
from repro.capstore.table import BLOB_COLUMNS
from repro.core.render import render_analysis
from repro.core.selectors import VALID_TABLES
from repro.netstack.pcap import PcapRecord, iter_pcap
from repro.netstack.udp import UdpDatagram, encode_udp
from repro.telescope.classify import SanitizationStats
from tests.capstore.test_header_damage import _join, _split

#: The largest UDP payload an IPv4 packet carries (65,535 - 20 - 8).
MAX_PAYLOAD = 65507
_CIDS = b"\x08" + bytes(8) + b"\x08" + bytes(range(8))


def _long_header(first, version=1):
    return bytes([first]) + version.to_bytes(4, "big") + _CIDS


def _maximal_payloads():
    """Datagrams of :data:`MAX_PAYLOAD` bytes that push every 16-bit column
    and count to what one datagram allows."""
    initial = _long_header(0xC0) + (0x80000000 | 65000).to_bytes(4, "big")
    initial += bytes(65000)  # the token
    initial += (0x4000 | (MAX_PAYLOAD - len(initial) - 2)).to_bytes(2, "big")
    handshake = _long_header(0xE0)
    handshake += (0x80000000 | (MAX_PAYLOAD - len(handshake) - 4)).to_bytes(4, "big")
    retry = _long_header(0xF0)  # all the rest is its token and tag
    versions = _long_header(0x80, version=0)
    versions += (1).to_bytes(4, "big") * ((MAX_PAYLOAD - len(versions)) // 4)
    # Empty 0-RTT packets, 8 bytes each: the most packets a datagram holds.
    coalesced = (bytes([0xD0]) + (1).to_bytes(4, "big") + bytes(3)) * (MAX_PAYLOAD // 8)
    backscatter = [initial, handshake, retry, versions]
    return [p + bytes(MAX_PAYLOAD - len(p)) for p in backscatter + [coalesced]]


def _maximal_records():
    """The payloads above as the telescope would see them: backscatter
    from a Google address, the coalesced 0-RTT as a scan."""
    *backscatter, coalesced = _maximal_payloads()
    datagrams = [
        UdpDatagram(0x8EFA0001, 0x2C000001, 443, 40000 + i, payload)
        for i, payload in enumerate(backscatter)
    ] + [UdpDatagram(0x5DB80001, 0x2C000002, 40100, 443, coalesced)]
    return [
        PcapRecord(4e9 + i, encode_udp(datagram)) for i, datagram in enumerate(datagrams)
    ]


@pytest.fixture(scope="module")
def built(month_pcap):
    """The month's table with :func:`_maximal_records` appended."""
    return build_from_records(
        chain(iter_pcap(month_pcap), _maximal_records()),
        default_asdb(),
        default_acknowledged(),
    )


def _render(table, stats):
    return render_analysis(ClassifiedView(table, stats), set(VALID_TABLES))


@pytest.fixture
def sidecar(built, tmp_path):
    table, stats = built
    path = str(tmp_path / "month.capidx")
    dump_index(
        path, table, stats, source={"size": 123}, pipeline={"asdb": "default"}
    )
    return path


class TestRoundTrip:
    def test_write_read_identical_table(self, built, sidecar):
        table, stats = built
        payload = load_index(sidecar)
        assert payload.table == table
        assert payload.stats == stats
        assert payload.source == {"size": 123}
        assert payload.pipeline == {"asdb": "default"}
        assert payload.schema_version == SCHEMA_VERSION == 3
        assert _render(payload.table, payload.stats) == _render(table, stats)

    def test_rows_materialize_identically(self, built, sidecar):
        table, _stats = built
        loaded = load_index(sidecar).table
        assert loaded.num_rows == table.num_rows > 0
        maximal = range(table.num_rows - len(_maximal_records()), table.num_rows)
        for row in chain(range(0, table.num_rows, max(1, table.num_rows // 25)), maximal):
            assert loaded.materialize(row) == table.materialize(row)
        # The maximal rows reach each 16-bit column's and count's limit.
        assert [loaded.payload_len[row] for row in maximal] == [MAX_PAYLOAD] * 5
        assert 65000 in loaded.token_len  # the Initial's token
        assert max(loaded.token_len) == MAX_PAYLOAD - 23 - 16  # the Retry's
        handshake = loaded.materialize(maximal[1]).packets[0]
        assert handshake.payload_length == MAX_PAYLOAD - 27
        assert max(loaded.pkt_length) == max(loaded.pkt_pn_offset) == MAX_PAYLOAD
        assert max(loaded.packet_counts()) == MAX_PAYLOAD // 8
        assert max(loaded.sv_count) == (MAX_PAYLOAD - 23) // 4

    def test_empty_table_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.capidx")
        dump_index(path, CaptureTable(), SanitizationStats())
        payload = load_index(path)
        assert payload.table.num_rows == 0
        assert payload.table == CaptureTable()

    def test_other_byteorder_round_trips(self, built, tmp_path):
        # The checksum covers the bytes as written; columns swap after it.
        table, stats = built
        blob = dumps_index(table, stats)
        header, payload = _split(blob)
        swapped, at = [], 0
        for descriptor in header["columns"]:
            column = array(descriptor["typecode"])
            size = descriptor["count"] * column.itemsize
            column.frombytes(payload[at : at + size])
            if descriptor["name"] not in BLOB_COLUMNS:
                column.byteswap()
            swapped.append(column.tobytes())
            at += size
        assert [d["name"] for d in header["columns"]][-5:] == [
            "pkt_count",
            "sv_count",
            "sv_values",
            "cid_blob",
            "token_blob",
        ]
        payload = b"".join(swapped)
        header["byteorder"] = "big" if sys.byteorder == "little" else "little"
        header["payload_blake2b"] = hashlib.blake2b(payload, digest_size=16).hexdigest()
        path = tmp_path / "swapped.capidx"
        path.write_bytes(_join(blob, header, payload))
        assert load_index(str(path)).table == table

    def test_serialization_starts_with_magic(self, built):
        table, stats = built
        blob = dumps_index(table, stats)
        assert blob[:8] == MAGIC
        assert int.from_bytes(blob[8:12], "little") == SCHEMA_VERSION

    def test_read_header_is_cheap_inspection(self, built, sidecar):
        table, stats = built
        header = read_header(sidecar)
        assert header["rows"] == table.num_rows
        assert header["packets"] == table.num_packets
        assert header["stats"]["total_records"] == stats.total_records
        assert header["_schema_version"] == SCHEMA_VERSION


class TestCorruption:
    def test_bad_magic_rejected(self, sidecar, tmp_path):
        with open(sidecar, "rb") as fileobj:
            blob = fileobj.read()
        bad = str(tmp_path / "bad.capidx")
        with open(bad, "wb") as fileobj:
            fileobj.write(b"NOTCAPDX" + blob[8:])
        with pytest.raises(CapIndexError, match="magic"):
            load_index(bad)
        with pytest.raises(CapIndexError, match="magic"):
            read_header(bad)

    def test_future_schema_rejected(self, sidecar, tmp_path):
        with open(sidecar, "rb") as fileobj:
            blob = fileobj.read()
        bad = str(tmp_path / "future.capidx")
        for schema in (99, 1, 2):
            with open(bad, "wb") as fileobj:
                fileobj.write(blob[:8] + schema.to_bytes(4, "little") + blob[12:])
            with pytest.raises(CapIndexError, match="schema version %d" % schema) as exc:
                load_index(bad)
            assert type(exc.value) is CapIndexError  # a mismatch, not corruption

    def test_flipped_payload_byte_fails_checksum(self, sidecar, tmp_path):
        with open(sidecar, "rb") as fileobj:
            blob = bytearray(fileobj.read())
        blob[-1] ^= 0xFF
        bad = str(tmp_path / "flipped.capidx")
        with open(bad, "wb") as fileobj:
            fileobj.write(bytes(blob))
        with pytest.raises(SidecarCorrupt, match="checksum"):
            load_index(bad)

    def test_flipped_byte_anywhere_past_the_version_is_corrupt(self, tmp_path):
        # Every byte of the length, checksum and header, and a spread of
        # payload bytes: each flip is caught by a checksum or a size.
        table, stats = build_from_records(_maximal_records()[-2:])
        blob = dumps_index(table, stats, source={"size": 1})
        header_end = 32 + int.from_bytes(blob[12:16], "little")
        bad = tmp_path / "flipped.capidx"
        for at in chain(range(12, header_end), range(header_end, len(blob), 997)):
            flipped = bytearray(blob)
            flipped[at] ^= 0x01
            bad.write_bytes(flipped)
            with pytest.raises(SidecarCorrupt):
                load_index(str(bad))
        bad.write_bytes(blob)
        assert load_index(str(bad)).table == table

    @pytest.mark.parametrize(
        "column, child",
        [
            ("pkt_start", "a row without packets"),
            ("sv_count", "sv_start does not partition"),
            ("token_len", "token_start does not partition"),
            ("scid_len", "cid_start does not partition"),
        ],
    )
    def test_counts_that_do_not_partition_are_refused(self, column, child, tmp_path):
        # A faithfully checksummed sidecar of a table no build can produce.
        table, stats = build_from_records(_maximal_records())
        if column == "pkt_start":
            table.pkt_start[1] = 0
        else:
            getattr(table, column)[-1] += 1
        path = str(tmp_path / "forged.capidx")
        dump_index(path, table, stats)
        with pytest.raises(CapIndexError, match=child) as exc:
            load_index(path)
        assert not isinstance(exc.value, SidecarCorrupt)

    def test_truncated_file_rejected(self, sidecar, tmp_path):
        with open(sidecar, "rb") as fileobj:
            blob = fileobj.read()
        for cut in (4, 20, len(blob) - 100):
            bad = str(tmp_path / ("cut%d.capidx" % cut))
            with open(bad, "wb") as fileobj:
                fileobj.write(blob[:cut])
            with pytest.raises(CapIndexError):
                load_index(bad)

    def test_no_temp_file_left_behind(self, built, tmp_path):
        table, stats = built
        path = tmp_path / "atomic.capidx"
        dump_index(str(path), table, stats)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != path.name]
        assert leftovers == []
