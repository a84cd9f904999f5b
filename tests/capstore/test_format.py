""".capidx sidecar format: round-trip fidelity and corruption handling."""

import hashlib
import json
import sys
from array import array

import pytest

from repro.capstore import (
    MAGIC,
    SCHEMA_VERSION,
    CapIndexError,
    CaptureTable,
    build_capture_table,
    dump_index,
    dumps_index,
    load_index,
    read_header,
)
from repro.telescope.classify import SanitizationStats


@pytest.fixture(scope="module")
def built(month_pcap):
    return build_capture_table(month_pcap)


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
        assert payload.schema_version == SCHEMA_VERSION

    def test_rows_materialize_identically(self, built, sidecar):
        table, _stats = built
        loaded = load_index(sidecar).table
        assert loaded.num_rows == table.num_rows > 0
        for row in range(0, table.num_rows, max(1, table.num_rows // 25)):
            assert loaded.materialize(row) == table.materialize(row)

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
        header_len = int.from_bytes(blob[12:16], "little")
        header = json.loads(blob[16 : 16 + header_len])
        payload = b""
        for descriptor in header["columns"][:-1]:  # every column but the blob
            column = array(descriptor["typecode"], getattr(table, descriptor["name"]))
            column.byteswap()
            payload += column.tobytes()
        payload += bytes(table.blob)
        header["byteorder"] = "big" if sys.byteorder == "little" else "little"
        header["payload_blake2b"] = hashlib.blake2b(payload, digest_size=16).hexdigest()
        header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
        path = tmp_path / "swapped.capidx"
        path.write_bytes(
            blob[:12] + len(header_bytes).to_bytes(4, "little") + header_bytes + payload
        )
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
        with open(bad, "wb") as fileobj:
            fileobj.write(blob[:8] + (99).to_bytes(4, "little") + blob[12:])
        with pytest.raises(CapIndexError, match="schema version 99"):
            load_index(bad)

    def test_flipped_payload_byte_fails_checksum(self, sidecar, tmp_path):
        with open(sidecar, "rb") as fileobj:
            blob = bytearray(fileobj.read())
        blob[-1] ^= 0xFF
        bad = str(tmp_path / "flipped.capidx")
        with open(bad, "wb") as fileobj:
            fileobj.write(bytes(blob))
        with pytest.raises(CapIndexError, match="checksum"):
            load_index(bad)

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
