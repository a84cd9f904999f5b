"""Sidecar cache lifecycle: hit, touch, rewrite, corruption, escape hatch."""

import hashlib
import json
import os
import sys
from array import array
from itertools import accumulate

import pytest

from repro.capstore import (
    MAGIC,
    CapIndexError,
    check_sidecar,
    dump_index,
    load_index,
    load_or_build,
    prefix_fingerprint,
    read_header,
    sidecar_path,
)
from repro.capstore import cache
from repro.capstore.format import STATS_FIELDS
from repro.cli import main
from repro.netstack.pcap import scan_pcap_offsets
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry


def _obs():
    return Observability(metrics=MetricsRegistry())


def _load(path, obs=None, **kwargs):
    """``(view, status)`` of one :func:`load_or_build`: ``"hit"``,
    ``"extended"`` or ``"miss"``, read off the ``capstore.cache`` counter."""
    obs = obs or _obs()
    view, _hit = load_or_build(path, obs=obs, **kwargs)
    values = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
    (status,) = set(values) - {"stale"}
    return view, status


#: The payload columns before the blob of the two schemas before this
#: one.  Schema 1 held every length in 32 bits and stored the three
#: offset columns; schema 2 held lengths in 16 bits and stored per-row
#: packet and per-packet version counts instead.  Both held each packet's
#: ports, CID lengths, token and retry token lengths and payload length,
#: and its DCID, SCID, token and retry token back to back in the blob.
LEGACY_COLUMNS = {
    1: (
        ("ts", "d"),
        ("src_ip", "I"),
        ("dst_ip", "I"),
        ("src_port", "H"),
        ("dst_port", "H"),
        ("payload_len", "I"),
        ("klass", "B"),
        ("origin_id", "I"),
        ("pkt_type", "B"),
        ("pkt_version", "I"),
        ("pkt_pn_offset", "I"),
        ("pkt_length", "I"),
        ("pkt_payload_length", "I"),
        ("dcid_len", "B"),
        ("scid_len", "B"),
        ("token_len", "I"),
        ("retry_token_len", "I"),
        ("pkt_start", "I"),
        ("bytes_start", "Q"),
        ("sv_start", "I"),
        ("sv_values", "I"),
    ),
    2: (
        ("ts", "d"),
        ("src_ip", "I"),
        ("dst_ip", "I"),
        ("src_port", "H"),
        ("dst_port", "H"),
        ("payload_len", "H"),
        ("klass", "B"),
        ("origin_id", "H"),
        ("pkt_type", "B"),
        ("pkt_version", "I"),
        ("pkt_pn_offset", "H"),
        ("pkt_length", "H"),
        ("pkt_payload_length", "H"),
        ("dcid_len", "B"),
        ("scid_len", "B"),
        ("token_len", "H"),
        ("retry_token_len", "H"),
        ("pkt_count", "H"),
        ("sv_count", "H"),
        ("sv_values", "I"),
    ),
}


def _legacy_values(table):
    """``(columns by name, blob)`` of ``table`` in the layout schemas 1 and 2 shared."""
    rows = [table.materialize(row) for row in range(table.num_rows)]
    packets = [packet for row in rows for packet in row.packets]
    columns = {
        "ts": [row.timestamp for row in rows],
        "src_ip": [row.src_ip for row in rows],
        "dst_ip": [row.dst_ip for row in rows],
        "src_port": [row.src_port for row in rows],
        "dst_port": [row.dst_port for row in rows],
        "payload_len": [row.udp_payload_length for row in rows],
        "klass": table.klass,
        "origin_id": table.origin_id,
        "pkt_type": [p.packet_type.value for p in packets],
        "pkt_version": [p.version for p in packets],
        "pkt_pn_offset": [p.pn_offset for p in packets],
        "pkt_length": [p.packet_length for p in packets],
        "pkt_payload_length": [p.payload_length for p in packets],
        "dcid_len": [len(p.dcid) for p in packets],
        "scid_len": [len(p.scid) for p in packets],
        "token_len": [len(p.token) for p in packets],
        "retry_token_len": [len(p.retry_token) for p in packets],
        "pkt_count": [len(row.packets) for row in rows],
        "sv_count": [len(p.supported_versions) for p in packets],
        "sv_values": [v for p in packets for v in p.supported_versions],
    }
    pieces = [(p.dcid, p.scid, p.token, p.retry_token) for p in packets]
    columns["pkt_start"] = list(accumulate(columns["pkt_count"], initial=0))
    columns["bytes_start"] = list(
        accumulate((sum(map(len, piece)) for piece in pieces), initial=0)
    )
    columns["sv_start"] = list(accumulate(columns["sv_count"], initial=0))
    return columns, b"".join(b"".join(piece) for piece in pieces)


def _legacy_sidecar(payload, schema: int) -> bytes:
    """The sidecar a schema-1 or schema-2 build wrote for ``payload``, byte for byte."""
    table = payload.table
    values, blob = _legacy_values(table)
    columns = [
        array(typecode, values[name]) for name, typecode in LEGACY_COLUMNS[schema]
    ]
    body = b"".join(map(bytes, columns)) + blob
    header = {
        "byteorder": sys.byteorder,
        "rows": table.num_rows,
        "packets": table.num_packets,
        "origins": table.origins,
        "stats": {field: getattr(payload.stats, field) for field in STATS_FIELDS},
        "source": payload.source,
        "pipeline": payload.pipeline,
        "columns": [
            {"name": name, "typecode": typecode, "count": len(column)}
            for (name, typecode), column in zip(LEGACY_COLUMNS[schema], columns)
        ]
        + [{"name": "blob", "typecode": "B", "count": len(blob)}],
        "payload_blake2b": hashlib.blake2b(body, digest_size=16).hexdigest(),
    }
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    # Schema 2 put a checksum of the header in front of it; schema 1 did not.
    header_digest = (
        hashlib.blake2b(header_bytes, digest_size=16).digest() if schema == 2 else b""
    )
    return b"".join(
        (
            MAGIC,
            schema.to_bytes(4, "little"),
            len(header_bytes).to_bytes(4, "little"),
            header_digest,
            header_bytes,
            body,
        )
    )


def _truncate_at_record(path: str, fraction: float) -> bytes:
    """Cut ``path`` at a record boundary; returns the removed tail bytes."""
    offsets = scan_pcap_offsets(path)
    cut = offsets[int(len(offsets) * fraction)]
    data = open(path, "rb").read()
    with open(path, "wb") as fileobj:
        fileobj.write(data[:cut])
    return data[cut:]


class TestLoadOrBuild:
    def test_miss_then_hit_round_trip(self, pcap_copy):
        view, hit = load_or_build(pcap_copy)
        assert not hit
        assert os.path.exists(sidecar_path(pcap_copy))
        again, hit = load_or_build(pcap_copy)
        assert hit
        assert again.table == view.table
        assert again.stats == view.stats

    def test_no_cache_never_writes_or_reads(self, pcap_copy):
        view, hit = load_or_build(pcap_copy, use_cache=False)
        assert not hit
        assert not os.path.exists(sidecar_path(pcap_copy))
        # even with a valid sidecar on disk, --no-cache rebuilds
        load_or_build(pcap_copy)
        _view, hit = load_or_build(pcap_copy, use_cache=False)
        assert not hit

    def test_touched_mtime_still_hits_via_content_hash(self, pcap_copy):
        load_or_build(pcap_copy)
        stat = os.stat(pcap_copy)
        os.utime(pcap_copy, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        _view, hit = load_or_build(pcap_copy)
        assert hit

    def test_rewritten_pcap_invalidates(self, pcap_copy):
        view, _ = load_or_build(pcap_copy)
        assert main(["simulate", pcap_copy, "--scale", "0.05", "--seed", "7"]) == 0
        rebuilt, hit = load_or_build(pcap_copy)
        assert not hit
        assert rebuilt.table != view.table
        # and the refreshed sidecar now validates against the new pcap
        _again, hit = load_or_build(pcap_copy)
        assert hit

    def test_corrupt_sidecar_treated_as_stale(self, pcap_copy):
        view, _ = load_or_build(pcap_copy)
        with open(sidecar_path(pcap_copy), "r+b") as fileobj:
            fileobj.seek(-1, os.SEEK_END)
            fileobj.write(b"\x00")
        rebuilt, hit = load_or_build(pcap_copy)
        assert not hit
        assert rebuilt.table == view.table

    def test_schema_1_sidecar_is_rebuilt(self, pcap_copy):
        self._legacy_sidecar_is_rebuilt(pcap_copy, 1)

    def test_schema_2_sidecar_is_rebuilt(self, pcap_copy):
        self._legacy_sidecar_is_rebuilt(pcap_copy, 2)

    @staticmethod
    def _legacy_sidecar_is_rebuilt(pcap_copy, schema):
        view, _ = load_or_build(pcap_copy)
        index_path = sidecar_path(pcap_copy)
        old = _legacy_sidecar(load_index(index_path), schema)
        with open(index_path, "wb") as fileobj:
            fileobj.write(old)
        # It describes this very pcap: only its schema keeps it from a hit.
        with pytest.raises(CapIndexError, match="schema version %d" % schema) as exc:
            read_header(index_path)
        assert type(exc.value) is CapIndexError
        rebuilt, status = _load(pcap_copy)
        assert status == "miss"
        assert rebuilt.table == view.table
        assert read_header(index_path)["_schema_version"] == 3
        assert _load(pcap_copy)[1] == "hit"

    def test_sidecar_dumped_with_another_pipeline_is_stale(self, pcap_copy):
        view, _ = load_or_build(pcap_copy)
        index_path = sidecar_path(pcap_copy)
        payload = load_index(index_path)
        dump_index(
            index_path,
            payload.table,
            payload.stats,
            source=payload.source,
            pipeline=dict(payload.pipeline, validate_crypto_scans=False),
        )
        obs = _obs()
        rebuilt, hit = load_or_build(pcap_copy, obs=obs)
        assert not hit
        values = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
        assert values == {"stale": 1, "miss": 1}
        assert rebuilt.table == view.table
        assert load_index(index_path).pipeline == payload.pipeline


class TestObservability:
    def test_cold_run_counts_miss_and_build_timer(self, pcap_copy):
        obs = _obs()
        load_or_build(pcap_copy, obs=obs)
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["capstore.cache"]["values"] == {"miss": 1}
        assert "index.build" in snapshot["timers"]
        assert "index.load" not in snapshot["timers"]

    def test_warm_run_counts_hit_and_load_timer(self, pcap_copy):
        load_or_build(pcap_copy)
        obs = _obs()
        view, hit = load_or_build(pcap_copy, obs=obs)
        assert hit
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["capstore.cache"]["values"] == {"hit": 1}
        assert "index.load" in snapshot["timers"]
        rows = snapshot["counters"]["capstore.rows"]["values"]
        assert rows["backscatter"] == view.stats.backscatter
        assert rows["scan"] == view.stats.scans

    def test_stale_run_counts_stale_then_miss(self, pcap_copy):
        load_or_build(pcap_copy)
        assert main(["simulate", pcap_copy, "--scale", "0.05", "--seed", "7"]) == 0
        obs = _obs()
        _view, hit = load_or_build(pcap_copy, obs=obs)
        assert not hit
        values = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
        assert values == {"stale": 1, "miss": 1}

    def test_cache_hit_reemits_sanitize_counters(self, pcap_copy):
        cold_obs = _obs()
        load_or_build(pcap_copy, obs=cold_obs)
        warm_obs = _obs()
        _view, hit = load_or_build(pcap_copy, obs=warm_obs)
        assert hit
        cold = cold_obs.metrics.snapshot()["counters"]["sanitize.packets"]["values"]
        warm = warm_obs.metrics.snapshot()["counters"]["sanitize.packets"]["values"]
        assert warm == cold


class TestIncrementalIndex:
    """A grown pcap extends its index; anything else rebuilds cleanly."""

    def test_grown_pcap_extends_and_matches_full_build(self, pcap_copy):
        tail = _truncate_at_record(pcap_copy, 0.8)
        first, status = _load(pcap_copy)
        assert status == "miss"
        prefix_rows = first.table.num_rows
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail)
        obs = _obs()
        extended, status = _load(pcap_copy, obs=obs)
        assert status == "extended"
        assert extended.table.num_rows > prefix_rows
        values = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
        assert values == {"extended": 1}
        assert "index.extend" in obs.metrics.snapshot()["timers"]
        # the extended table is exactly what a cold full build produces
        full, _ = load_or_build(pcap_copy, use_cache=False)
        assert extended.table == full.table
        assert extended.stats == full.stats
        # and the rewritten sidecar is a plain hit afterwards
        third, status = _load(pcap_copy)
        assert status == "hit"
        assert third.indexed_bytes == os.path.getsize(pcap_copy)

    def test_extended_sidecar_is_byte_identical_to_a_full_build(self, pcap_copy):
        tail = _truncate_at_record(pcap_copy, 0.6)
        prefix, status = _load(pcap_copy)
        assert status == "miss"
        prefix_pairs = prefix.table.num_pairs
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail)
        extended, status = _load(pcap_copy)
        assert status == "extended"
        # The tail names pairs the prefix first saw: the extension looked
        # them up in the intern map it rebuilt from the stored pairs.
        table = extended.table
        tail_ids = table.cid[table.pkt_start[prefix.table.num_rows] :]
        assert min(tail_ids) < prefix_pairs < table.num_pairs
        index_path = sidecar_path(pcap_copy)
        with open(index_path, "rb") as fileobj:
            two_steps = fileobj.read()
        os.remove(index_path)
        assert _load(pcap_copy)[1] == "miss"
        with open(index_path, "rb") as fileobj:
            assert fileobj.read() == two_steps

    def test_extension_emits_full_run_counters(self, pcap_copy):
        tail = _truncate_at_record(pcap_copy, 0.7)
        load_or_build(pcap_copy)
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail)
        warm_obs = _obs()
        load_or_build(pcap_copy, obs=warm_obs)
        cold_obs = _obs()
        load_or_build(pcap_copy, obs=cold_obs, use_cache=False)
        warm = warm_obs.metrics.snapshot()["counters"]["sanitize.packets"]["values"]
        cold = cold_obs.metrics.snapshot()["counters"]["sanitize.packets"]["values"]
        assert warm == cold

    def test_torn_tail_is_still_a_hit(self, pcap_copy):
        view, _ = load_or_build(pcap_copy)
        size = os.path.getsize(pcap_copy)
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(b"\x01\x02\x03\x04\x05\x06\x07\x08\x09")
        again, status = _load(pcap_copy)
        assert status == "hit"
        assert again.indexed_bytes == size
        assert again.table == view.table

    def test_truncated_below_prefix_rebuilds(self, pcap_copy):
        load_or_build(pcap_copy)
        _truncate_at_record(pcap_copy, 0.5)
        obs = _obs()
        rebuilt, status = _load(pcap_copy, obs=obs)
        assert status == "miss"
        values = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
        assert values == {"stale": 1, "miss": 1}
        full, _ = load_or_build(pcap_copy, use_cache=False)
        assert rebuilt.table == full.table

    def test_rewritten_prefix_rebuilds(self, pcap_copy):
        load_or_build(pcap_copy)
        # flip bytes inside the indexed prefix without changing the size
        with open(pcap_copy, "r+b") as fileobj:
            fileobj.seek(64)
            chunk = fileobj.read(32)
            fileobj.seek(64)
            fileobj.write(bytes(byte ^ 0xFF for byte in chunk))
        # force the mtime past the stored stamp so the (size, mtime) fast
        # path cannot mask the content change on coarse-clock filesystems
        stat = os.stat(pcap_copy)
        os.utime(pcap_copy, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        _view, status = _load(pcap_copy)
        assert status == "miss"

    def test_concurrent_writer_extension_reads_no_torn_record(self, pcap_copy):
        """A tail cut mid-record is absorbed only once completed."""
        tail = _truncate_at_record(pcap_copy, 0.8)
        prefix_records = len(scan_pcap_offsets(pcap_copy))
        load_or_build(pcap_copy)
        # the writer lands half a record: grown, but nothing complete
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail[:7])
        partial, status = _load(pcap_copy)
        assert status == "hit"
        assert partial.indexed_bytes == os.path.getsize(pcap_copy) - 7
        # the writer finishes: exactly the remaining records are absorbed
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail[7:])
        extended, status = _load(pcap_copy)
        assert status == "extended"
        dissected = extended.stats.total_records - partial.stats.total_records
        assert dissected == len(scan_pcap_offsets(pcap_copy)) - prefix_records
        full, _ = load_or_build(pcap_copy, use_cache=False)
        assert extended.table == full.table

    def test_no_cache_ignores_extension_path(self, pcap_copy):
        tail = _truncate_at_record(pcap_copy, 0.8)
        load_or_build(pcap_copy)
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail)
        _view, status = _load(pcap_copy, use_cache=False)
        assert status == "miss"


class TestPrefixFingerprint:
    def test_prefix_fields_extend_the_base_fingerprint(self, pcap_copy):
        size = os.path.getsize(pcap_copy)
        fingerprint = prefix_fingerprint(pcap_copy, size, records=10)
        assert fingerprint["size"] == size
        assert fingerprint["indexed_bytes"] == size
        assert fingerprint["records"] == 10
        with open(pcap_copy, "rb") as fileobj:
            whole = hashlib.sha256(fileobj.read()).hexdigest()[:32]
        assert fingerprint["prefix_sha256"] == whole

    def test_prefix_matches_after_growth(self, pcap_copy):
        size = os.path.getsize(pcap_copy)
        stored = prefix_fingerprint(pcap_copy, size)
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(b"\x00" * 40)
        assert check_sidecar(stored, pcap_copy)[:2] == ("extend", 40)

    def test_prefix_rejects_truncation(self, pcap_copy):
        stored = prefix_fingerprint(pcap_copy, os.path.getsize(pcap_copy))
        _truncate_at_record(pcap_copy, 0.5)
        assert check_sidecar(stored, pcap_copy).result == "stale"

    def test_empty_fingerprint_never_prefix_matches(self, month_pcap):
        assert check_sidecar({}, month_pcap).result == "stale"


class TestBlake2bFingerprint:
    """A sidecar stored before the prefix hash moved to SHA-256.

    Its fingerprint carries ``prefix_blake2b`` and no ``prefix_sha256``:
    the size-and-mtime fast path still trusts it, and any case that needs
    the prefix hash treats it as stale and rebuilds.
    """

    @staticmethod
    def _store(pcap):
        load_or_build(pcap)
        index_path = sidecar_path(pcap)
        payload = load_index(index_path)
        source = dict(payload.source)
        with open(pcap, "rb") as fileobj:
            prefix = fileobj.read(source["indexed_bytes"])
        del source["prefix_sha256"]
        source["prefix_blake2b"] = hashlib.blake2b(prefix, digest_size=16).hexdigest()
        dump_index(
            index_path, payload.table, payload.stats, source=source,
            pipeline=payload.pipeline,
        )
        return source

    def test_hits_while_size_and_mtime_match(self, pcap_copy):
        self._store(pcap_copy)
        _view, status = _load(pcap_copy)
        assert status == "hit"

    def test_grown_pcap_rebuilds_instead_of_extending(self, pcap_copy):
        tail = _truncate_at_record(pcap_copy, 0.8)
        self._store(pcap_copy)
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(tail)
        view, status = _load(pcap_copy)
        assert status == "miss"
        assert "prefix_sha256" in read_header(sidecar_path(pcap_copy))["source"]
        full, _ = load_or_build(pcap_copy, use_cache=False)
        assert view.table == full.table

    def test_backdated_rewrite_rebuilds(self, pcap_copy):
        stored = self._store(pcap_copy)
        with open(pcap_copy, "r+b") as fileobj:
            fileobj.seek(64)
            chunk = fileobj.read(32)
            fileobj.seek(64)
            fileobj.write(bytes(byte ^ 0xFF for byte in chunk))
        stat = os.stat(pcap_copy)
        os.utime(pcap_copy, ns=(stat.st_atime_ns, stored["mtime_ns"] - 10**9))
        _view, status = _load(pcap_copy)
        assert status == "miss"


class TestFingerprint:
    def test_fingerprint_fields(self, month_pcap):
        fingerprint = prefix_fingerprint(month_pcap, os.path.getsize(month_pcap))
        assert fingerprint["size"] == os.path.getsize(month_pcap)
        assert set(fingerprint) == {
            "size", "mtime_ns", "indexed_bytes", "prefix_sha256"
        }
        assert check_sidecar(fingerprint, month_pcap) == ("hit", 0, None)

    def test_size_change_is_cheapest_rejection(self, pcap_copy, monkeypatch):
        stored = prefix_fingerprint(pcap_copy, os.path.getsize(pcap_copy))
        with open(pcap_copy, "r+b") as fileobj:
            fileobj.truncate(os.path.getsize(pcap_copy) - 1)
        monkeypatch.setattr(cache, "_hash_range", None)  # not one byte is read
        assert check_sidecar(stored, pcap_copy).result == "stale"

    def test_empty_fingerprint_never_matches(self, month_pcap):
        assert check_sidecar({}, month_pcap) == ("stale", 0, None)
