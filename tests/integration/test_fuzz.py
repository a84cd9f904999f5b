"""Fuzzing invariants: hostile bytes must never crash, only be rejected.

The engine, the dissector, and every codec face attacker-controlled input;
each must either parse correctly or raise its module's typed error —
nothing else, and never an unhandled exception.  The last section does
the same to a whole artefact: truncated, length-lying and oddly framed
pcaps against the index walker, which must index exactly the
complete-record prefix, say exactly how far it got, raise nothing but
``PcapError``, and never buffer more than a chunk plus one record.
"""

import hashlib
import os
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

import repro.netstack.pcap as pcap_module
from repro.capstore import (
    CaptureTable,
    build_from_records,
    default_acknowledged,
    default_asdb,
    dissect_pcap,
    load_or_build,
)
from repro.core.dissector import DissectError, dissect_datagram
from repro.netstack.addr import parse_ip
from repro.netstack.pcap import (
    PcapCursor,
    PcapError,
    PcapRecord,
    PcapWalk,
    split_timestamp,
)
from repro.netstack.udp import UdpDatagram, UdpParseError, decode_udp, encode_udp
from repro.obs import MetricsRegistry, Observability
from repro.quic.frames import FrameParseError, decode_frames
from repro.quic.packet import PacketParseError, decode_datagram, parse_long_header
from repro.quic.transport_params import TransportParamError, TransportParameters
from repro.server.engine import QuicServerEngine
from repro.server.profiles import facebook_profile, google_profile
from repro.simnet.eventloop import EventLoop
from repro.tls.certs import Certificate, CertificateError
from repro.tls.handshake import TlsParseError, decode_handshake


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_packet_parser_never_crashes(data):
    try:
        parse_long_header(data)
    except PacketParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_datagram_decoder_never_crashes(data):
    try:
        decode_datagram(data)
    except PacketParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_frame_decoder_never_crashes(data):
    try:
        decode_frames(data)
    except FrameParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_dissector_never_crashes(data):
    try:
        dissect_datagram(data, validate_crypto=True)
    except DissectError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=120))
def test_transport_params_never_crash(data):
    try:
        TransportParameters.decode(data)
    except TransportParamError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=150))
def test_tls_decoder_never_crashes(data):
    try:
        decode_handshake(data)
    except TlsParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=120))
def test_certificate_decoder_never_crashes(data):
    try:
        Certificate.decode(data)
    except CertificateError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=0, max_size=120))
def test_udp_decoder_never_crashes(data):
    try:
        decode_udp(data)
    except (UdpParseError, ValueError):
        pass


class _Fuzzed:
    """Shared engine for the stateful datagram fuzz below."""

    def __init__(self, profile):
        self.loop = EventLoop()
        self.sent = []
        self.engine = QuicServerEngine(
            profile=profile,
            loop=self.loop,
            rng=random.Random(1),
            send=self.sent.append,
            host_id=3,
            worker_id=1,
        )


@settings(max_examples=250, deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=300),
    sport=st.integers(min_value=1, max_value=65535),
)
def test_engine_survives_arbitrary_datagrams(payload, sport):
    """No byte sequence may crash the server or leak an exception."""
    fuzz = _Fuzzed(facebook_profile())
    datagram = UdpDatagram(
        src_ip=parse_ip("203.0.113.5"),
        dst_ip=parse_ip("157.240.1.1"),
        src_port=sport,
        dst_port=443,
        payload=payload,
    )
    fuzz.engine.on_datagram(datagram, 0.0)
    fuzz.loop.run()


@settings(max_examples=100, deadline=None)
@given(
    flips=st.lists(
        st.tuples(st.integers(0, 1199), st.integers(1, 255)),
        min_size=1,
        max_size=8,
    )
)
def test_engine_survives_corrupted_initials(flips):
    """Bit-flipped versions of a *valid* Initial exercise deeper paths."""
    from repro.workloads.clients import ClientConnection

    fuzz = _Fuzzed(google_profile())
    connection = ClientConnection(
        rng=random.Random(7),
        src_ip=parse_ip("203.0.113.9"),
        src_port=4444,
        dst_ip=parse_ip("142.250.0.1"),
    )
    datagram = connection.initial_datagram()
    data = bytearray(datagram.payload)
    for position, mask in flips:
        data[position % len(data)] ^= mask
    fuzz.engine.on_datagram(datagram.with_payload(bytes(data)), 0.0)
    fuzz.loop.run()


def test_engine_fuzz_still_functions_after_abuse():
    """After a fuzzing barrage the engine still serves real clients."""
    from repro.quic.packet import parse_long_header as plh
    from repro.workloads.clients import ClientConnection

    fuzz = _Fuzzed(facebook_profile())
    rng = random.Random(3)
    for i in range(300):
        fuzz.engine.on_datagram(
            UdpDatagram(
                src_ip=parse_ip("203.0.113.1"),
                dst_ip=parse_ip("157.240.1.1"),
                src_port=1024 + i,
                dst_port=443,
                payload=rng.randbytes(rng.randint(0, 100)),
            ),
            0.0,
        )
    connection = ClientConnection(
        rng=rng,
        src_ip=parse_ip("203.0.113.2"),
        src_port=5555,
        dst_ip=parse_ip("157.240.1.1"),
    )
    before = len(fuzz.sent)
    fuzz.engine.on_datagram(connection.initial_datagram(), 1.0)
    assert len(fuzz.sent) == before + 2  # a real flight went out
    assert plh(fuzz.sent[before].payload).scid  # with a server CID


# ---------------------------------------------------------------------------
# Whole artefacts: hostile pcaps against the index walker
# ---------------------------------------------------------------------------


def _capture_records():
    """Twelve records: kept scans and backscatter, each kind of drop, and
    two short ones at the end (every byte of those gets cut)."""
    from repro.quic.packet import RetryPacket, encode_retry
    from repro.workloads.clients import ClientConnection

    telescope = parse_ip("44.9.8.7")

    def probe(index, src_ip):
        connection = ClientConnection(
            rng=random.Random(index),
            src_ip=parse_ip(src_ip),
            src_port=40000 + index,
            dst_ip=telescope,
        )
        return encode_udp(connection.initial_datagram())

    def udp(src_ip, sport, dport, payload):
        return encode_udp(
            UdpDatagram(parse_ip(src_ip), telescope, sport, dport, payload)
        )

    retry = encode_retry(RetryPacket(1, b"\x01" * 8, b"\x02" * 8, b"\x03" * 24))
    rng = random.Random(11)
    packets = [
        probe(1, "24.48.1.1"),  # kept scan
        udp("24.48.1.2", 50000, 443, rng.randbytes(300)),  # failed dissection
        udp("142.250.1.1", 443, 50001, retry),  # kept backscatter, Google
        probe(2, "141.212.3.3"),  # acknowledged scanner
        udp("24.48.1.3", 53, 53, rng.randbytes(80)),  # not port 443
        b"\x60" + rng.randbytes(59),  # not IPv4
        probe(3, "65.100.4.4"),
        udp("157.240.1.1", 443, 50002, retry),  # kept backscatter, Facebook
        probe(4, "24.48.1.4"),
        probe(5, "87.128.5.5"),
        udp("142.250.1.2", 443, 50003, retry),
        udp("24.48.1.5", 50004, 443, rng.randbytes(40)),
    ]
    return [PcapRecord(1000.0 + 0.5 * i, data) for i, data in enumerate(packets)]


def _pcap_bytes(records, byte_order="<"):
    magic_first = struct.pack(byte_order + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
    parts = [magic_first]
    for record in records:
        ts_sec, ts_usec = split_timestamp(record.timestamp)
        size = len(record.data)
        parts.append(struct.pack(byte_order + "IIII", ts_sec, ts_usec, size, size))
        parts.append(record.data)
    return b"".join(parts)


def _boundaries(records):
    """File offset after 0, 1, … len(records) records."""
    out = [24]
    for record in records:
        out.append(out[-1] + 16 + len(record.data))
    return out


class _Expected:
    """``build_from_records`` over each record prefix, built on demand."""

    def __init__(self, records):
        self.records = records
        self._built = {}

    def __getitem__(self, count):
        if count not in self._built:
            self._built[count] = build_from_records(
                self.records[:count],
                asdb=default_asdb(),
                acknowledged=default_acknowledged(),
            )
        return self._built[count]


def _load_status(path):
    """``(view, status)`` of one uncached :func:`load_or_build`, the status
    read off the ``capstore.cache`` counter."""
    obs = Observability(metrics=MetricsRegistry())
    view, _hit = load_or_build(path, use_cache=False, obs=obs)
    (status,) = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
    return view, status


def _index(path, data):
    """Write ``data`` as the pcap at ``path`` and index it, uncached.

    Only :class:`PcapError` may come out of a hostile capture.
    """
    with open(path, "wb") as fileobj:
        fileobj.write(data)
    try:
        return _load_status(path)
    except PcapError:
        return None


def _assert_indexed(result, expected, count, indexed_bytes):
    table, stats = expected[count]
    assert result is not None
    view, status = result
    assert status == "miss"
    assert view.indexed_bytes == indexed_bytes
    assert view.stats.total_records == count  # dissected, into an empty table
    assert view.stats == stats
    assert view.table == table


@pytest.fixture(scope="module")
def hostile_capture():
    records = _capture_records()
    return records, _pcap_bytes(records), _boundaries(records), _Expected(records)


@pytest.fixture(params=[None, "record+1", 64], ids=lambda p: "chunk=%s" % p)
def walk_chunk(request, monkeypatch, hostile_capture):
    """The shipped chunk size, one record plus a byte, and 64 bytes: every
    record then straddles a chunk boundary, most of them several."""
    if request.param is not None:
        largest = max(len(record.data) for record in hostile_capture[0]) + 16
        size = largest + 1 if request.param == "record+1" else request.param
        monkeypatch.setattr(pcap_module, "WALK_CHUNK", size)
    return pcap_module.WALK_CHUNK


def test_walker_indexes_the_whole_capture(hostile_capture, walk_chunk, tmp_path):
    records, data, bounds, expected = hostile_capture
    result = _index(str(tmp_path / "whole.pcap"), data)
    _assert_indexed(result, expected, len(records), len(data))
    assert 0 < result[0].table.num_rows < len(records)  # kept and dropped both


def test_walker_stops_before_a_cut_at_every_byte(hostile_capture, walk_chunk, tmp_path):
    records, data, bounds, expected = hostile_capture
    path = str(tmp_path / "cut.pcap")
    for cut in range(24):  # inside the global header: not a pcap yet
        assert _index(path, data[:cut]) is None
    for cut in range(bounds[-3], len(data)):  # every byte of the last two records
        complete = sum(1 for bound in bounds[1:] if bound <= cut)
        _assert_indexed(_index(path, data[:cut]), expected, complete, bounds[complete])


def test_walker_stops_at_a_record_claiming_two_gigabytes(
    hostile_capture, walk_chunk, tmp_path
):
    records, data, bounds, expected = hostile_capture
    for corrupt in (0, 5, len(records) - 1):
        mangled = bytearray(data)
        struct.pack_into("<I", mangled, bounds[corrupt] + 8, 0x7FFFFFFF)
        result = _index(str(tmp_path / "lying.pcap"), bytes(mangled))
        _assert_indexed(result, expected, corrupt, bounds[corrupt])


def test_walker_counts_zero_length_records(hostile_capture, walk_chunk, tmp_path):
    records = list(hostile_capture[0])
    for at in (0, 4, 4, len(records)):
        records.insert(at, PcapRecord(999.0, b""))
    data = _pcap_bytes(records)
    result = _index(str(tmp_path / "empty-records.pcap"), data)
    _assert_indexed(result, _Expected(records), len(records), len(data))
    assert result[0].stats.non_udp == hostile_capture[3][12][1].non_udp + 4


def test_walker_reads_the_byte_swapped_magic(hostile_capture, walk_chunk, tmp_path):
    records, data, _bounds, expected = hostile_capture
    swapped = _pcap_bytes(records, byte_order=">")
    assert swapped[:4] == data[:4][::-1] and len(swapped) == len(data)
    result = _index(str(tmp_path / "big-endian.pcap"), swapped)
    _assert_indexed(result, expected, len(records), len(data))
    assert _index(str(tmp_path / "no-magic.pcap"), b"\x00" * 4 + data[4:]) is None


def test_walker_resumes_where_the_cursor_stands(hostile_capture, walk_chunk, tmp_path):
    """A poll per appended byte range ends on the same table as one pass,
    the running digest on the same hash as hashing the file."""
    records, data, bounds, expected = hostile_capture
    path = str(tmp_path / "growing.pcap")
    cursor = PcapCursor(digest=hashlib.blake2b(digest_size=16))
    table = CaptureTable()
    seen = 0
    for end in (30, bounds[2] + 5, bounds[2] + 16, bounds[7] - 1, bounds[7], len(data)):
        with open(path, "wb") as fileobj:
            fileobj.write(data[:end])
        stats = dissect_pcap(path, cursor, table)
        seen += stats.total_records
        complete = sum(1 for bound in bounds[1:] if bound <= end)
        assert (seen, cursor.offset) == (complete, bounds[complete])
        assert cursor.digest.digest() == hashlib.blake2b(
            data[: cursor.offset], digest_size=16
        ).digest()
    assert table == expected[len(records)][0]


def test_walker_holds_one_chunk_plus_one_record(hostile_capture, walk_chunk, tmp_path):
    """A buffer never outgrows a chunk plus the one record (its first)
    that straddled into it — including a record of a whole MiB."""
    records = list(hostile_capture[0])
    records.insert(3, PcapRecord(999.5, bytes(1 << 20)))
    path = str(tmp_path / "big-record.pcap")
    with open(path, "wb") as fileobj:
        fileobj.write(_pcap_bytes(records))
    seen = []
    buffers = []  # (buffer, size of its first record), one per chunk

    def on_record(timestamp, buf, start, end):
        seen.append((timestamp, end - start))
        if not buffers or buffers[-1][0] is not buf:
            buffers.append((buf, end - start))
        assert len(buf) <= walk_chunk + 16 + buffers[-1][1]
        assert buf[start:end] == records[len(seen) - 1].data

    with PcapWalk(path, PcapCursor()) as walk:
        walk.run(on_record)
    assert seen == [(record.timestamp, len(record.data)) for record in records]
    assert walk.cursor.offset == walk.size == os.path.getsize(path)


def test_walker_never_buffers_on_a_headers_say_so(hostile_capture, tmp_path):
    """A corrupt ``incl_len`` in front of 48 MiB of file: the walk stops at
    it having read a chunk, not the rest of the file."""
    import tracemalloc

    records, data, bounds, expected = hostile_capture
    mangled = bytearray(data)
    struct.pack_into("<I", mangled, bounds[6] + 8, 0x7FFFFFFF)
    path = str(tmp_path / "huge.pcap")
    with open(path, "wb") as fileobj:
        fileobj.write(mangled)
        fileobj.truncate(48 << 20)  # sparse: the bytes are never written
    tracemalloc.start()
    try:
        result = _load_status(path)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_indexed(result, expected, 6, bounds[6])
    assert peak < 8 * pcap_module.WALK_CHUNK


def test_shard_reader_never_buffers_on_a_headers_say_so(hostile_capture, tmp_path):
    """The same corrupt ``incl_len`` in the second shard of a set: the
    merge refuses it without reading the rest of that shard, naming it."""
    import tracemalloc

    records = hostile_capture[0]
    shards = [str(tmp_path / ("s.pcap.shard%d" % k)) for k in range(2)]
    with open(shards[0], "wb") as fileobj:
        fileobj.write(_pcap_bytes(records[0::2]))
    second = records[1::2]
    mangled = bytearray(_pcap_bytes(second))
    struct.pack_into("<I", mangled, _boundaries(second)[3] + 8, 0x7FFFFFFF)
    with open(shards[1], "wb") as fileobj:
        fileobj.write(mangled)
        fileobj.truncate(48 << 20)  # sparse: the bytes are never written
    tracemalloc.start()
    try:
        with pytest.raises(PcapError) as excinfo:
            pcap_module.merge_pcap_files(shards, str(tmp_path / "s.pcap"))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(excinfo.value) == shards[1] + ": truncated pcap record body"
    assert peak < 8 * pcap_module.WALK_CHUNK


# ---------------------------------------------------------------------------
# Whole artefacts: any JSON against ``repro stats``
# ---------------------------------------------------------------------------

_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
#: Keys a snapshot's readers look up, so that the structures drawn come
#: close to a snapshot often, not only by chance.
_SNAPSHOT_KEYS = st.sampled_from(
    ("label_names", "values", "buckets", "counts", "count", "sum", "seconds", "calls", "")
)
_NEAR_SNAPSHOT = st.dictionaries(
    st.sampled_from(("counters", "gauges", "histograms", "timers")),
    st.dictionaries(
        st.text(max_size=3),
        st.dictionaries(
            _SNAPSHOT_KEYS,
            _JSON | st.dictionaries(_SNAPSHOT_KEYS, _JSON, max_size=3),
            max_size=5,
        )
        | _JSON,
        max_size=2,
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(first=_JSON | _NEAR_SNAPSHOT, second=_JSON | _NEAR_SNAPSHOT)
def test_stats_answers_any_json_without_a_traceback(first, second):
    """``stats FILE`` and ``stats --diff A B`` on any JSON: a rendering
    (0), "nothing to show" (1) or one ``repro stats: <path>: …`` line (2)."""
    import contextlib
    import io
    import json
    import tempfile

    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for index, value in enumerate((first, second)):
            paths.append(os.path.join(tmp, "%d.json" % index))
            with open(paths[-1], "w") as fileobj:
                json.dump(value, fileobj)
        for argv in (["stats", paths[0]], ["stats", "--diff", *paths]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(argv)
            assert status in (0, 1, 2), status
            if status == 2:
                assert out.getvalue() == ""
                assert err.getvalue().startswith("repro stats: %s/" % tmp)
                assert err.getvalue().count("\n") == 1
            else:
                assert err.getvalue() == ""
