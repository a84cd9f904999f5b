"""A table survives its sidecar, whatever its packets hold.

Hypothesis writes captures of every packet shape the dissector keeps —
coalesced Initial / 0-RTT / Handshake chains, Initials with and without
a token, Retries with their tokens, Version Negotiation with its
supported versions — whose (DCID, SCID) pairs come from a small pool,
so pairs repeat within and across datagrams, and include empty CIDs.
Each capture is built into a table, written and read back: the loaded
table equals the built one, and both give back, field for field, what
the object dissector reads off the records, the fields a sidecar does
not store (payload length, the port on the 443 side, which token a
packet holds) included.
"""

import os
import tempfile
from bisect import bisect_right
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capstore import build_from_records, dump_index, load_index
from repro.core.dissector import dissect_datagram
from repro.netstack.pcap import PcapRecord
from repro.netstack.udp import QUIC_PORT, UdpDatagram, encode_udp
from repro.quic.packet_type import PacketType

_CIDS = st.binary(max_size=20)
_VN = PacketType.VERSION_NEGOTIATION.value
_CHAINED = (PacketType.INITIAL, PacketType.ZERO_RTT, PacketType.HANDSHAKE)


def _varint2(value: int) -> bytes:
    return (0x4000 | value).to_bytes(2, "big")


def _cids(pair) -> bytes:
    dcid, scid = pair
    return bytes((len(dcid),)) + dcid + bytes((len(scid),)) + scid


def _chained(kind, pair, token, body) -> bytes:
    """An Initial, 0-RTT or Handshake packet: 1-byte packet number."""
    head = bytes((0xC0 | kind.value << 4,)) + (1).to_bytes(4, "big") + _cids(pair)
    if kind is PacketType.INITIAL:
        head += _varint2(len(token)) + token
    return head + _varint2(len(body)) + body


@st.composite
def _payloads(draw, pool):
    """One UDP payload: a chain of long headers, a Retry or a VN packet."""
    pair = st.sampled_from(pool)
    shape = draw(st.sampled_from(("chain", "chain", "retry", "versions")))
    if shape == "retry":  # the token, then a 16-byte integrity tag
        token = draw(st.binary(max_size=40))
        return b"\xf0" + (1).to_bytes(4, "big") + _cids(draw(pair)) + token + bytes(16)
    if shape == "versions":
        versions = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
        listed = b"".join(version.to_bytes(4, "big") for version in versions)
        return b"\x80" + bytes(4) + _cids(draw(pair)) + listed
    packets = draw(st.lists(st.sampled_from(_CHAINED), min_size=1, max_size=3))
    return b"".join(
        _chained(
            kind,
            draw(pair),
            draw(st.binary(max_size=30)) if kind is PacketType.INITIAL else b"",
            draw(st.binary(min_size=21, max_size=60)),
        )
        for kind in packets
    )


@st.composite
def _records(draw):
    pool = draw(st.lists(st.tuples(_CIDS, _CIDS), min_size=1, max_size=4))
    records = []
    for i in range(draw(st.integers(1, 12))):
        peer = draw(st.integers(1024, 65535))
        ports = (QUIC_PORT, peer) if draw(st.booleans()) else (peer, QUIC_PORT)
        datagram = UdpDatagram(0x0A000001 + i, 0x2C000001, *ports, draw(_payloads(pool)))
        records.append((PcapRecord(1000.0 + i, encode_udp(datagram)), datagram))
    return records


def _round_trip(table, stats):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "capture.capidx")
        dump_index(path, table, stats)
        return load_index(path).table


@settings(max_examples=80, deadline=None)
@given(records=_records(), versionless=st.booleans())
def test_sidecar_round_trip(records, versionless):
    table, stats = build_from_records(
        (record for record, _ in records), validate_crypto_scans=False
    )
    assert table.num_rows == len(records)  # every shape above is kept
    expected = [dissect_datagram(datagram.payload).packets for _, datagram in records]
    if versionless and _VN in table.pkt_type:
        # The first VN packet names no version: no build keeps such a
        # packet, yet the layout holds one.
        row = bisect_right(table.pkt_start, table.pkt_type.index(_VN)) - 1
        del table.sv_values[: table.sv_count[0]]
        table.sv_count[0] = 0
        (packet,) = expected[row]
        expected[row] = [replace(packet, supported_versions=())]
    loaded = _round_trip(table, stats)
    assert loaded == table
    # A loaded blob is ``bytes``, a built one a ``bytearray``: both cut the same.
    pairs = range(table.num_pairs)
    assert loaded.pair_cids(pairs) == table.pair_cids(pairs)
    for row, (_record, datagram) in enumerate(records):
        captured = loaded.materialize(row)
        assert captured == table.materialize(row)
        assert (captured.src_port, captured.dst_port) == (
            datagram.src_port,
            datagram.dst_port,
        )
        assert captured.packets == expected[row]
