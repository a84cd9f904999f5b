"""``CaptureFold.feed`` counts over column slices exactly as row by row.

A hand-made capture holds every case the column passes must not blur:
a pair first seen in packets whose SCID the server did not choose (a
scan, a 0-RTT, a Version Negotiation) and later in a server Initial, one
SCID under two DCIDs, an empty SCID, coalesced Initial + Handshake
datagrams, a VN-first datagram and a ``most_common`` tie in Fig. 7 whose
first-seen order only the whole capture shows.  With the fold window
shrunk to four rows, feeding the table in one call, split at every
window boundary and one row either side, or split inside a session must
leave the same state, and that state is what the batch functions
compute from the objects.  The same holds with the module's window,
which takes the whole capture at once.
"""

from itertools import pairwise

import pytest

from repro.core import render
from repro.core.render import CaptureFold
from repro.core.selectors import ANALYSIS_NAMES
from repro.core.session import SessionStore
from repro.quic.packet import PacketType, ParsedLongHeader
from repro.quic.version import DRAFT_29, MVFST_2, QUIC_V1
from repro.telescope.classify import CapturedPacket, PacketClass, SanitizationStats

from tests.capstore.handmade import table_of
from tests.integration.test_fold_sources import ALL_SELECTORS, _batch_metrics

WINDOW = 4

INITIAL, HANDSHAKE = PacketType.INITIAL, PacketType.HANDSHAKE
ZERO_RTT, VN = PacketType.ZERO_RTT, PacketType.VERSION_NEGOTIATION
BACKSCATTER, SCAN = PacketClass.BACKSCATTER, PacketClass.SCAN


def _header(kind, dcid, scid, length=1200, version=QUIC_V1.value):
    negotiation = kind is VN
    return ParsedLongHeader(
        packet_type=kind,
        version=0 if negotiation else version,
        dcid=dcid,
        scid=scid,
        token=b"",
        pn_offset=0 if negotiation else 26,
        packet_length=length,
        payload_length=length if negotiation else length - 26,
        supported_versions=(QUIC_V1.value,) if negotiation else (),
    )


def _datagram(timestamp, klass, origin, src_ip, *headers):
    backscatter = klass is BACKSCATTER
    return CapturedPacket(
        timestamp=timestamp,
        src_ip=src_ip,
        dst_ip=0x2C000001,
        src_port=443 if backscatter else 50000,
        dst_port=50000 if backscatter else 443,
        udp_payload_length=sum(header.packet_length for header in headers),
        packets=list(headers),
        klass=klass,
        origin=origin,
    )


#: One backscatter source per origin; scans come from addresses of their own.
SERVERS = {
    "Google": 0x8EFA0001,
    "Facebook": 0x9DF00001,
    "Cloudflare": 0x68100001,
    "Remaining": 0x0B000001,
}


def _backscatter(timestamp, origin, *headers):
    return _datagram(timestamp, BACKSCATTER, origin, SERVERS[origin], *headers)


def _scan(timestamp, src_ip, *headers):
    return _datagram(timestamp, SCAN, "Remaining", src_ip, *headers)


def _cid(byte, length=8):
    return bytes((byte,)) * length


SCID_8, SCID_4 = _cid(0x8A), _cid(0x44, 4)
SHARED_SCID, CLIENT_SCID = _cid(0xFB), _cid(0xC1, 5)

#: In capture order; the comments name what each row is there for.
PACKETS = [
    # A scan's pair, seen again below in a server Initial.
    _scan(0.0, 0x0A000001, _header(INITIAL, _cid(0xD1), CLIENT_SCID)),
    # Two sessions that change version: each counts under its first one.
    _scan(
        0.05,
        0x0A000003,
        _header(INITIAL, _cid(0xD4), _cid(0xC4, 5), version=DRAFT_29.value),
    ),
    _backscatter(
        0.06, "Facebook", _header(INITIAL, _cid(0xF5), _cid(0xF6), 1252, MVFST_2.value)
    ),
    # Google's 4-byte SCID, first in a 0-RTT packet: not the server's choice.
    _backscatter(0.1, "Google", _header(ZERO_RTT, _cid(0xC1), SCID_4)),
    # VN first: out of Table 3 and Fig. 7; its SCID is not the server's.
    _backscatter(0.2, "Google", _header(VN, _cid(0xC2), _cid(0x8B), 40)),
    # Coalesced Initial & Handshake: Google's 8-byte SCID, eligible first.
    _backscatter(
        0.3,
        "Google",
        _header(INITIAL, _cid(0xC3), SCID_8),
        _header(HANDSHAKE, _cid(0xC3), SCID_8, 1000),
    ),
    # The 0-RTT pair again, now in a server Initial: a tie of one 8-byte
    # and one 4-byte SCID, which the 8-byte one wins by being seen first.
    _backscatter(0.4, "Google", _header(INITIAL, _cid(0xC1), SCID_4)),
    # One SCID under two DCIDs: one unique SCID, two sessions.
    _backscatter(0.5, "Facebook", _header(INITIAL, _cid(0xF1), SHARED_SCID, 1232)),
    _backscatter(0.6, "Facebook", _header(INITIAL, _cid(0xF2), SHARED_SCID, 1232)),
    # An empty SCID: a session, but nothing for Table 4.
    _backscatter(0.7, "Cloudflare", _header(INITIAL, _cid(0xE1), b"")),
    # The scan's pair in a server Initial: its SCID counts from here.
    _backscatter(0.8, "Remaining", _header(INITIAL, _cid(0xD1), CLIENT_SCID)),
    # A coalesced VN-first datagram: "Coalesced other" in Table 3, not in
    # Fig. 7, and only its Initial's SCID counts.
    _backscatter(
        0.9,
        "Remaining",
        _header(VN, _cid(0xD2), _cid(0x9A), 40),
        _header(INITIAL, _cid(0xD2), _cid(0x9B, 6)),
    ),
    # Resends of the coalesced session, across windows.
    _backscatter(1.3, "Google", _header(INITIAL, _cid(0xC3), SCID_8)),
    # Facebook's Fig. 7 tie, three each: 1232 seen first (above), but
    # 1200 first and most often in the last window they share.
    _backscatter(1.45, "Facebook", _header(INITIAL, _cid(0xF3), _cid(0xFC))),
    _backscatter(1.5, "Facebook", _header(INITIAL, _cid(0xF3), _cid(0xFC))),
    _backscatter(1.6, "Facebook", _header(INITIAL, _cid(0xF1), SHARED_SCID, 1232)),
    _backscatter(1.7, "Facebook", _header(INITIAL, _cid(0xF3), _cid(0xFC))),
    _backscatter(3.3, "Google", _header(INITIAL, _cid(0xC3), SCID_8)),
    _scan(3.4, 0x0A000002, _header(INITIAL, _cid(0xD3), _cid(0xC2, 5))),
    _scan(3.5, 0x0A000003, _header(INITIAL, _cid(0xD4), _cid(0xC4, 5))),
    _backscatter(3.6, "Facebook", _header(INITIAL, _cid(0xF5), _cid(0xF6), 1252)),
]
INSIDE_A_SESSION = 8  # between the coalesced session's first datagram and its resends


@pytest.fixture(params=[WINDOW, render.FOLD_WINDOW], ids=["small", "module"])
def small_window(request, monkeypatch):
    """Four rows a window, and the module's own: one window for the whole
    capture, where only the order inside a window can break a tie."""
    monkeypatch.setattr(render, "FOLD_WINDOW", request.param)


@pytest.fixture(scope="module")
def table():
    table = table_of(PACKETS)
    assert [table.materialize(row) for row in range(table.num_rows)] == PACKETS
    return table


def _fed(table, cuts):
    fold = CaptureFold(ALL_SELECTORS)
    for start, end in pairwise([0, *cuts, table.num_rows]):
        fold.feed(table, start, end)
    return fold


def _state(fold):
    return fold.values(), fold.sessions.sessions(), fold.signatures.top()


def _splits(rows):
    """One call, every window boundary and a row either side, and inside a session."""
    boundaries = sorted(
        {at + shift for at in range(WINDOW, rows, WINDOW) for shift in (-1, 0, 1)}
    )
    return [[], boundaries, [INSIDE_A_SESSION]]


def test_every_split_folds_what_one_call_folds(table, small_window):
    whole = _state(_fed(table, []))
    for cuts in _splits(table.num_rows):
        assert _state(_fed(table, cuts)) == whole, cuts


def test_the_fold_is_the_batch_functions(table, small_window):
    expected = _batch_metrics(SanitizationStats(), PACKETS)
    fold = _fed(table, [INSIDE_A_SESSION])
    assert fold.values() == {name: expected[name] for name in ANALYSIS_NAMES}
    backscatter = [p for p in PACKETS if p.klass is BACKSCATTER]
    assert fold.sessions.sessions() == SessionStore.from_packets(backscatter).sessions()


def test_each_case_counts_as_the_paper_does(table, small_window):
    fold = _fed(table, [INSIDE_A_SESSION])
    values, stats = fold.values(), fold.scids.stats
    # Eligible first: the 8-byte SCID, then the 4-byte one a 0-RTT named earlier.
    assert list(stats["Google"].length_counts.items()) == [(8, 1), (4, 1)]
    assert values["scid_dominant_len.Google"] == 8
    # The SCID shared by two DCIDs counts once.
    assert stats["Facebook"].unique_scids == {SHARED_SCID, _cid(0xFC), _cid(0xF6)}
    assert values["scid_unique.Cloudflare"] == 0
    assert values["rto.sessions.Cloudflare"] == 1
    assert stats["Remaining"].unique_scids == {CLIENT_SCID, _cid(0x9B, 6)}
    # The lone VN is in no category; the VN-first pair is "Coalesced other".
    assert values["packet_mix.Google.Coalesced Initial & Handshake"] == 1
    assert values["packet_mix.Google.Initial"] + values["packet_mix.Google.0-RTT"] == 4
    assert values["packet_mix.Remaining.Coalesced other"] == 1
    tops = fold.signatures.top()
    assert tops["Facebook"] == [("1232", 3), ("1200", 3), ("1252", 2)]
    assert [label for label, _ in tops["Remaining"]] == ["1200"]  # not the VN-first one
    # The 0-RTT and the later Initial are one session; the VN is one more.
    assert values["rto.sessions.Google"] == 3
    assert values["sessions.clients.draft-29"] == 1
    assert values["sessions.servers.Facebook mvfst 2"] == 1


def test_a_second_table_folds_as_one(table, small_window):
    """Pair ids are a table's own: the rows of a second table whose pairs
    are numbered afresh still join the sessions the first one started."""
    cut = INSIDE_A_SESSION
    fold = CaptureFold(ALL_SELECTORS)
    fold.feed(table, 0, cut)
    tail = table_of(PACKETS[cut:])
    fold.feed(tail, 0, tail.num_rows)
    assert _state(fold) == _state(_fed(table, []))
