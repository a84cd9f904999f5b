"""A sidecar whose header was damaged is rebuilt, never trusted.

``payload_blake2b`` covers the columns, not the JSON header that says
how to cut them; the header has a checksum of its own.  Each damage
below leaves the payload (and so its checksum) intact, and most re-sign
the header they rewrote, so that what the header *says* is put to the
test, not just its checksum: ``load_index`` must refuse it with
``CapIndexError``, so the cache rebuilds — ``analyze`` prints the right
tables with exit 0, rewrites the sidecar and shows no traceback.  The
forgeries after them rewrite column values instead and sign the payload
anew, so that what the columns say is put to the same test.
"""

import hashlib
import json
import shutil
from array import array

import pytest

from repro.capstore import (
    CapIndexError,
    SidecarCorrupt,
    load_index,
    load_or_build,
    sidecar_path,
)
from repro.cli import main
from repro.core.render import render_analysis
from repro.core.selectors import VALID_TABLES

ANALYZE = ("--tables", "1", "2", "3", "4", "rto", "lengths")


def _split(blob):
    """``(header dict, payload bytes)`` of a serialized sidecar."""
    header_len = int.from_bytes(blob[12:16], "little")
    return json.loads(blob[32 : 32 + header_len]), blob[32 + header_len :]


def _join(blob, header, payload):
    """``blob``'s magic and schema version, ``header`` signed, ``payload``."""
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    return b"".join(
        (
            blob[:12],
            len(header_bytes).to_bytes(4, "little"),
            hashlib.blake2b(header_bytes, digest_size=16).digest(),
            header_bytes,
            payload,
        )
    )


def _edited(edit):
    """A damage that rewrites the parsed header and keeps the payload."""

    def damage(blob):
        header, payload = _split(blob)
        edit(header)
        return _join(blob, header, payload)

    return damage


def _column(header, name):
    (descriptor,) = [d for d in header["columns"] if d["name"] == name]
    return descriptor


def _retype_src_ip(header):
    # Same bytes, read as twice as many 16-bit values.
    _column(header, "src_ip").update(typecode="H", count=2 * header["rows"])


def _cut_mid_json(blob):
    header_len = int.from_bytes(blob[12:16], "little")
    return blob[:12] + (header_len // 2).to_bytes(4, "little") + blob[16:]


def _header_len_past_the_end(blob):
    return blob[:12] + (0xFFFFFFF0).to_bytes(4, "little") + blob[16:]


def _unsigned(edit):
    """A damage that rewrites the header and leaves the old checksum."""

    def damage(blob):
        signed = _edited(edit)(blob)
        return signed[:16] + blob[16:32] + signed[32:]

    return damage


DAMAGES = {
    "src_ip_retyped": _edited(_retype_src_ip),
    "stats_without_scans": _edited(lambda header: header["stats"].pop("scans")),
    "origins_shortened": _edited(lambda header: header["origins"].pop()),
    "column_without_count": _edited(
        lambda header: _column(header, "pkt_length").pop("count")
    ),
    "unknown_column": _edited(
        lambda header: _column(header, "dcid_len").update(name="dcid_length")
    ),
    "cut_mid_json": _cut_mid_json,
    "header_checksum_flipped": lambda blob: blob[:16] + bytes([blob[16] ^ 1]) + blob[17:],
    "stats_edited_unsigned": _unsigned(
        lambda header: header["stats"].update(non_udp=header["stats"]["non_udp"] + 1)
    ),
    "header_len_past_the_end": _header_len_past_the_end,
    # Not asked for by name, same family: the header's other promises.
    "rows_off_by_one": _edited(lambda header: header.update(rows=header["rows"] + 1)),
    "stats_negative": _edited(lambda header: header["stats"].update(non_udp=-1)),
    "stats_swapped": _edited(
        lambda header: header["stats"].update(
            backscatter=header["stats"]["scans"], scans=header["stats"]["backscatter"]
        )
    ),
    "columns_reordered": _edited(lambda header: header["columns"].reverse()),
    "header_is_a_list": lambda blob: _join(blob, [], _split(blob)[1]),
    "source_is_a_string": _edited(lambda header: header.update(source="pcap")),
    # Counts the file cannot hold: refused before a buffer is sized from them.
    "blob_count_past_the_end": _edited(
        lambda header: _column(header, "token_blob").update(count=2**40)
    ),
    "payload_one_byte_short": _edited(
        lambda header: _column(header, "token_blob").update(
            count=_column(header, "token_blob")["count"] + 1
        )
    ),
}

#: The damages a checksum or the file's size catches (``SidecarCorrupt``);
#: the rest are checksummed headers that describe no table this version
#: writes (a plain ``CapIndexError``).
CORRUPT = {
    "cut_mid_json",
    "header_len_past_the_end",
    "header_checksum_flipped",
    "stats_edited_unsigned",
    "blob_count_past_the_end",
    "payload_one_byte_short",
}


@pytest.fixture(scope="module")
def indexed(month_pcap, tmp_path_factory):
    """``(pcap, sidecar bytes)`` of an intact, freshly indexed copy."""
    pcap = str(tmp_path_factory.mktemp("damage") / "month.pcap")
    shutil.copy2(month_pcap, pcap)
    _view, hit = load_or_build(pcap)
    assert not hit
    with open(sidecar_path(pcap), "rb") as fileobj:
        sidecar = fileobj.read()
    return pcap, sidecar


@pytest.fixture(scope="module")
def expected_render(indexed):
    view, hit = load_or_build(indexed[0])
    assert hit
    return render_analysis(view, set(VALID_TABLES)) + "\n"


def _refused_then_rebuilt(pcap, damaged, intact, expected_render, capsys):
    """``damaged`` does not load; ``analyze`` rebuilds the intact sidecar.

    Returns the error ``load_index`` raised.
    """
    with open(sidecar_path(pcap), "wb") as fileobj:
        fileobj.write(damaged)

    with pytest.raises(CapIndexError) as exc:
        load_index(sidecar_path(pcap))

    capsys.readouterr()
    assert main(["analyze", pcap, *ANALYZE]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected_render
    assert "Traceback" not in captured.err
    with open(sidecar_path(pcap), "rb") as fileobj:
        assert fileobj.read() == intact  # rebuilt from the pcap, byte for byte
    _view, hit = load_or_build(pcap)
    assert hit
    return exc.value


@pytest.mark.parametrize("name", sorted(DAMAGES))
def test_damaged_header_is_refused_and_rebuilt(name, indexed, expected_render, capsys):
    pcap, intact = indexed
    damaged = DAMAGES[name](intact)
    assert damaged != intact and damaged.endswith(_split(intact)[1])
    error = _refused_then_rebuilt(pcap, damaged, intact, expected_render, capsys)
    assert isinstance(error, SidecarCorrupt) == (name in CORRUPT)


def _forged(edit):
    """A damage that rewrites column values and signs payload and header anew.

    ``edit`` gets the payload's columns by name, each an ``array`` (the
    blobs too), and may change their values and lengths; the header's
    counts and checksums follow, so only the values are put to the test.
    """

    def damage(blob):
        header, payload = _split(blob)
        columns, at = {}, 0
        for descriptor in header["columns"]:
            column = array(descriptor["typecode"])
            size = descriptor["count"] * column.itemsize
            column.frombytes(payload[at : at + size])
            columns[descriptor["name"]] = column
            at += size
        edit(columns)
        for descriptor in header["columns"]:
            descriptor["count"] = len(columns[descriptor["name"]])
        header["pairs"] = len(columns["dcid_len"])
        payload = b"".join(column.tobytes() for column in columns.values())
        header["payload_blake2b"] = hashlib.blake2b(payload, digest_size=16).hexdigest()
        return _join(blob, header, payload)

    return damage


def _first_pn_offset_past_its_end(columns):
    columns["pkt_pn_offset"][0] = columns["pkt_length"][0] + 1


def _versions_for_a_packet_that_is_not_vn(columns):
    columns["sv_count"].append(1)
    columns["sv_values"].append(1)


#: Checksummed sidecars whose *values* describe no table a build writes:
#: each is refused by the check it names, as a plain ``CapIndexError``.
FORGERIES = {
    "cid_past_the_pairs": (
        _forged(lambda columns: columns["cid"].__setitem__(0, len(columns["dcid_len"]))),
        "a cid points outside the",
    ),
    "pn_offset_past_the_packet": (
        _forged(_first_pn_offset_past_its_end),
        "packet-number offset lies past its packet's end",
    ),
    "vn_counts_short_of_the_versions": (
        _forged(lambda columns: columns["sv_values"].append(1)),
        "sv_start does not partition",
    ),
    "vn_count_for_another_kind": (
        _forged(_versions_for_a_packet_that_is_not_vn),
        "sv_count is not one count per Version Negotiation packet",
    ),
    "pair_lengths_past_the_cid_bytes": (
        _forged(lambda columns: columns["scid_len"].__setitem__(-1, 21)),
        "cid_start does not partition",
    ),
}


@pytest.mark.parametrize("name", sorted(FORGERIES))
def test_forged_column_is_refused_and_rebuilt(name, indexed, expected_render, capsys):
    pcap, intact = indexed
    forge, reason = FORGERIES[name]
    error = _refused_then_rebuilt(pcap, forge(intact), intact, expected_render, capsys)
    assert type(error) is CapIndexError
    assert reason in str(error)


def test_classify_counts_survive_a_header_without_scans(indexed, capsys):
    pcap, intact = indexed
    header, _payload = _split(intact)
    assert header["stats"]["scans"] > 0
    with open(sidecar_path(pcap), "wb") as fileobj:
        fileobj.write(DAMAGES["stats_without_scans"](intact))
    capsys.readouterr()
    assert main(["classify", pcap, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["scans"] == header["stats"]["scans"]
