"""A sidecar whose header was damaged is rebuilt, never trusted.

``payload_blake2b`` covers the columns, not the JSON header that says
how to cut them.  Each damage below leaves the payload (and so the
checksum) intact: ``load_index`` must refuse it with ``CapIndexError``,
so the cache rebuilds — ``analyze`` prints the right tables with exit 0,
rewrites the sidecar and shows no traceback.
"""

import json
import shutil

import pytest

from repro.capstore import CapIndexError, load_index, load_or_build, sidecar_path
from repro.cli import main
from repro.core.render import render_analysis
from repro.core.selectors import VALID_TABLES

ANALYZE = ("--tables", "1", "2", "3", "4", "rto", "lengths")


def _split(blob):
    """``(header dict, payload bytes)`` of a serialized sidecar."""
    header_len = int.from_bytes(blob[12:16], "little")
    return json.loads(blob[16 : 16 + header_len]), blob[16 + header_len :]


def _join(blob, header, payload):
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    return b"".join(
        (blob[:12], len(header_bytes).to_bytes(4, "little"), header_bytes, payload)
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


@pytest.mark.parametrize("name", sorted(DAMAGES))
def test_damaged_header_is_refused_and_rebuilt(name, indexed, expected_render, capsys):
    pcap, intact = indexed
    damaged = DAMAGES[name](intact)
    assert damaged != intact and damaged.endswith(_split(intact)[1])
    with open(sidecar_path(pcap), "wb") as fileobj:
        fileobj.write(damaged)

    with pytest.raises(CapIndexError):
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
