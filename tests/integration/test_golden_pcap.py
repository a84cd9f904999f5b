"""Golden digests: the bytes `simulate` writes and the tables `analyze` prints.

Byte parity used to be proven by running a change beside a checkout of
its parent.  These constants are that proof in committed form: for four
small scenarios, the blake2b-128 of the pcap and of the stdout of
``analyze --tables 1 2 3 4 rto lengths``, and what that ``analyze`` left
in the ``.capidx`` sidecar — the payload checksum over every column,
the row/packet counts, the origin table in first-seen order and the
seven sanitisation counters, as ``read_header`` returns them (the
source fingerprint is left out: it holds the pcap's mtime).  A change
that means to keep the output (a performance change, a refactor) leaves
them alone; one that means to alter it updates them and says why.

The month cases go through the documented command; the attack-only case
(every scan and noise knob zero, so nearly all of it is server flights
and their RTO ladders) and its mirror, the scans-only case (every
``attacks_*`` knob zero: stateless senders, no server), have no
command-line spelling and use the README API, which writes what the
command writes.  One case is repeated in a child process under a
different ``PYTHONHASHSEED``: no digest may depend on set or dict
iteration order.  Another is repeated with ``--workers 2``: every
producer writes records in the one canonical order (microsecond
timestamp, then packet bytes), so the worker count is invisible in the
pcap.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.capstore import read_header, sidecar_path
from repro.cli import main
from repro.workloads.scenario import ScenarioConfig, build_scenario

ANALYZE = ("--tables", "1", "2", "3", "4", "rto", "lengths")

#: The sidecar header fields pinned per case.
SIDECAR_FIELDS = ("payload_blake2b", "rows", "packets", "origins", "stats")


def _stats(total, non_udp, non_port_443, failed, acknowledged, backscatter, scans):
    return {
        "total_records": total,
        "non_udp": non_udp,
        "non_port_443": non_port_443,
        "failed_dissection": failed,
        "acknowledged_scanner": acknowledged,
        "backscatter": backscatter,
        "scans": scans,
    }


#: case -> (pcap digest, analyze stdout digest, sidecar header fields)
GOLDEN = {
    "month-20220101-x0.02": (
        "3fa4f2999e72c6a35a154c6c93b6fab8",
        "e618249077cd9732edcb8f3dd18cf5e1",
        {
            "payload_blake2b": "7813d00281a001eac574b0291a32ca27",
            "rows": 873,
            "packets": 999,
            "origins": ["Remaining", "Google", "Facebook"],
            "stats": _stats(1523, 0, 0, 50, 600, 751, 122),
        },
    ),
    "month-109-x0.05": (
        "dff544a50e9f2061c358f44651061c9e",
        "f433244725906950c18604ef83c4e038",
        {
            "payload_blake2b": "d6d769e281f19c098e3ca54ab0271b21",
            "rows": 2254,
            "packets": 2560,
            "origins": ["Remaining", "Google", "Facebook", "Cloudflare"],
            "stats": _stats(3879, 0, 0, 125, 1500, 1948, 306),
        },
    ),
    "attacks-only-20220101-x0.05": (
        "e37739422d1dfa03b3a63c966eb9b3c9",
        "972cc6d9d1c3802e960b1de1374807da",
        {
            "payload_blake2b": "37e57dd93a5eb4d89ec370402f269d1b",
            "rows": 1921,
            "packets": 2257,
            "origins": ["Remaining", "Facebook", "Google", "Cloudflare"],
            "stats": _stats(1924, 0, 0, 0, 3, 1915, 6),
        },
    ),
    "scans-only-20220101-x0.05": (
        "2c041efd3fdbd917630bc085762b3aa1",
        "787e970360e1fbd6ed2148f1e4a50496",
        {
            "payload_blake2b": "cd760d1c4449daa98b0c9202389e270c",
            "rows": 306,
            "packets": 306,
            "origins": ["Remaining", "Google"],
            "stats": _stats(1931, 0, 0, 125, 1500, 0, 306),
        },
    ),
}

#: case -> the ScenarioConfig knobs it zeroes.
ONE_SIDED = {
    "attacks-only-20220101-x0.05": (
        "research_scan_packets",
        "unknown_scan_packets",
        "zero_rtt_scan_packets",
        "noise_packets",
    ),
    "scans-only-20220101-x0.05": (
        "attacks_facebook",
        "attacks_google",
        "attacks_cloudflare",
        "attacks_offnet",
        "attacks_remaining",
    ),
}

MONTHS = {
    "month-20220101-x0.02": ("--scale", "0.02", "--seed", "20220101"),
    "month-109-x0.05": ("--scale", "0.05", "--seed", "109"),
}


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _file_digest(path) -> str:
    with open(path, "rb") as fileobj:
        return _digest(fileobj.read())


def _analyze_digest(pcap, capsys) -> str:
    capsys.readouterr()
    assert main(["analyze", str(pcap), *ANALYZE]) == 0
    return _digest(capsys.readouterr().out.encode())


def _sidecar_fields(pcap) -> dict:
    """What the ``analyze`` of ``pcap`` wrote into its sidecar header."""
    header = read_header(sidecar_path(str(pcap)))
    return {name: header[name] for name in SIDECAR_FIELDS}


def _observed(pcap, capsys) -> tuple:
    return _file_digest(pcap), _analyze_digest(pcap, capsys), _sidecar_fields(pcap)


@pytest.mark.parametrize("case", sorted(MONTHS))
def test_month_matches_golden(case, tmp_path, capsys):
    pcap = tmp_path / "m.pcap"
    assert main(["simulate", str(pcap), *MONTHS[case]]) == 0
    assert _observed(pcap, capsys) == GOLDEN[case]


@pytest.mark.parametrize("workers", ["2", "3"])
def test_sharded_month_matches_golden(workers, tmp_path):
    """The workers merge into the bytes the serial run writes."""
    case = "month-109-x0.05"  # two records share a microsecond with another
    pcap = tmp_path / "m.pcap"
    assert main(["simulate", str(pcap), *MONTHS[case], "--workers", workers]) == 0
    assert _file_digest(pcap) == GOLDEN[case][0]


def _one_sided_matches_golden(case, tmp_path, capsys):
    config = replace(
        ScenarioConfig(seed=20220101).scaled(0.05),
        **{knob: 0 for knob in ONE_SIDED[case]},
    )
    scenario = build_scenario(config)
    scenario.run()
    pcap = tmp_path / "one_sided.pcap"
    with open(pcap, "wb") as fileobj:
        scenario.telescope.write_pcap(fileobj)
    assert _observed(pcap, capsys) == GOLDEN[case]


def test_attacks_only_matches_golden(tmp_path, capsys):
    _one_sided_matches_golden("attacks-only-20220101-x0.05", tmp_path, capsys)


def test_scans_only_matches_golden(tmp_path, capsys):
    _one_sided_matches_golden("scans-only-20220101-x0.05", tmp_path, capsys)


def test_golden_holds_under_another_hash_seed(tmp_path):
    case = "month-20220101-x0.02"
    other = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=other, PYTHONPATH=src)
    pcap = tmp_path / "m.pcap"
    subprocess.run(
        [sys.executable, "-m", "repro", "simulate", str(pcap), *MONTHS[case]],
        env=env,
        check=True,
        capture_output=True,
        timeout=120,
    )
    analyzed = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", str(pcap), *ANALYZE],
        env=env,
        check=True,
        capture_output=True,
        timeout=120,
    )
    assert (
        _file_digest(pcap),
        _digest(analyzed.stdout),
        _sidecar_fields(pcap),
    ) == GOLDEN[case]
