"""Fixtures for the streaming plane tests.

One small simulated month is built once per session; tests that grow or
rewrite a capture (or cache against it) take a private copy first.  The
batch-built view of the same pcap is the parity oracle every streaming
test compares against.
"""

import shutil

import pytest

from repro.capstore import ClassifiedView, build_capture_table
from repro.cli import main


@pytest.fixture(scope="session")
def stream_pcap(tmp_path_factory):
    """A small simulated telescope month (no sidecar next to it)."""
    root = tmp_path_factory.mktemp("stream")
    path = str(root / "month.pcap")
    assert main(["simulate", path, "--scale", "0.04", "--seed", "11"]) == 0
    return path


@pytest.fixture
def pcap_copy(stream_pcap, tmp_path):
    """A private copy of the month pcap, safe to grow or cache against."""
    dest = tmp_path / "month.pcap"
    shutil.copy(stream_pcap, dest)
    return str(dest)


@pytest.fixture(scope="session")
def batch_view(stream_pcap):
    """The batch-plane truth the online reducers must agree with."""
    table, stats = build_capture_table(stream_pcap)
    return ClassifiedView(table, stats)
