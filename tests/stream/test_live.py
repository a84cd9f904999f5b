"""PcapFollower: a growing capture converges on the batch-built table."""

import os

from repro.capstore import build_capture_table
from repro.capstore.cache import load_or_build
from repro.netstack.pcap import GLOBAL_HEADER_SIZE, scan_pcap_offsets
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.stream.live import PcapFollower, render_dashboard
from repro.stream.reducers import StreamAnalyses


def load_with_status(path):
    """``(view, status)`` of one :func:`load_or_build`, the status read off
    the ``capstore.cache`` counter."""
    obs = Observability(metrics=MetricsRegistry())
    view, _hit = load_or_build(path, obs=obs)
    values = obs.metrics.snapshot()["counters"]["capstore.cache"]["values"]
    (status,) = set(values) - {"stale"}
    return view, status


def grow_in_steps(source, dest, cuts):
    """Yield after writing each prefix of ``source`` (record-aligned cuts
    plus a final whole-file step), simulating an appending writer."""
    data = open(source, "rb").read()
    offsets = scan_pcap_offsets(source)
    boundaries = [offsets[int(len(offsets) * cut)] for cut in cuts]
    for boundary in boundaries + [len(data)]:
        with open(dest, "wb") as fileobj:
            fileobj.write(data[:boundary])
        yield boundary


class TestFollowerGrowth:
    def test_stepwise_growth_equals_batch_build(self, stream_pcap, tmp_path):
        dest = str(tmp_path / "grow.pcap")
        follower = PcapFollower(dest, use_cache=False)
        analyses = StreamAnalyses()
        fed = 0
        for _boundary in grow_in_steps(stream_pcap, dest, [0.25, 0.5, 0.9]):
            follower.poll()
            analyses.feed(follower.table, fed, follower.num_rows)
            fed = follower.num_rows
        table, stats = build_capture_table(stream_pcap)
        assert follower.table == table
        assert follower.stats == stats
        assert analyses.snapshot()["rows_fed"] == table.num_rows

    def test_torn_tail_bytes_are_left_for_the_next_poll(self, pcap_copy):
        data = open(pcap_copy, "rb").read()
        cut = scan_pcap_offsets(pcap_copy)[-1]
        with open(pcap_copy, "wb") as fileobj:
            fileobj.write(data[: cut + 5])  # last record header torn
        follower = PcapFollower(pcap_copy, use_cache=False)
        follower.poll()
        assert follower.offset == cut  # stopped at the record boundary
        partial = follower.num_rows
        with open(pcap_copy, "ab") as fileobj:
            fileobj.write(data[cut + 5 :])
        follower.poll()
        assert follower.num_rows > partial
        assert follower.offset == len(data)

    def test_waits_for_missing_file_and_header(self, tmp_path):
        path = str(tmp_path / "later.pcap")
        follower = PcapFollower(path, use_cache=False)
        assert follower.poll() == 0 and not follower.started
        with open(path, "wb") as fileobj:
            fileobj.write(b"\xd4\xc3\xb2\xa1")  # header still being written
        assert follower.poll() == 0 and not follower.started
        assert os.path.getsize(path) < GLOBAL_HEADER_SIZE

    def test_shrunk_capture_resets_and_reseeds(self, pcap_copy):
        follower = PcapFollower(pcap_copy, use_cache=False)
        follower.poll()
        rows = follower.num_rows
        assert rows > 0
        data = open(pcap_copy, "rb").read()
        cut = scan_pcap_offsets(pcap_copy)[len(scan_pcap_offsets(pcap_copy)) // 2]
        with open(pcap_copy, "wb") as fileobj:  # fresh run reusing the path
            fileobj.write(data[:cut])
        follower.poll()
        assert follower.resets == 1
        assert 0 < follower.num_rows < rows


class TestFollowerCache:
    def test_seeds_from_existing_sidecar(self, pcap_copy):
        load_or_build(pcap_copy)  # leaves a .capidx next to the copy
        follower = PcapFollower(pcap_copy)
        rows = follower.poll()
        assert follower.offset == os.path.getsize(pcap_copy)
        table, _stats = build_capture_table(pcap_copy)
        assert rows == table.num_rows
        assert follower.table == table

    def test_finish_persists_a_sidecar_the_batch_plane_hits(self, pcap_copy):
        follower = PcapFollower(pcap_copy)
        follower.poll()
        follower.finish()
        view, status = load_with_status(pcap_copy)
        assert status == "hit"
        assert view.table == follower.table

    def test_no_cache_never_writes_a_sidecar(self, pcap_copy):
        follower = PcapFollower(pcap_copy, use_cache=False)
        follower.poll()
        follower.finish()
        assert not os.path.exists(pcap_copy + ".capidx")
        assert os.listdir(os.path.dirname(pcap_copy)) == ["month.pcap"]


class TestDashboard:
    def test_render_covers_followers_and_reducers(self, pcap_copy):
        follower = PcapFollower(pcap_copy, use_cache=False)
        follower.poll()
        analyses = StreamAnalyses()
        analyses.feed(follower.table, 0, follower.num_rows)
        text = render_dashboard(follower, analyses, polls=3)
        assert "repro live — poll 3" in text
        assert "month.pcap" in text and "live" in text
        assert "Version mix (online)" in text
        assert "Per-origin mix (online)" in text
        assert "off-net servers:" in text

    def test_render_before_any_capture_appears(self, tmp_path):
        follower = PcapFollower(str(tmp_path / "nope.pcap"), use_cache=False)
        follower.poll()
        text = render_dashboard(follower, StreamAnalyses(), polls=1)
        assert "waiting" in text
        assert "0 rows fed" in text
