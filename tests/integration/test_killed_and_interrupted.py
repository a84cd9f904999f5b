"""Killed workers, interrupted writers, SIGTERM: typed, bounded, nothing torn.

Three behaviours, each with one implementation (ARCHITECTURE.md, "Outputs
and failure"): whole documents leave through ``repro.atomic.atomic_output``,
every fan-out runs under ``repro.pool.run_pool``, every failure reaches the
operator through ``repro.cli.main``'s boundary as one line and exit 2.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
import repro.atomic
import repro.netstack.pcap
import repro.simnet.shard
import repro.sweep.runner
from repro.capstore.format import dump_index
from repro.capstore.table import CaptureTable
from repro.cli import main
from repro.commands.simulate import write_capture
from repro.lint.engine import Baseline
from repro.netstack.addr import parse_ip
from repro.netstack.pcap import scan_pcap_tail
from repro.netstack.udp import UdpDatagram
from repro.obs import MetricsRegistry, RingBufferTracer
from repro.obs.prof import write_speedscope
from repro.obs.export import PromFileWriter
from repro.obs.progress import HeartbeatWriter
from repro.obs.spans import merge_span_timelines
from repro.pool import run_pool
from repro.simnet.shard import _worker_main
from repro.sweep.runner import CellOutcome, _cell_main, _dump_json, _write_results
from repro.sweep.spec import spec_from_dict
from repro.telescope.classify import SanitizationStats
from repro.telescope.darknet import Telescope
from tests.sweep.conftest import MICRO

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
BOUND = 10.0  # seconds: what "bounded" means below

GRID = {
    "name": "grid",
    "base": dict(MICRO),
    "axes": {"loss_rate": [0.0, 0.1, 0.2], "attack_scale": [0.5, 1.0]},
    "metrics": ["rows.total"],
}


def _temps(root):
    return [
        os.path.join(folder, name)
        for folder, _dirs, names in os.walk(str(root))
        for name in names
        if name.endswith(".tmp")
    ]


# ---------------------------------------------------------------------------
# (a) A worker that dies is one line and exit 2, not a hang
# ---------------------------------------------------------------------------


def _shard_1_dies(payload):
    if payload[-1] == 1:
        os._exit(137)  # what the OOM-killer leaves: no exception, no result
    return _worker_main(payload)


def _cell_1_dies(payload):
    if payload[0].index == 1:
        os._exit(137)
    return _cell_main(payload)


def _died(command, unit):
    return (
        "repro %s: %s 1: its worker process died with status 137 (killed, or "
        "out of memory?)\n" % (command, unit)
    )


class TestWorkerDeath:
    def test_simulate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(repro.simnet.shard, "_worker_main", _shard_1_dies)
        out = str(tmp_path / "month.pcap")
        start = time.monotonic()
        status = main(["simulate", out, "--scale", "0.02", "--seed", "3",
                       "--workers", "2"])
        assert time.monotonic() - start < BOUND
        assert status == 2
        assert capsys.readouterr().err == _died("simulate", "shard")
        assert glob.glob(out + ".shard*") == []
        assert not os.path.exists(out)
        assert _temps(tmp_path) == []

    def test_sweep_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(repro.sweep.runner, "_cell_main", _cell_1_dies)
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps(GRID))
        outdir = tmp_path / "grid.sweep"
        start = time.monotonic()
        status = main(["sweep", "run", str(spec), "--out", str(outdir),
                       "--workers", "2", "--quiet"])
        assert time.monotonic() - start < BOUND
        assert status == 2
        assert capsys.readouterr().err == _died("sweep run", "cell")
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["totals"]["pending"] == 6  # the up-front manifest, whole
        _assert_only_whole_cells(outdir)
        assert not (outdir / "results.csv").exists()
        assert _temps(tmp_path) == []


def _pid_or_tantrum(payload):
    kind, marker = payload
    if kind == "raise":
        raise ValueError("payload said so")
    if kind == "crowd":  # how many of us are running at once?
        mine = os.path.join(marker, str(os.getpid()))
        open(mine, "w").close()
        time.sleep(0.1)
        crowd = len(os.listdir(marker))
        os.remove(mine)
        return crowd
    if kind == "linger":
        time.sleep(1.0)
        open(marker, "w").close()  # only a worker that outlived the pool gets here
    return os.getpid()


class TestRunPool:
    def test_results_carry_their_payload_index(self):
        pids = dict(run_pool(_pid_or_tantrum, [("pid", None)] * 3, "unit"))
        assert sorted(pids) == [0, 1, 2]
        assert os.getpid() not in pids.values()

    def test_a_lone_payload_runs_in_this_process(self):
        assert list(run_pool(_pid_or_tantrum, [("pid", None)], "unit")) == [
            (0, os.getpid())
        ]

    def test_an_exception_comes_back_as_itself_and_ends_the_siblings(self, tmp_path):
        marker = str(tmp_path / "outlived")
        payloads = [("linger", marker), ("raise", None), ("linger", marker)]
        with pytest.raises(ValueError, match="payload said so"):
            sorted(run_pool(_pid_or_tantrum, payloads, "unit"))
        time.sleep(1.2)
        assert not os.path.exists(marker)

    def test_workers_cap_the_processes_not_the_payloads(self, tmp_path):
        crowds = dict(run_pool(_pid_or_tantrum, [("crowd", str(tmp_path))] * 6, "unit", 2))
        assert sorted(crowds) == list(range(6))
        assert max(crowds.values()) == 2


def _assert_only_whole_cells(outdir):
    """Every cell directory left behind vouches for a complete capture."""
    for celldir in glob.glob(os.path.join(str(outdir), "cells", "*")):
        with open(os.path.join(celldir, "cell.json")) as fileobj:
            records = json.load(fileobj)["records"]
        pcap = os.path.join(celldir, "capture.pcap")
        offsets, end = scan_pcap_tail(pcap)
        assert (len(offsets), end) == (records, os.path.getsize(pcap))


# ---------------------------------------------------------------------------
# (b) Ctrl-C inside any document writer: the old version or none, no temp
# ---------------------------------------------------------------------------


class _TornWrite:
    """A file that takes half of the first write, then Ctrl-C arrives."""

    def __init__(self, fileobj):
        self._file = fileobj

    def write(self, data):
        self._file.write(data[: len(data) // 2])
        self._file.flush()
        raise KeyboardInterrupt

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()


def _write_sidecar(path):
    dump_index(path, CaptureTable(), SanitizationStats())


def _write_heartbeat(path):
    writer = HeartbeatWriter(os.path.dirname(path), worker=0)
    assert writer.path == path
    writer.update("run", final=True)


def _write_prom(path):
    registry = MetricsRegistry()
    registry.counter("net.delivered").inc()
    PromFileWriter(registry, path).write()


def _write_metrics(path):
    MetricsRegistry().write(path)


def _write_speedscope(path):
    write_speedscope(path, {"simulate.run": [1.0, 1]})


def _write_span_timeline(path):
    trace = path + ".input"
    with open(trace, "w") as fileobj:
        fileobj.write('{"time":1.0,"category":"span","name":"unit","data":{"n":1}}\n')
    try:
        merge_span_timelines([trace], path)
    finally:
        os.remove(trace)


def _write_ring_dump(path):
    ring = RingBufferTracer(capacity=4)
    ring.emit("sim", "tick", time=1.0)
    ring.dump(path)


def _write_manifest_json(path):
    _dump_json(path, {"cells": []})


def _write_results_csv(path):
    spec = spec_from_dict(GRID)
    cells = spec.cells()
    outcomes = [
        CellOutcome(cell.index, cell.cell_id, "simulated", 0, 0.0, {"rows.total": 1.0})
        for cell in cells
    ]
    assert _write_results(os.path.dirname(path), spec, cells, outcomes) == path


def _write_baseline(path):
    Baseline.write(path, [])


def _write_serial_pcap(path):
    telescope = Telescope()
    telescope.handle_datagram(
        UdpDatagram(parse_ip("192.0.2.1"), parse_ip("44.0.0.1"), 4000, 443, b"x" * 64),
        1.0,
    )
    write_capture(telescope, path)


def _write_pivot_csv(path):
    outdir = path + ".sweep"
    os.makedirs(outdir)
    results = {
        "spec": "hand",
        "axes": {"a": [1, 2], "b": [1, 2]},
        "metrics": ["m"],
        "cells": [
            {"coords": [["a", a], ["b", b]], "cell_id": "%d%d" % (a, b),
             "values": {"m": float(a * b)}}
            for a in (1, 2)
            for b in (1, 2)
        ],
    }
    with open(os.path.join(outdir, "results.json"), "w") as fileobj:
        json.dump(results, fileobj)
    try:
        main(["sweep", "render", outdir, "--csv", path])
    finally:
        os.remove(os.path.join(outdir, "results.json"))
        os.rmdir(outdir)


#: Every caller of ``atomic_output`` under ``src/repro``: target name, writer.
DOCUMENT_WRITERS = {
    "sidecar": ("month.pcap.capidx", _write_sidecar),
    "heartbeat": ("worker0.hb.json", _write_heartbeat),
    "prom-file": ("live.prom", _write_prom),
    "metrics": ("metrics.json", _write_metrics),
    "speedscope": ("month.speedscope.json", _write_speedscope),
    "span-timeline": ("merged.jsonl", _write_span_timeline),
    "ring-dump": ("ring.jsonl", _write_ring_dump),
    "sweep-json": ("manifest.json", _write_manifest_json),
    "results-csv": ("results.csv", _write_results_csv),
    "lint-baseline": ("lint_baseline.json", _write_baseline),
    "pivot-csv": ("pivot.csv", _write_pivot_csv),
    "serial-pcap": ("month.pcap", _write_serial_pcap),
}


def test_the_table_names_every_caller_of_atomic_output():
    callers = 0
    for folder, _dirs, names in os.walk(os.path.join(SRC, "repro")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fileobj:
                    callers += fileobj.read().count("with atomic_output(")
    assert callers == len(DOCUMENT_WRITERS) == 12


@pytest.mark.parametrize("name", sorted(DOCUMENT_WRITERS))
@pytest.mark.parametrize("existed", [True, False], ids=["existing", "absent"])
def test_ctrl_c_inside_a_document_writer(name, existed, tmp_path, monkeypatch, capsys):
    filename, write = DOCUMENT_WRITERS[name]
    path = str(tmp_path / filename)
    previous = b"the previous, complete document\n"
    if existed:
        with open(path, "wb") as fileobj:
            fileobj.write(previous)
    opened = []

    def torn_open(*args):
        opened.append(args[0])
        return _TornWrite(open(*args))

    monkeypatch.setattr(repro.atomic, "open", torn_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        write(path)
    assert opened == ["%s.%d.tmp" % (path, os.getpid())]  # the body did run
    assert os.listdir(str(tmp_path)) == ([filename] if existed else [])
    if existed:
        with open(path, "rb") as fileobj:
            assert fileobj.read() == previous


@pytest.mark.parametrize("existed", [True, False], ids=["existing", "absent"])
def test_a_failed_serial_simulate_leaves_its_output_as_it_was(
    existed, tmp_path, monkeypatch, capsys
):
    path = str(tmp_path / "month.pcap")
    previous = b"the previous, complete capture\n"
    if existed:
        with open(path, "wb") as fileobj:
            fileobj.write(previous)

    def failing_write(telescope, fileobj):
        fileobj.write(b"\xd4\xc3\xb2\xa1 half a capture")
        raise RuntimeError("disk gave out")

    monkeypatch.setattr(Telescope, "write_pcap", failing_write)
    with pytest.raises(RuntimeError, match="disk gave out"):
        main(["simulate", path, "--scale", "0.01"])
    assert _temps(tmp_path) == []
    assert sorted(os.listdir(str(tmp_path))) == (
        ["month.pcap", "month.pcap.progress"] if existed else ["month.pcap.progress"]
    )
    if existed:
        with open(path, "rb") as fileobj:
            assert fileobj.read() == previous


def test_an_output_that_cannot_be_opened_names_the_target(tmp_path, capsys):
    target = str(tmp_path / "no-such-dir" / "m.json")
    assert main(["stats", "--diff", target, target]) == 2  # a read, for contrast
    capsys.readouterr()
    with pytest.raises(FileNotFoundError) as excinfo:
        MetricsRegistry().write(target)
    assert excinfo.value.filename == target  # not the staging name


# ---------------------------------------------------------------------------
# (c) SIGTERM to a sweep: the same cleanups as Ctrl-C, then exit 2
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not hasattr(signal, "SIGTERM"), reason="needs SIGTERM")
def test_sigterm_mid_sweep_leaves_whole_files_only(tmp_path):
    doc = dict(GRID, axes={"loss_rate": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25],
                           "attack_scale": [0.5, 1.0, 1.5, 2.0]})
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps(doc))
    outdir = tmp_path / "grid.sweep"
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "run", str(spec),
         "--out", str(outdir), "--workers", "2", "--metrics", str(tmp_path / "m.json")],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not (outdir / "manifest.json").exists():
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(signal.SIGTERM)
        _out, err = child.communicate(timeout=BOUND)
    finally:
        child.kill()
    assert child.returncode == 2
    assert err == "repro sweep run: terminated (SIGTERM)\n"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["totals"]["cells"] == 24
    _assert_only_whole_cells(outdir)
    assert not (outdir / "results.csv").exists()
    assert _temps(tmp_path) == []
    # The workers went with it: nothing is still writing cells.
    cells = sorted(glob.glob(str(outdir / "cells" / "*")))
    time.sleep(0.5)
    assert sorted(glob.glob(str(outdir / "cells" / "*"))) == cells


# ---------------------------------------------------------------------------
# (d) A merge that stops mid-record: readers report the prefix
# ---------------------------------------------------------------------------


def test_an_interrupted_merge_is_read_up_to_its_torn_tail(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "month.pcap")
    real_write = repro.netstack.pcap.PcapWriter.write
    merging = os.getpid()  # the shard workers are forked with the patch too
    written = []

    def write_then_die(self, record):
        if os.getpid() == merging:
            if len(written) == 200:
                self._file.write(b"\x00" * 9)  # half a record header, then the kill
                raise KeyboardInterrupt
            written.append(record)
        real_write(self, record)

    monkeypatch.setattr(repro.netstack.pcap.PcapWriter, "write", write_then_die)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", out, "--scale", "0.02", "--seed", "3", "--workers", "2"])
    monkeypatch.undo()
    capsys.readouterr()
    assert glob.glob(out + ".shard*") == []
    offsets, end = scan_pcap_tail(out)
    assert len(offsets) == 200 and os.path.getsize(out) == end + 9
    assert main(["analyze", out, "--tables", "2"]) == 0
    captured = capsys.readouterr()
    assert "Table 2" in captured.out
    assert captured.err == (
        "repro analyze: note: %s is indexed up to byte %d of %d; the 9 bytes "
        "after it are not (an incomplete or corrupt record starts there)\n"
        % (out, end, end + 9)
    )
