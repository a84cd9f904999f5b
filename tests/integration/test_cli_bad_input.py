"""Bad input is answered in one line: ``repro.cli.main``'s error boundary.

A read-side command pointed at something that is not a readable pcap
prints ``repro <command>: <path>: <reason>`` on stderr and exits 2 —
no traceback, nothing left next to the input.  Each takes exactly one
pcap; a second path is an argparse usage error.  A torn shard stops
the merge of a sharded ``simulate`` with a ``PcapError`` naming it; a
read-side command given it alone notes its torn tail in one line.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.netstack.pcap import PcapError, merge_pcap_files, read_pcap, write_pcap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def good_pcap(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bad_input") / "good.pcap")
    assert main(["simulate", path, "--scale", "0.01", "--seed", "5"]) == 0
    return path


def _make_bad(kind, directory, good_pcap):
    """A path of the given bad kind inside ``directory``, and its reason."""
    path = os.path.join(directory, kind + ".pcap")
    if kind == "missing":
        return path, "No such file or directory"
    if kind == "directory":
        os.mkdir(path)
        return path, "Is a directory"
    with open(good_pcap, "rb") as fileobj:
        head = fileobj.read(24)
    content, reason = {
        "empty": (b"", "truncated pcap global header"),
        "garbage": (b"\x00not a pcap at all, just bytes " * 4, "bad pcap magic 0x746f6e00"),
        "cut_header": (head[:10], "truncated pcap global header"),
    }[kind]
    with open(path, "wb") as fileobj:
        fileobj.write(content)
    return path, reason


KINDS = ("missing", "directory", "empty", "garbage", "cut_header")
COMMANDS = {
    "analyze": lambda good, bad: ["analyze", bad],
    "classify": lambda good, bad: ["classify", bad],
    "index": lambda good, bad: ["index", bad],
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_bad_pcap_is_one_line_and_exit_2(command, kind, good_pcap, tmp_path, capsys):
    bad, reason = _make_bad(kind, str(tmp_path), good_pcap)
    before = sorted(os.listdir(tmp_path))
    good_siblings = sorted(os.listdir(os.path.dirname(good_pcap)))

    status = main(COMMANDS[command](good_pcap, bad))

    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "repro %s: %s: %s\n" % (command, bad, reason)
    assert "Traceback" not in captured.err
    # No sidecar, no .progress directory, next to either input.
    assert sorted(os.listdir(tmp_path)) == before
    assert sorted(os.listdir(os.path.dirname(good_pcap))) == good_siblings


@pytest.mark.parametrize("command", ["analyze", "index"])
def test_a_torn_shard_is_named_in_one_line(command, good_pcap, tmp_path, capsys):
    """The second of three shards ends mid-record: the merge stops on it by
    name, and a read-side command given it names its torn tail in one note."""
    records = read_pcap(good_pcap)
    shards = [str(tmp_path / ("out.pcap.shard%d" % k)) for k in range(3)]
    for k, path in enumerate(shards):
        write_pcap(path, records[k::3])
    full = os.path.getsize(shards[1])
    intact = str(tmp_path / "intact.pcap")
    write_pcap(intact, records[1::3][:-1])
    indexed = os.path.getsize(intact)
    with open(shards[1], "r+b") as fileobj:
        fileobj.truncate(full - 5)

    with pytest.raises(PcapError) as excinfo:
        merge_pcap_files(shards, str(tmp_path / "out.pcap"))
    assert str(excinfo.value) == "%s: truncated pcap record body" % shards[1]

    status = main([command, shards[1]])

    captured = capsys.readouterr()
    assert status == 0
    assert captured.err == (
        "repro %s: note: %s is indexed up to byte %d of %d; the %d bytes after it "
        "are not (an incomplete or corrupt record starts there)\n"
        % (command, shards[1], indexed, full - 5, full - 5 - indexed)
    )


@pytest.mark.parametrize("command", ["analyze", "index", "live"])
def test_a_second_pcap_is_a_usage_error(command, good_pcap, tmp_path, capsys):
    """One capture per run: the read side takes one path, never a set."""
    other = str(tmp_path / "b.pcap")
    with pytest.raises(SystemExit) as excinfo:
        main([command, good_pcap, other])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: repro ")
    assert captured.err.endswith("repro: error: unrecognized arguments: %s\n" % other)
    assert os.listdir(tmp_path) == []


def test_nested_commands_are_named_in_full(tmp_path, capsys):
    # An unwritable --metrics target only fails once the one-cell sweep ran.
    spec = tmp_path / "grid.json"
    spec.write_text('{"name": "g", "axes": {"scale": [0.01]}, "metrics": ["rows.total"]}')
    blocked = str(tmp_path / "no-such-dir" / "m.json")
    status = main(["sweep", "run", str(spec), "--quiet", "--metrics", blocked])
    err = capsys.readouterr().err
    assert status == 2
    assert err == "repro sweep run: %s: No such file or directory\n" % blocked


def test_an_oserror_that_names_no_file_is_not_swallowed(monkeypatch, good_pcap):
    import repro.commands.capture as capture

    def boom(*args, **kwargs):
        raise OSError("out of descriptors")

    monkeypatch.setattr(capture, "load_or_build", boom)
    with pytest.raises(OSError, match="out of descriptors"):
        main(["classify", good_pcap])


def test_a_reader_that_left_is_not_a_stack_trace(good_pcap):
    # `repro analyze x.pcap | head`: close the read end before the
    # command gets to print; the flush inside main() then hits EPIPE.
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "analyze", good_pcap, "--no-cache"],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait() == 1
    assert stderr == ""


class TestWorkersMustBePositive:
    """``simulate`` and ``sweep run`` want N >= 1; the read side builds in
    one process and takes no ``--workers`` at all."""

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["index", "x.pcap"],
            ["classify", "x.pcap"],
            ["analyze", "x.pcap"],
            ["sweep", "run", "grid.json"],
            ["simulate", "x.pcap"],
        ],
        ids=lambda argv: " ".join(argv[:-1]),
    )
    def test_rejected_by_argparse(self, argv, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--workers", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        if argv[0] in ("index", "classify", "analyze"):
            assert "unrecognized arguments: --workers" in err
        else:
            assert "argument --workers: expected a positive integer, got %r" % value in err

    def test_simulate_keeps_auto(self, tmp_path):
        out = str(tmp_path / "auto.pcap")
        assert main(["simulate", out, "--scale", "0.01", "--workers", "auto"]) == 0
