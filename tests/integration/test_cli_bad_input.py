"""Bad input is answered in one line: ``repro.cli.main``'s error boundary.

A read-side command pointed at something that is not a readable pcap
prints ``repro <command>: <path>: <reason>`` on stderr and exits 2 —
no traceback, nothing left next to the input — whether the file is one
pcap or a member of a ``--no-merge`` shard set.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.netstack.pcap import read_pcap, write_pcap

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
    "analyze shards": lambda good, bad: ["analyze", good, bad],
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
    assert captured.err == "repro %s: %s: %s\n" % (command.split()[0], bad, reason)
    assert "Traceback" not in captured.err
    # No sidecar, no .progress directory, next to either input.
    assert sorted(os.listdir(tmp_path)) == before
    assert sorted(os.listdir(os.path.dirname(good_pcap))) == good_siblings


@pytest.mark.parametrize("command", ["analyze", "index"])
def test_a_torn_shard_is_named_in_one_line(command, good_pcap, tmp_path, capsys):
    """The second of three shards ends mid-record: the one line names it."""
    records = read_pcap(good_pcap)
    shards = [str(tmp_path / ("out.pcap.shard%d" % k)) for k in range(3)]
    for k, path in enumerate(shards):
        write_pcap(path, records[k::3])
    with open(shards[1], "r+b") as fileobj:
        fileobj.truncate(os.path.getsize(shards[1]) - 5)

    status = main([command, *shards])

    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "repro %s: %s: truncated pcap record body\n" % (
        command,
        shards[1],
    )


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
        assert "argument --workers: expected a positive integer, got %r" % value in err

    def test_simulate_keeps_auto(self, tmp_path):
        out = str(tmp_path / "auto.pcap")
        assert main(["simulate", out, "--scale", "0.01", "--workers", "auto"]) == 0
