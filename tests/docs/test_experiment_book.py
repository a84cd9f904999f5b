"""The experiment book's command families actually run, not just parse.

``tools/check_doc_commands.py`` guarantees every fenced ``repro …``
command in EXPERIMENTS.md parses against the real CLI grammar; this
module guarantees they *work*: every command family the book uses is
executed here end to end at tiny scale (a 2-second simulated month, a
two-cell sweep).  Adding a section to the book that introduces a new
family without a tiny-scale exercise fails
``test_book_families_are_exercised``.

A "family" is the subcommand — plus the nested subcommand for the
grouped commands (``sweep run`` vs ``sweep render``, ``trace summarize``
vs ``trace merge``) — because those dispatch to entirely different code.
Flags are the grammar checker's job.
"""

import json
import os
import sys

import pytest

from repro.cli import main

from tests.sweep.conftest import MICRO

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
BOOK = os.path.join(REPO_ROOT, "EXPERIMENTS.md")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
from check_doc_commands import fenced_commands, repro_argv  # noqa: E402

#: Grouped commands whose nested subcommand picks the code path.
_GROUPED = ("sweep", "trace", "probe")

#: Every family a test in this module drives through ``main()``.
EXERCISED = {
    ("simulate",),
    ("classify",),
    ("analyze",),
    ("index",),
    ("live",),
    ("stats",),
    ("progress",),
    ("probe", "enumerate"),
    ("sweep", "run"),
    ("sweep", "status"),
    ("sweep", "render"),
    ("trace", "summarize"),
    ("trace", "merge"),
    ("trace", "tail"),
}


def family(argv):
    """(command,) or (command, subcommand) for grouped commands."""
    if argv[0] in _GROUPED:
        # In every book command the nested subcommand is the first
        # non-flag token (flag values never precede it).
        sub = next(tok for tok in argv[1:] if not tok.startswith("-"))
        return (argv[0], sub)
    return (argv[0],)


def book_argvs():
    return [repro_argv(command) for _lineno, command in fenced_commands(BOOK)]


def book_tables():
    """Every ``--tables`` argument list the book's analyze commands use."""
    variants = []
    for argv in book_argvs():
        if argv[0] != "analyze" or "--tables" not in argv:
            continue
        tables = []
        for token in argv[argv.index("--tables") + 1 :]:
            if token.startswith("-"):
                break
            tables.append(token)
        variants.append(tables)
    return variants


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """One tiny capture (+ trace, metrics, sweep) shared by every test."""
    root = tmp_path_factory.mktemp("book")
    pcap = str(root / "tiny.pcap")
    trace = str(root / "tiny.trace.jsonl")
    metrics = str(root / "tiny.metrics.json")
    assert (
        main(
            [
                "simulate",
                pcap,
                "--scale",
                "0.05",
                "--seed",
                "7",
                "--trace",
                trace,
                "--metrics",
                metrics,
            ]
        )
        == 0
    )

    spec = root / "micro.json"
    spec.write_text(
        json.dumps(
            {
                "name": "book-micro",
                "axes": {"loss_rate": [0.0, 0.2], "attack_scale": [1.0]},
                "base": MICRO,
                "metrics": ["rows.total"],
            }
        )
    )
    sweep_dir = str(root / "micro.sweep")
    assert main(["sweep", "run", str(spec), "--out", sweep_dir, "--quiet"]) == 0

    return {
        "pcap": pcap,
        "trace": trace,
        "metrics": metrics,
        "sweep": sweep_dir,
        "root": root,
    }


def test_book_families_are_exercised():
    """Each family the book documents has a live exercise below."""
    used = {family(argv) for argv in book_argvs()}
    assert used, "the experiment book documents no repro commands"
    missing = used - EXERCISED
    assert not missing, (
        "EXPERIMENTS.md uses command families this module never runs: %s"
        % sorted(missing)
    )


class TestCaptureFamilies:
    def test_classify(self, env, capsys):
        assert main(["classify", env["pcap"]]) == 0
        assert "kept" in capsys.readouterr().out

    def test_analyze_every_book_tables_variant(self, env, capsys):
        variants = book_tables()
        assert variants, "the book documents no analyze --tables commands"
        for tables in variants:
            assert main(["analyze", env["pcap"], "--tables"] + tables) == 0
        assert capsys.readouterr().out.strip()

    def test_index_build_and_info(self, env, capsys):
        assert main(["index", env["pcap"]]) == 0
        assert main(["index", env["pcap"], "--info"]) == 0
        assert "rows" in capsys.readouterr().out

    def test_live_on_finished_capture(self, env, capsys):
        code = main(
            ["live", env["pcap"], "--interval", "0.05", "--exit-idle", "1", "--quiet"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip()


class TestObservabilityFamilies:
    def test_stats(self, env, capsys):
        assert main(["stats", env["metrics"]]) == 0
        assert capsys.readouterr().out.strip()

    def test_trace_summarize(self, env, capsys):
        assert main(["trace", "summarize", env["trace"]]) == 0
        assert capsys.readouterr().out.strip()

    def test_trace_merge(self, env):
        merged = str(env["root"] / "merged.jsonl")
        assert main(["trace", "merge", merged, env["trace"]]) == 0
        assert os.path.exists(merged)

    def test_trace_tail_exits_when_idle(self, env):
        code = main(
            ["trace", "tail", env["trace"], "--exit-idle", "1", "--interval", "0.05"]
        )
        assert code == 0


class TestProbeFamily:
    def test_probe_enumerate(self, capsys):
        code = main(
            ["probe", "enumerate", "--hosts", "6", "--handshakes", "120", "--seed", "7"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip()


class TestSweepFamilies:
    def test_sweep_status(self, env, capsys):
        assert main(["sweep", "status", env["sweep"]]) == 0
        assert "simulated" in capsys.readouterr().out

    def test_sweep_render(self, env, capsys):
        assert main(["sweep", "render", env["sweep"]]) == 0
        assert "rows.total" in capsys.readouterr().out

    def test_progress_and_top_on_sweep_dir(self, env, capsys):
        # Both exit immediately on a finished sweep: every cell's final
        # heartbeat reports done, so the follow loop has nothing to wait
        # for — which is exactly why the book can tell readers to point
        # `repro progress --follow` at a sweep output directory.
        assert main(["progress", env["sweep"]]) == 0
        assert main(["progress", env["sweep"], "--follow", "--interval", "0.05"]) == 0
        assert capsys.readouterr().out.strip()
