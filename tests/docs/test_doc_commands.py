"""Documented ``repro`` commands must parse against the real CLI."""

import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_doc_commands.py")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
from check_doc_commands import (  # noqa: E402
    check_file,
    check_spans,
    fenced_commands,
    parses,
    repro_argv,
)


class TestRepoDocs:
    def test_every_documented_command_parses(self):
        """The CI docs job, run as a tier-1 gate."""
        result = subprocess.run(
            [sys.executable, CHECKER],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "doc commands ok" in result.stdout

    def test_experiment_book_actually_documents_commands(self):
        """An experiment book with no runnable commands is not a book."""
        commands = fenced_commands(os.path.join(REPO_ROOT, "EXPERIMENTS.md"))
        assert len(commands) >= 10


class TestExtraction:
    def test_prompts_comments_and_fences(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "\n".join(
                [
                    "repro simulate outside-fence.pcap  (prose, ignored)",
                    "```console",
                    "$ repro simulate month.pcap --scale 0.5   # a comment",
                    "$ ls -l month.pcap",
                    "# a fenced comment line",
                    "REPRO_BENCH_SCALE=0.1 repro classify month.pcap",
                    "```",
                    "```",
                    "repro analyze month.pcap \\",
                    "  --tables 2 3",
                    "```",
                ]
            )
        )
        commands = [text for _lineno, text in fenced_commands(str(doc))]
        assert commands == [
            "$ repro simulate month.pcap --scale 0.5   # a comment",
            "REPRO_BENCH_SCALE=0.1 repro classify month.pcap",
            "repro analyze month.pcap --tables 2 3",
        ]

    def test_argv_strips_prompt_env_comment_and_operators(self):
        assert repro_argv(
            "$ VAR=1 repro analyze month.pcap --workers 4 # fast"
        ) == ["analyze", "month.pcap", "--workers", "4"]
        assert repro_argv("repro simulate out.pcap & ") == [
            "simulate",
            "out.pcap",
        ]
        assert repro_argv("repro stats a.json | head") == ["stats", "a.json"]


class TestParses:
    def test_accepts_real_command(self):
        ok, why = parses(["analyze", "month.pcap", "--tables", "2"])
        assert ok, why

    def test_accepts_help(self):
        ok, _why = parses(["sweep", "--help"])
        assert ok

    def test_rejects_unknown_flag(self):
        ok, why = parses(["analyze", "month.pcap", "--no-such-flag"])
        assert not ok
        assert "no-such-flag" in why

    def test_rejects_unknown_subcommand(self):
        ok, _why = parses(["frobnicate"])
        assert not ok

    def test_check_file_reports_line_numbers(self, tmp_path):
        doc = tmp_path / "bad.md"
        doc.write_text("```\nrepro analyze month.pcap --bogus\n```\n")
        seen, errors = check_file(str(doc))
        assert seen == 1
        assert len(errors) == 1
        assert ":2:" in errors[0]


class TestInlineSpans:
    def test_removed_command_and_flag_in_prose(self, tmp_path):
        doc = tmp_path / "prose.md"
        doc.write_text(
            "\n".join(
                [
                    "Watch it with `repro progress run.pcap --follow`, or with",
                    "`repro top run.pcap`; diff snapshots with `repro stats",
                    "m.json --follow 2`.  Errors read `repro analyze: x.pcap:",
                    "bad pcap magic` or `repro <command>: <reason>`; every",
                    "`repro …` command parses.",
                    "```",
                    "# `repro top` inside a fence is the fenced checker's business",
                    "```",
                ]
            )
        )
        seen, errors = check_spans(str(doc))
        assert seen == 6
        assert errors == [
            "%s:2: `repro top run.pcap` — unknown command 'repro top'" % doc,
            "%s:2: `repro stats m.json --follow 2` — repro stats has no "
            "option --follow" % doc,
        ]
