#!/usr/bin/env python
"""Fail on documented ``repro`` commands the real CLI would reject.

The experiment book (EXPERIMENTS.md), README and ARCHITECTURE quote
``repro ...`` invocations inside fenced code blocks.  A renamed flag or
subcommand silently rots every one of them — the worst kind of docs bug,
because readers copy-paste exactly those lines.  This checker extracts
each fenced command and drives it through the *actual*
:func:`repro.cli.build_parser` grammar (``parse_args`` up to, but not
including, command execution):

* lines are commands when their first token is ``repro``, after an
  optional ``$``/``%`` prompt and any leading ``VAR=value`` environment
  assignments;
* trailing-backslash continuations are joined first; everything from
  the first shell operator (``|``, ``&&``, ``;``, redirections) on is
  ignored, as are comment lines;
* a command parses cleanly when argparse accepts it (``--help`` counts:
  argparse exits 0).  Anything that would print a usage error fails.

Placeholder arguments are deliberately *not* allowed — ``repro analyze
<pcap>`` fails the numeric/choice checks that real paths pass, which
keeps the book runnable by copy-paste.

Prose quotes commands too, as inline code spans (`` `repro live …
--prom-file` ``), and those are rarely whole command lines.  In README,
ARCHITECTURE and EXPERIMENTS every span that starts with ``repro `` is
held to a looser rule (:func:`check_spans`): its command path must exist
in the parser table, and each ``--flag`` it names must be an option of
that command.  Spans that quote an error line — ``repro <command>:
<reason>``, a path word ending in ``:`` — and spans whose command is
elided (`` `repro …` ``) are skipped.

Exit status is the number of broken commands (0 = docs are clean), so
the CI lint job can simply run ``PYTHONPATH=src python
tools/check_doc_commands.py``.  Used by
``tests/docs/test_doc_commands.py`` as a tier-1 gate too.  ``--json``
emits the shared machine-readable report (see ``tools/_report.py``;
same document shape as ``repro lint --json``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shlex
import sys
from typing import List, Tuple

from _report import Report, split_json_flag

#: The documents whose fenced ``repro`` commands we guarantee.
DOCS = (
    "README.md",
    "ARCHITECTURE.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "DESIGN.md",
    "CHANGES.md",
)

#: The documents whose inline ``repro`` code spans we guarantee.
SPAN_DOCS = ("README.md", "ARCHITECTURE.md", "EXPERIMENTS.md")

_FENCE = re.compile(r"^(```|~~~)")
#: A CommonMark code span: a backtick run closed by a run of the same length.
_CODE_SPAN = re.compile(r"(?<!`)(`+)(?!`)(.+?)(?<!`)\1(?!`)", re.DOTALL)
_ENV_ASSIGNMENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")
_SHELL_OPERATORS = {"|", "||", "&&", "&", ";", ">", ">>", "<", "2>", "2>&1"}


def fenced_commands(path: str) -> List[Tuple[int, str]]:
    """Every ``repro ...`` command line inside fenced blocks of ``path``.

    Returns ``(lineno, command)`` pairs with continuations joined and
    prompts kept (stripped later by :func:`repro_argv`).
    """
    with open(path, encoding="utf-8") as fileobj:
        raw = fileobj.read().splitlines()
    commands: List[Tuple[int, str]] = []
    in_fence = False
    pending: List[str] = []
    pending_line = 0
    for lineno, line in enumerate(raw, start=1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            pending = []
            continue
        if not in_fence:
            continue
        text = line.strip()
        if pending:
            pending.append(text.rstrip("\\").strip())
            if not text.endswith("\\"):
                commands.append((pending_line, " ".join(pending)))
                pending = []
            continue
        if text.startswith("#") or not text:
            continue
        stripped = text.lstrip("$% ").strip()
        first_real = next(
            (
                token
                for token in stripped.split()
                if not _ENV_ASSIGNMENT.match(token)
            ),
            "",
        )
        if first_real != "repro":
            continue
        if text.endswith("\\"):
            pending = [text.rstrip("\\").strip()]
            pending_line = lineno
        else:
            commands.append((lineno, text))
    return commands


def repro_argv(command: str) -> List[str]:
    """The argv (after ``repro``) a shell would hand the CLI."""
    # comments=True drops trailing `# explanation` annotations; a real
    # shell would treat them the same way.
    tokens = shlex.split(command.lstrip("$% "), comments=True)
    while tokens and _ENV_ASSIGNMENT.match(tokens[0]):
        tokens.pop(0)
    argv: List[str] = []
    for token in tokens:
        if token in _SHELL_OPERATORS:
            break
        argv.append(token)
    assert argv and argv[0] == "repro", command
    return argv[1:]


def parses(argv: List[str]) -> Tuple[bool, str]:
    """Does the real CLI grammar accept ``argv``?  (ok, error text).

    The grammar is the parser ``repro.cli.main`` builds for ``argv``:
    the named command's arguments, every other command by name.
    """
    from repro.cli import build_parser

    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(
            io.StringIO()
        ):
            build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:  # argparse reports errors by exiting
        if exc.code not in (0, None):
            message = stderr.getvalue().strip().splitlines()
            return False, message[-1] if message else "usage error"
    return True, ""


def check_file(path: str) -> Tuple[int, List[str]]:
    """(commands seen, errors) for one document."""
    errors: List[str] = []
    commands = fenced_commands(path)
    for lineno, command in commands:
        try:
            argv = repro_argv(command)
        except ValueError as exc:  # unbalanced quotes etc.
            errors.append("%s:%d: unparsable shell: %s" % (path, lineno, exc))
            continue
        ok, why = parses(argv)
        if not ok:
            errors.append("%s:%d: %r — %s" % (path, lineno, command, why))
    return len(commands), errors


def span_commands(path: str) -> List[Tuple[int, str]]:
    """Every inline code span starting with ``repro `` outside fences.

    Spans may wrap across lines but not across paragraphs.  Returns
    ``(lineno, span)`` pairs, the span's whitespace collapsed.
    """
    with open(path, encoding="utf-8") as fileobj:
        raw = fileobj.read().splitlines()
    paragraphs: List[Tuple[int, List[str]]] = [(1, [])]
    in_fence = False
    for lineno, line in enumerate(raw, start=1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
        elif not in_fence and line.strip():
            paragraphs[-1][1].append(line)
            continue
        paragraphs.append((lineno + 1, []))
    spans: List[Tuple[int, str]] = []
    for first_line, lines in paragraphs:
        text = "\n".join(lines)
        for match in _CODE_SPAN.finditer(text):
            span = " ".join(match.group(2).split())
            if span.startswith("repro "):
                spans.append((first_line + text.count("\n", 0, match.start()), span))
    return spans


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """``{name: parser}`` of the subcommands under ``parser`` (or {})."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def span_error(span: str) -> str:
    """Why ``span`` names no real command or flag ("" when it is fine)."""
    from repro.cli import build_parser

    parser = build_parser()
    words = span.split()[1:]
    path = ["repro"]
    for word in words:
        if word.endswith(":"):
            return ""  # an error line: `repro <command>: <reason>`
        children = _subcommands(parser)
        if not children:
            break
        if word in ("…", "..."):
            return ""  # `repro …`: the command itself is elided
        if word not in children:
            return "unknown command %r" % " ".join(path + [word])
        parser = children[word]
        path.append(word)
    options = parser._option_string_actions
    for word in words:
        if word in _SHELL_OPERATORS:
            break
        flag = word.split("=", 1)[0]
        if flag.startswith("--") and len(flag) > 2 and flag not in options:
            return "%s has no option %s" % (" ".join(path), flag)
    return ""


def check_spans(path: str) -> Tuple[int, List[str]]:
    """(spans seen, errors) for the inline ``repro`` spans of one document."""
    errors: List[str] = []
    spans = span_commands(path)
    for lineno, span in spans:
        why = span_error(span)
        if why:
            errors.append("%s:%d: `%s` — %s" % (path, lineno, span, why))
    return len(spans), errors


def main(argv: List[str]) -> int:
    json_mode, args = split_json_flag(argv[1:])
    repo_root = os.path.abspath(
        args[0] if args else os.path.join(os.path.dirname(__file__), "..")
    )
    sys.path.insert(0, os.path.join(repo_root, "src"))
    total = 0
    report = Report("check-doc-commands")
    for name in DOCS:
        doc = os.path.join(repo_root, name)
        if not os.path.exists(doc):
            continue
        checks = [check_file] + ([check_spans] if name in SPAN_DOCS else [])
        for check in checks:
            seen, bad = check(doc)
            total += seen
            for error in bad:
                report.add_text(error)
    report.checked = total
    return report.emit(
        "doc commands ok (%d commands, %d documents)" % (total, len(DOCS)),
        json_mode=json_mode,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv))
