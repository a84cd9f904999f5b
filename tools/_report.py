"""Shared finding/exit-code helper for the ``tools/`` checkers.

Every checker in this directory (``check_md_links.py``,
``check_doc_commands.py``, ``check_speedscope.py``,
``check_bench_json.py``, ``check_paper.py``, ``check_memory.py``)
reports the same way: problems to stderr, a one-line all-clear to
stdout, exit status = problem count.  This module centralizes that contract and adds a
``--json`` mode whose document shape matches the ``repro lint``
reporter (:mod:`repro.lint.report`), so CI and editors can consume
every correctness gate with one parser::

    {
      "tool": "check-md-links",
      "checked": 6,                 # units examined (documents, files…)
      "findings": [ {"path", "line", "message"}, ... ],
      "ok": false
    }

Checkers keep their existing ``"path:line: message"`` strings — the
:meth:`Report.add_text` parser lifts the location back out for the JSON
document — so their importable ``check_file`` APIs are unchanged.
"""

from __future__ import annotations

import json
import re
import sys
from typing import List, Optional

#: ``path:line: message`` — the location prefix the checkers emit.
_LOCATED = re.compile(r"^(?P<path>[^:\n]+):(?P<line>\d+): (?P<message>.*)$", re.S)


class Report:
    """Findings accumulator with text and JSON rendering."""

    def __init__(self, tool: str) -> None:
        self.tool = tool
        self.findings: List[dict] = []
        self.checked = 0

    def add(
        self,
        message: str,
        path: Optional[str] = None,
        line: Optional[int] = None,
    ) -> None:
        finding = {"message": message}
        if path is not None:
            finding["path"] = path
        if line is not None:
            finding["line"] = line
        self.findings.append(finding)

    def add_text(self, error: str) -> None:
        """Add a preformatted ``path:line: message`` (or bare) string."""
        match = _LOCATED.match(error)
        if match:
            self.add(
                match.group("message"),
                path=match.group("path"),
                line=int(match.group("line")),
            )
        else:
            self.add(error)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render_finding(self, finding: dict) -> str:
        if "path" in finding and "line" in finding:
            return "%s:%d: %s" % (
                finding["path"],
                finding["line"],
                finding["message"],
            )
        if "path" in finding:
            return "%s: %s" % (finding["path"], finding["message"])
        return finding["message"]

    def emit(self, ok_text: str, json_mode: bool = False) -> int:
        """Print the report; returns the finding count (the exit code)."""
        if json_mode:
            doc = {
                "tool": self.tool,
                "checked": self.checked,
                "findings": self.findings,
                "ok": self.ok,
            }
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for finding in self.findings:
                print(self.render_finding(finding), file=sys.stderr)
            if self.ok:
                print(ok_text)
        return len(self.findings)


def split_json_flag(argv: List[str]) -> tuple:
    """Pop ``--json`` out of an argv list: ``(json_mode, rest)``."""
    rest = [arg for arg in argv if arg != "--json"]
    return len(rest) != len(argv), rest
