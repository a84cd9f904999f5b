"""Follow-a-file primitive for the streaming plane.

:class:`JsonlTail` follows an append-only JSONL stream (a ``--trace``
event log, one JSON object per line): byte-offset tailing with
partial-line buffering, so a poll that lands mid-line never yields a
torn record; a truncated file (log rotation, a fresh run reusing the
path) resets the cursor and keeps following.  It never raises on
filesystem races (file missing, shrunk, mid-write): the next poll simply
returns nothing, exactly like a ``tail -f`` that outlives its target.
"""

from __future__ import annotations

import json
import os
from typing import List


class JsonlTail:
    """Incremental reader of an append-only JSONL file.

    Each :meth:`poll` returns the complete JSON objects appended since
    the previous poll.  A trailing partial line — a writer caught
    mid-``write`` — is buffered and completed on a later poll, so
    records are never torn.  Lines that fail to parse (or parse to a
    non-object) are counted in :attr:`bad_lines` and skipped; a file
    that shrank is treated as rotated: the cursor resets to the start
    and :attr:`resets` increments.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.offset = 0
        self.bad_lines = 0
        self.resets = 0
        self._buffer = b""

    def poll(self) -> List[dict]:
        """New complete events since the last poll (empty on no change)."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []  # not created yet, or deleted: keep waiting
        if size < self.offset:
            self.offset = 0
            self._buffer = b""
            self.resets += 1
        if size == self.offset and not self._buffer:
            return []
        try:
            with open(self.path, "rb") as fileobj:
                fileobj.seek(self.offset)
                chunk = fileobj.read()
        except OSError:
            return []
        self.offset += len(chunk)
        lines = (self._buffer + chunk).split(b"\n")
        self._buffer = lines.pop()  # incomplete trailing line (often b"")
        events: List[dict] = []
        for line in lines:
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                self.bad_lines += 1
                continue
            if isinstance(doc, dict):
                events.append(doc)
            else:
                self.bad_lines += 1
        return events
