"""The one writer of whole-document artefacts.

A *document* — sidecar, heartbeat, ``.prom`` file, metrics snapshot,
profile, sweep manifest and results, span timeline, ring dump, lint
baseline — is read back whole: a reader must find the previous complete
version or the new one, never a prefix that still parses.  (The *append
logs*, pcaps and the JSONL trace, are written in place and read up to a
torn tail.)  ARCHITECTURE.md, "Outputs and failure", has the table.
"""

from __future__ import annotations

import glob
import os
from contextlib import contextmanager, suppress
from typing import IO, Iterator


@contextmanager
def atomic_output(path: str, mode: str = "w") -> Iterator[IO]:
    """Open a pid-unique temp beside ``path``; rename over it on clean exit.

    Whatever ends the body early — an error, Ctrl-C, SIGTERM — removes
    the temp and leaves ``path`` as it was (complete, or absent).  The
    temp's name ends in ``.tmp``, which no reader globs for.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, mode) as fileobj:
            yield fileobj
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename = path  # name the file the operator asked for
        raise


def remove_orphaned_temps(directory: str) -> None:
    """Remove what *killed* writers left under a directory the run owns.

    Called by the parent of a pool once its workers are gone.
    """
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.tmp"), recursive=True)):
        with suppress(OSError):
            os.remove(path)
