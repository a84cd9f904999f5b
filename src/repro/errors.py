"""The errors a command answers in one line instead of a traceback.

``repro.cli.main`` is the one boundary: ``repro <command>: <reason>`` on
stderr and exit 2 for every :class:`CommandError` — and for an ``OSError``
that names a file, so a loader may simply let ``open`` fail.  Nothing
under ``src/repro`` raises ``SystemExit``.
"""


class CommandError(Exception):
    """A command cannot do what it was asked; ``str()`` is the reason."""


class InputFileError(CommandError, ValueError):
    """A file a command was pointed at is not what it has to be.

    Base of ``PcapError``, ``CapIndexError``, ``SweepSpecError``,
    ``RenderError`` and ``BaselineError``.  Raised where the path is
    known, the message starts with it (``<path>: <reason>``).
    """


class UsageError(CommandError):
    """Flags that parse but contradict each other, or name nothing."""


class WorkerDied(CommandError):
    """A pool worker exited without answering (killed, out of memory)."""


class Terminated(BaseException):
    """SIGTERM, raised by ``main``'s handler so ``finally`` blocks run.

    A ``BaseException``, like ``KeyboardInterrupt``: the ``except
    Exception`` that keeps a sweep's sibling cells going must not eat it.
    Python drops a raise that lands in a finalizer (an import's
    module-lock callback, a weakref), so the handler also sets
    :attr:`pending`, and a loop that outlasts a finalizer calls
    :meth:`check` to unwind after all.
    """

    #: A SIGTERM arrived while ``main`` ran its command.
    pending = False

    @classmethod
    def check(cls) -> None:
        if cls.pending:
            raise cls("terminated (SIGTERM)")
