"""The error a command answers in one line instead of a traceback."""


class InputFileError(ValueError):
    """A file a command was pointed at is not what it has to be.

    Base of :class:`repro.netstack.pcap.PcapError` and
    :class:`repro.capstore.format.CapIndexError`.  Raised where the path
    is known, the message starts with it (``<path>: <reason>``), which
    is what ``repro.cli.main`` prints after ``repro <command>:`` before
    exiting 2 — as it does for an ``OSError`` that names a file.
    """
