"""The ``--prom-file`` / ``--prom-port`` publishers of one command run."""

from __future__ import annotations

import argparse

from repro.obs import Observability
from repro.obs.export import PromFileWriter, start_http_exporter


def wants_prom(args: argparse.Namespace) -> bool:
    """Was a publisher asked for?  (Either needs a metrics registry.)"""
    return bool(args.prom_file or args.prom_port is not None)


class PromPublishers:
    """Start the requested Prometheus publishers; :meth:`stop` ends them.

    The file writer rewrites ``--prom-file`` whenever the command calls
    :meth:`write`: a serial ``simulate`` on each heartbeat write, ``live``
    on each poll, ``sweep run`` after each finished cell, and every
    command once more at :meth:`stop`.  The HTTP endpoint serves the live
    registry from a daemon thread.  With neither flag given, every method
    is a no-op.
    """

    def __init__(self, args: argparse.Namespace, obs: Observability):
        self._writer = (
            PromFileWriter(obs.metrics, args.prom_file) if args.prom_file else None
        )
        self._server = None
        if args.prom_port is not None:
            self._server = start_http_exporter(obs.metrics, port=args.prom_port)
            print("Serving live metrics at %s" % self._server.url)

    def write(self) -> None:
        if self._writer is not None:
            self._writer.write()

    def stop(self) -> None:
        self.write()  # the final state
        if self._server is not None:
            self._server.close()
