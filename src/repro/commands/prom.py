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

    Given a ``loop``, the file writer ticks on its *simulated* clock
    (``--prom-interval`` sim-seconds) so snapshots land at deterministic
    points of the run; a command without one calls :meth:`write` when it
    has news.  The HTTP endpoint serves the live registry from a daemon
    thread.  With neither flag given, every method is a no-op.
    """

    def __init__(self, args: argparse.Namespace, obs: Observability, loop=None):
        self._writer = (
            PromFileWriter(obs.metrics, args.prom_file) if args.prom_file else None
        )
        if self._writer is not None and loop is not None:
            loop.schedule_periodic(args.prom_interval, self._writer.write)
        self._server = None
        if args.prom_port is not None:
            self._server = start_http_exporter(obs.metrics, port=args.prom_port)
            print("Serving live metrics at %s" % self._server.url)

    def write(self) -> None:
        if self._writer is not None:
            self._writer.write()

    def stop(self) -> None:
        self.write()  # final state, even if the loop never ticked
        if self._server is not None:
            self._server.close()
