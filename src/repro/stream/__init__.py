"""Streaming analysis plane: watch a measurement while it runs.

The batch plane (``repro.capstore`` → ``repro analyze``) dissects a
finished pcap once and renders the paper's tables.  This package drops
the "finished" assumption with two pieces and no analysis code of its
own.  ``live`` is a *follower*: it polls a growing capture, dissects
only newly completed records, and appends into the same columnar
:class:`~repro.capstore.CaptureTable` a batch pass would build.
``reducers`` is a *reader*: :class:`StreamAnalyses` hands each appended
row range to the :class:`~repro.core.render.CaptureFold` that ``repro
analyze`` renders from (version mix, packet mix, SCID structure, off-net
servers — the very accumulators the batch functions fold a whole capture
into), counts rows and the capture span off the columns, and publishes
the numbers as ``stream.*`` gauges of a :class:`~repro.obs.MetricsRegistry`
so ``--prom-file`` / ``--prom-port`` export them in flight.  ``tail``
holds the follow-a-file primitive for JSONL traces.

Because the follower appends into a real ``CaptureTable``, a live run
that reaches the end of its input holds *exactly* the table a batch run
would have built — so the final ``repro live`` render is byte-for-byte
the ``repro analyze`` output.
"""
