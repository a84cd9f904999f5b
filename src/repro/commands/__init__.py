"""The handlers behind ``repro <command>``, one module per command family.

``repro.cli`` declares every command's arguments and names its handler
as a ``"module:function"`` string; ``repro.cli.main`` imports the one
module the parsed command names.  A module's top-of-file imports are
therefore exactly what its family runs:

* ``simulate`` — ``simulate``, ``probe`` (the write side: scenario
  builder, servers, event loop, shard runner, active prober);
* ``capture`` — ``classify``, ``index`` (the read side:
  ``repro.capstore``, nothing that generates traffic and no analysis);
* ``analyze`` — ``analyze`` (``capture``'s helpers plus the
  ``repro.core`` analyses);
* ``live`` — ``live`` (``capture``'s helpers plus ``repro.stream``);
* ``observe`` — ``stats``, ``trace``, ``progress`` (the files a run's
  observability writes);
* ``sweep`` — ``sweep run|status|render``;
* ``lint`` — ``lint``.

``common`` holds what several families share (the ``Observability``
bundle behind the ``--trace``/``--metrics``/``--profile`` flags, the
follow loop); ``prom`` the ``--prom-file``/``--prom-port`` publishers,
apart so that only commands which have those flags load ``http.server``.
"""
