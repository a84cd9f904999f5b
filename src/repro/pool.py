"""The one supervised process pool: simulation shards and sweep cells.

Every payload gets a process and a pipe of its own, so a worker that is
killed (the OOM-killer does not ask) is end-of-file on *its* pipe — a
typed error, not ``multiprocessing.Pool``'s hang — and no queue or lock
is shared between workers for a kill to leave dirty.
"""

from __future__ import annotations

import signal
import traceback
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.errors import Terminated, WorkerDied


def _work(sender, target: Callable, payload) -> None:
    """Child entry: send ``(result, None, "")`` or ``(None, exception, traceback)``."""
    # A forked child inherits main's SIGTERM handler, and the mask its
    # start ran under; a worker just dies.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    try:
        answer = (target(payload), None, "")
    except Exception as exc:  # noqa: BLE001 - re-raised in the parent
        answer = (None, exc, traceback.format_exc())
    sender.send(answer)


def run_pool(
    target: Callable, payloads: Sequence, unit: str, workers: Optional[int] = None
) -> Iterator[Tuple[int, object]]:
    """``(payload index, target(payload))`` pairs, as they complete.

    At most ``workers`` processes at a time (default: one per payload); a
    lone payload runs in this process.  Fork where available, else spawn
    (``target`` is module-level: lint rule MP001).  An exception from
    ``target`` is re-raised here, the remote traceback its cause; a worker
    that dies raises :class:`WorkerDied` naming the ``unit`` (``"shard"``,
    ``"cell"``) it ran.  Whatever ends the iteration early
    kills the workers still running first: none outlives the caller's cleanup.
    """
    if len(payloads) == 1:
        yield 0, target(payloads[0])
        return
    import multiprocessing
    from multiprocessing.connection import wait

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    waiting = iter(enumerate(payloads))
    running = {}  # our end of a worker's pipe -> (payload index, process)
    try:
        while True:
            Terminated.check()  # start nothing more once SIGTERM has come
            room = (workers or len(payloads)) - len(running)
            for index, payload in islice(waiting, room):
                receiver, sender = ctx.Pipe(duplex=False)
                process = ctx.Process(target=_work, args=(sender, target, payload))
                # SIGTERM waits until the worker is in ``running``: raised
                # after the fork but before, it would leave a worker no one kills.
                try:
                    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
                    process.start()
                    running[receiver] = (index, process)
                finally:
                    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
                sender.close()  # the worker's copy is the only one: its death is EOF
            if not running:
                return
            for receiver in wait(list(running)):
                index, process = running[receiver]
                try:
                    result, error, remote_traceback = receiver.recv()
                except EOFError:
                    process.join()
                    raise WorkerDied(
                        "%s %d: its worker process died with status %s (killed, or "
                        "out of memory?)" % (unit, index, process.exitcode)
                    ) from None
                if error is not None:
                    raise error from RuntimeError("in the worker:\n" + remote_traceback)
                process.join()
                receiver.close()
                del running[receiver]
                yield index, result
    finally:
        for receiver, (_index, process) in running.items():
            process.kill()
            process.join()
            receiver.close()
