"""Command-line interface: ``python -m repro <command>``.

A parser table and a dispatcher.  :func:`build_parser` declares every
command — its arguments, the shared flags it inherits, and its handler
as a ``"module:function"`` string — and :func:`main` imports the one
module the parsed command names (``repro.commands`` explains the
families), so ``repro analyze`` never loads the simulator and ``repro
lint`` never loads the dissector.  ``main`` builds the arguments of the
one command ``argv`` names (of the whole family for ``trace`` and
``sweep``) and declares the others by name and help only, so usage and
error lines still list every command; no arguments, ``-h`` or an
unknown command get the full table.  README § CLI lists what each
command does; ``repro <command> --help`` is the reference for its flags.

``main`` is also the one error boundary: every failure — a file that is
missing, unreadable or not what it has to be, flags that contradict each
other, a dead worker, SIGTERM — answers ``repro <command>: <reason>`` on
stderr and exits 2 (:mod:`repro.errors`).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import signal
import sys

from repro.core.selectors import VALID_TABLES
from repro.errors import CommandError, Terminated


def __getattr__(name: str):
    """``repro.cli.render_analysis``, loaded only when somebody asks for it.

    What ``repro analyze`` prints; benches and the end-to-end benchmark
    reach it here, and ``import repro.cli`` must not load the analyses.
    """
    if name == "render_analysis":
        from repro.core.render import render_analysis

        return render_analysis
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# ---------------------------------------------------------------------------
# Argument types and the flags commands share
# ---------------------------------------------------------------------------


def _positive_int(value: str) -> int:
    """Every ``--workers``: an integer >= 1."""
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % value)
    return number


def _workers_or_auto(value: str):
    """``simulate --workers`` also accepts the literal ``auto``.

    ``auto`` is resolved against the scenario config by
    :func:`repro.simnet.shard.resolve_workers` once the config is built
    (the planned shard count depends on scale).
    """
    return value if value == "auto" else _positive_int(value)


def _observability_flags() -> dict[str, argparse.ArgumentParser]:
    """The nine observability flags, each declared once, as parent parsers.

    ``"obs"``: the seven tracing / metrics / profiling flags;
    ``"obs_prom"``: the same plus the two Prometheus publishers.  A
    command inherits one of the two or neither.
    """
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument(
        "--trace",
        metavar="FILE",
        help="write a qlog-style JSONL event trace to FILE",
    )
    obs.add_argument(
        "--trace-sample",
        type=int,
        default=0,
        metavar="N",
        help="keep every Nth event per type (rare lifecycle/security events "
        "always kept); deterministic, cheap enough to leave on",
    )
    obs.add_argument(
        "--trace-ring",
        type=int,
        default=0,
        metavar="K",
        help="flight-recorder mode: keep the last K events in memory and "
        "dump them to the --trace file on exit (or crash)",
    )
    obs.add_argument(
        "--trace-ring-signal",
        action="store_true",
        help="with --trace-ring: also dump the ring to the --trace file on "
        "SIGUSR1, so long runs can be inspected mid-flight (this process "
        "only, not its workers; no-op on platforms without SIGUSR1)",
    )
    obs.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a metrics snapshot (counters/histograms/timers) to FILE",
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="time each pipeline stage (the --metrics stage timers; the run "
        "executes the same code) and print a stage table on exit",
    )
    obs.add_argument(
        "--speedscope",
        metavar="FILE",
        help="with --profile: write the stage tree as speedscope JSON "
        "(simulate defaults to <output>.speedscope.json)",
    )
    obs_prom = argparse.ArgumentParser(add_help=False, parents=[obs])
    obs_prom.add_argument(
        "--prom-file",
        metavar="PATH",
        help="atomically rewrite PATH in Prometheus text format as the "
        "command progresses and once more at exit (node_exporter textfile "
        "collector)",
    )
    obs_prom.add_argument(
        "--prom-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live /metrics on PORT while the command runs (0 = ephemeral)",
    )
    return {"obs": obs, "obs_prom": obs_prom}


# ---------------------------------------------------------------------------
# The parser table
# ---------------------------------------------------------------------------


def _arg(*flags, **options):
    """One ``add_argument`` call of a command's own, as data."""
    return flags, options


class _Commands:
    """One level of the command table: ``repro <name>`` or ``repro trace <name>``.

    Every command of the level is declared by name and help, so usage and
    error lines list them all.  Only ``command`` — every command when it
    is ``None`` — gets its arguments, inherited flags and handler.
    """

    def __init__(self, subparsers, command, flags) -> None:
        #: ``None`` under a family declared bare: nothing below it is declared.
        self._subparsers = subparsers
        self._command = command
        #: The observability parents, built on first use.
        self._flags = flags

    def _builds(self, name: str) -> bool:
        return self._command in (None, name)

    def add(self, name, handler, arguments, inherit=None, **options):
        """Declare one command: its own arguments, inherited flags, handler.

        argparse lists what a parser inherits *before* what is added to
        it, so a command's own arguments travel through a parent too,
        ahead of the shared one: ``--help`` keeps them on top.
        """
        if self._subparsers is None:
            return
        if not self._builds(name):
            self._subparsers.add_parser(name, **options)
            return
        own = argparse.ArgumentParser(add_help=False)
        for flags, argument_options in arguments:
            own.add_argument(*flags, **argument_options)
        parents = [own] if inherit is None else [own, self._flags()[inherit]]
        parser = self._subparsers.add_parser(name, parents=parents, **options)
        # prog is the full "repro sweep run": what an error line starts with.
        parser.set_defaults(handler=handler, prog=parser.prog)

    def family(self, name, dest, **options) -> "_Commands":
        """Declare a command with subcommands (``trace``, ``sweep``): all of
        them are built when the family is."""
        parser = self._subparsers.add_parser(name, **options)
        if not self._builds(name):
            return _Commands(None, None, self._flags)
        subparsers = parser.add_subparsers(dest=dest, required=True)
        return _Commands(subparsers, None, self._flags)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``repro``: every command, or the one ``argv`` names.

    With ``command`` (``argv[0]``), only that command — for ``trace`` and
    ``sweep`` the whole family — gets its arguments; the others are
    declared by name and help.  A ``command`` that is no command's name
    (``-h``, a typo) gets the full table, like no ``command`` at all.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Passive measurement toolchain for QUIC deployments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    top = _Commands(sub, command, functools.cache(_observability_flags))
    tables = " ".join(VALID_TABLES)
    no_cache = _arg(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the .capidx sidecar index",
    )

    top.add(
        "simulate",
        "repro.commands.simulate:cmd_simulate",
        help="simulate a month, write pcap",
        inherit="obs_prom",
        arguments=[
            _arg("output", help="pcap file to write"),
            _arg("--year", type=int, choices=(2021, 2022), default=2022),
            _arg("--scale", type=float, default=0.25),
            _arg("--seed", type=int, default=20220101),
            _arg(
                "--workers",
                type=_workers_or_auto,
                default=1,
                metavar="N|auto",
                help="shard the scenario across N worker processes and merge the "
                "captures into one time-ordered pcap (1 = serial; the merged "
                "output is identical for any N at the same seed and scale); "
                "'auto' resolves to min(cpu count, planned shards) and falls "
                "back to serial on 1-CPU boxes",
            ),
        ],
    )
    top.add(
        "classify",
        "repro.commands.capture:cmd_classify",
        help="sanitize a pcap, print stats",
        inherit="obs",
        arguments=[
            _arg("pcap"),
            _arg(
                "--json",
                action="store_true",
                help="emit machine-readable stats (includes the metrics snapshot)",
            ),
            no_cache,
        ],
    )
    top.add(
        "analyze",
        "repro.commands.analyze:cmd_analyze",
        help="reproduce tables from a pcap",
        inherit="obs",
        arguments=[
            _arg("pcap", help="capture to analyze"),
            _arg(
                "--tables",
                nargs="*",
                metavar="NAME",
                help="which outputs to print: %s (default: 1 2 3 4); unknown "
                "names abort before the pcap is read" % tables,
            ),
            no_cache,
        ],
    )
    top.add(
        "live",
        "repro.commands.live:cmd_live",
        help="follow a growing capture: online analyses, live dashboard, "
        "Prometheus gauges, batch-identical final render",
        inherit="obs_prom",
        arguments=[
            _arg("pcap", help="capture to follow"),
            _arg(
                "--interval",
                type=float,
                default=1.0,
                metavar="SECONDS",
                help="seconds between polls of the capture file (default: 1)",
            ),
            _arg(
                "--exit-idle",
                type=int,
                default=3,
                metavar="N",
                help="stop once N consecutive polls saw no new records, then print "
                "the final batch analysis (default: 3; 0 = follow until Ctrl-C)",
            ),
            _arg(
                "--tables",
                nargs="*",
                metavar="NAME",
                help="which outputs the final render prints: %s (default: 1 2 3 4)"
                % tables,
            ),
            _arg(
                "--no-cache",
                action="store_true",
                help="do not seed from or persist the .capidx sidecar index",
            ),
            _arg(
                "--quiet",
                action="store_true",
                help="skip the per-poll dashboard; print only the final analysis",
            ),
        ],
    )
    top.add(
        "index",
        "repro.commands.capture:cmd_index",
        help="prebuild or inspect the .capidx analysis index",
        inherit="obs",
        arguments=[
            _arg("pcap", help="pcap to index"),
            _arg(
                "--info",
                action="store_true",
                help="check and describe the existing index instead of building",
            ),
            _arg(
                "--force",
                action="store_true",
                help="rebuild even when a valid index exists",
            ),
        ],
    )
    top.add(
        "probe",
        "repro.commands.simulate:cmd_probe",
        help="run active experiments against a lab",
        inherit="obs_prom",
        arguments=[
            _arg("experiment", choices=("enumerate", "lb-type", "migration")),
            _arg("--hosts", type=int, default=12),
            _arg("--handshakes", type=int, default=500),
            _arg("--seed", type=int, default=7),
        ],
    )
    top.add(
        "stats",
        "repro.commands.observe:cmd_stats",
        help="pretty-print a --metrics snapshot, or diff two",
        arguments=[
            _arg("metrics_file", nargs="?", help="metrics JSON written by --metrics"),
            _arg(
                "--diff",
                nargs=2,
                metavar=("A.json", "B.json"),
                help="print per-metric deltas (and %% change) between two snapshots",
            ),
        ],
    )

    trace = top.family(
        "trace", "trace_command", help="inspect qlog-style JSONL traces"
    )
    trace.add(
        "summarize",
        "repro.commands.observe:cmd_trace_summarize",
        help="per-category counts and top event names",
        arguments=[
            _arg("trace_file", help="JSONL trace written by --trace"),
            _arg("--top", type=int, default=15, help="how many event types to list"),
        ],
    )
    trace.add(
        "merge",
        "repro.commands.observe:cmd_trace_merge",
        help="k-way-merge per-worker span streams into one canonical "
        "timeline (byte-identical for any worker count)",
        arguments=[
            _arg("output", help="merged span timeline to write (JSONL)"),
            _arg("inputs", nargs="+", help="per-worker traces (FILE.worker<k>)"),
        ],
    )
    trace.add(
        "tail",
        "repro.commands.observe:cmd_trace_tail",
        help="follow a growing JSONL trace (tail -f with torn-line safety)",
        arguments=[
            _arg("trace_file", help="JSONL trace being written by --trace"),
            _arg(
                "--interval",
                type=float,
                default=0.5,
                metavar="SECONDS",
                help="seconds between polls (default: 0.5)",
            ),
            _arg(
                "--exit-idle",
                type=int,
                default=0,
                metavar="N",
                help="stop after N polls without new events (0 = until Ctrl-C)",
            ),
            _arg(
                "--raw",
                action="store_true",
                help="print events as compact JSON instead of formatted lines",
            ),
        ],
    )

    top.add(
        "progress",
        "repro.commands.observe:cmd_progress",
        help="render the heartbeat table of a simulate or sweep run",
        arguments=[
            _arg(  # what resolve_progress_dir accepts
                "target",
                help="a progress directory, a simulate output path (heartbeats "
                "in <output>.progress/) or a sweep output directory "
                "(<outdir>/progress/)",
            ),
            _arg(
                "--follow",
                action="store_true",
                help="reprint until every worker reports done",
            ),
            _arg(
                "--interval",
                type=float,
                default=2.0,
                metavar="SECONDS",
                help="seconds between refreshes in follow mode (default: 2)",
            ),
        ],
    )

    sweep = top.family(
        "sweep", "sweep_command", help="deterministic parameter-grid experiments"
    )
    sweep.add(
        "run",
        "repro.commands.sweep:cmd_sweep_run",
        help="expand a grid spec into cells, simulate each at most once, "
        "write manifest + heatmap-ready long-form CSV/JSON",
        inherit="obs_prom",
        arguments=[
            _arg("spec", help="grid spec file (JSON; TOML on Python >= 3.11)"),
            _arg(
                "--out",
                metavar="DIR",
                help="sweep output directory (default: spec path with the "
                "extension replaced by .sweep)",
            ),
            _arg(
                "--workers",
                type=_positive_int,
                default=1,
                metavar="N",
                help="fan cells across N worker processes (results byte-identical "
                "for any N; each cell simulates in-process)",
            ),
            _arg(
                "--force",
                action="store_true",
                help="re-simulate every cell, ignoring cached captures",
            ),
            _arg(
                "--quiet",
                action="store_true",
                help="skip the per-cell progress lines",
            ),
        ],
    )
    sweep.add(
        "status",
        "repro.commands.sweep:cmd_sweep_status",
        help="per-cell state of a sweep directory (live heartbeats while "
        "cells are pending)",
        arguments=[_arg("outdir", help="sweep output directory")],
    )
    sweep.add(
        "render",
        "repro.commands.sweep:cmd_sweep_render",
        help="terminal heatmap of one metric over two axes (+ CSV export)",
        arguments=[
            _arg("outdir", help="sweep output directory"),
            _arg(
                "--metric",
                metavar="NAME",
                help="metric to render (default: the spec's first metric)",
            ),
            _arg("--x", metavar="AXIS", help="column axis (default: the last axis)"),
            _arg("--y", metavar="AXIS", help="row axis (default: the first axis)"),
            _arg(
                "--fix",
                action="append",
                metavar="AXIS=VALUE",
                help="pin an extra axis to one value (repeatable); unfixed extra "
                "axes are mean-aggregated with a note",
            ),
            _arg(
                "--csv",
                metavar="FILE",
                help="also write the pivoted grid as CSV to FILE",
            ),
        ],
    )

    top.add(
        "lint",
        "repro.commands.lint:cmd_lint",
        help="static determinism/invariant analysis over Python sources",
        arguments=[
            _arg(
                "paths",
                nargs="*",
                help="files or directories to lint (default: src)",
            ),
            _arg(
                "--json",
                action="store_true",
                help="emit the machine-readable report (same shape as the tools/ "
                "checkers' --json output)",
            ),
            _arg(
                "--baseline",
                metavar="FILE",
                default="lint_baseline.json",
                help="baseline of grandfathered findings (default: "
                "lint_baseline.json; a missing file is an empty baseline)",
            ),
            _arg(
                "--update-baseline",
                action="store_true",
                help="rewrite the baseline file from the current findings and exit 0",
            ),
            _arg(
                "--show-baselined",
                action="store_true",
                help="also list baselined findings (they never fail the run)",
            ),
            _arg(
                "--rules",
                action="store_true",
                help="list the rule pack and exit",
            ),
        ],
    )
    if command is not None and command not in sub.choices:
        return build_parser()
    return parser


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _raise_terminated(_signum, _frame):
    Terminated.pending = True
    Terminated.check()


def _quiet_terminated(report, unraisable):
    """The handler's raise landed in a finalizer and Python dropped it: it
    is pending (:meth:`Terminated.check` raises it again), not news."""
    if not isinstance(unraisable.exc_value, Terminated):
        report(unraisable)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    module, _, function = args.handler.partition(":")
    handler = getattr(importlib.import_module(module), function)
    try:
        # SIGTERM unwinds like Ctrl-C does: temp files go, workers are killed.
        previous = signal.signal(signal.SIGTERM, _raise_terminated)
    except ValueError:  # not the main thread: the embedding program's business
        previous = None
    report_unraisable = sys.unraisablehook
    if previous is not None:
        sys.unraisablehook = functools.partial(_quiet_terminated, report_unraisable)
    try:
        status = handler(args)
        Terminated.check()
        sys.stdout.flush()  # a reader that left must fail here, not at exit
        return status
    except BrokenPipeError:
        # `repro analyze x.pcap | head`: nobody is listening any more.
        # Pointing stdout at devnull keeps the interpreter's own flush at
        # exit from complaining about the same pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        if exc.filename is None:
            raise
        reason = "%s: %s" % (exc.filename, exc.strerror)
    except (CommandError, Terminated) as exc:
        reason = str(exc)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
            sys.unraisablehook = report_unraisable
        Terminated.pending = False
    print("%s: %s" % (args.prog, reason), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
