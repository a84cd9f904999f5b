"""A command imports what it runs: the read side never loads the simulator.

``repro.cli`` is a parser table plus a dispatcher (``repro.commands``
explains the families).  The rule the layering rests on is checked here
the only way an import rule can be: in a fresh interpreter per command,
by looking at ``sys.modules`` after ``main([...])`` has run.  Beside it,
every handler string of the table must resolve — a typo should fail
here, not when somebody dispatches the command.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.netstack.pcap import read_pcap, write_pcap
from tests.sweep.conftest import MICRO

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Packages no read-side command (``index``, ``analyze``, ``classify``)
#: may load: everything that generates traffic, and the planes built on
#: top of the read side.
WRITE_SIDE = ("workloads", "server", "simnet", "tls", "active", "sweep", "lint", "stream")
FORBIDDEN_MODULES = (
    "repro.telescope.darknet",
    "repro.obs.export",
    "http.server",
    # ``repro.pool`` imports its executor on the fan-out path only.
    "multiprocessing",
    "concurrent.futures.process",
)

_CHILD = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
json.dump({"status": status, "modules": sorted(sys.modules)}, sys.stdout)
"""


def _modules_after(argv):
    """``sys.modules`` of a fresh interpreter that ran ``main(argv)``."""
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(child.stdout)
    assert report["status"] == 0, child.stderr
    return report["modules"]


def _crossings(modules):
    return [
        name
        for name in modules
        if name in FORBIDDEN_MODULES
        or (name.startswith("repro.") and name.split(".")[1] in WRITE_SIDE)
    ]


@pytest.fixture(scope="module")
def tiny_pcap(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("boundary") / "tiny.pcap")
    assert main(["simulate", path, "--scale", "0.01", "--seed", "5"]) == 0
    return path


class TestReadSideBoundary:
    def test_cold_index_warm_analyze_and_classify_load_no_write_side(self, tiny_pcap):
        assert not os.path.exists(tiny_pcap + ".capidx")
        cold = _modules_after(["index", tiny_pcap, "--workers", "1"])
        assert os.path.exists(tiny_pcap + ".capidx")
        warm = _modules_after(
            ["analyze", tiny_pcap, "--tables", "1", "2", "3", "4", "rto", "lengths"]
        )
        classify = _modules_after(["classify", tiny_pcap])
        for modules in (cold, warm, classify):
            assert "repro.commands.capture" in modules
            assert _crossings(modules) == []

    def test_the_check_can_fail(self, tiny_pcap):
        # `live` is the read side plus the streaming plane: the same
        # probe must see it cross.
        modules = _modules_after(
            ["live", tiny_pcap, "--quiet", "--no-cache", "--interval", "0",
             "--exit-idle", "1"]
        )
        assert "repro.stream.live" in _crossings(modules)

    def test_stats_loads_neither_the_simulator_nor_the_capture_store(self, tmp_path):
        snapshot = tmp_path / "m.json"
        snapshot.write_text('{"timers": {"simulate": {"seconds": 1.0, "calls": 1}}}')
        modules = _modules_after(["stats", str(snapshot)])
        assert "repro.commands.observe" in modules
        # The tail primitives are all it takes from the streaming plane.
        assert _crossings(modules) == ["repro.stream", "repro.stream.tail"]
        assert not [m for m in modules if m.startswith("repro.capstore")]
        assert "multiprocessing" not in modules

    def test_a_shard_set_is_indexed_without_a_process_pool(self, tiny_pcap, tmp_path):
        records = read_pcap(tiny_pcap)
        shards = [str(tmp_path / ("tiny.pcap.shard%d" % k)) for k in range(2)]
        for k, path in enumerate(shards):
            write_pcap(path, records[k::2])
        for command in ("analyze", "index"):
            modules = _modules_after([command, *shards])
            assert "multiprocessing" not in modules
            assert _crossings(modules) == []

    def test_observability_readers_load_no_analyses(self, tiny_pcap, tmp_path):
        snapshot = tmp_path / "m.json"
        snapshot.write_text('{"timers": {"simulate": {"seconds": 1.0, "calls": 1}}}')
        source = tmp_path / "lintme"
        source.mkdir()
        (source / "a.py").write_text("x = 1\n")
        for argv in (["stats", str(snapshot)], ["lint", str(source)],
                     ["progress", tiny_pcap]):
            modules = _modules_after(argv)
            assert "repro.cli" in modules
            assert "repro.core.render" not in modules, argv

    def test_sweep_status_and_render_load_neither_runner_nor_simulator(self, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_text(
            json.dumps(
                {
                    "base": MICRO,
                    "axes": {"loss_rate": [0.0, 0.1], "attack_scale": [0.5, 1.0]},
                    "metrics": ["rows.total"],
                }
            )
        )
        outdir = str(tmp_path / "grid.sweep")
        assert main(["sweep", "run", str(spec), "--out", outdir, "--quiet"]) == 0
        for argv in (["sweep", "status", outdir], ["sweep", "render", outdir]):
            modules = _modules_after(argv)
            assert "repro.sweep.render" in modules
            crossings = [m for m in _crossings(modules) if m != "repro.sweep"]
            assert crossings == ["repro.sweep.render"]

    def test_build_parser_alone_imports_no_command_family(self):
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import build_parser; build_parser();"
                "print([m for m in sys.modules if m.startswith('repro.commands')])",
            ],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            check=True,
        )
        assert child.stdout.strip() == "[]"


_LAYERS_PY = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "e2e", "layers.py"
)
_TRACED_CHILD = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
import repro.cli  # what benchmarks/e2e/stages.py imports before wrapping
tracer = layers.install(sys.argv[2])
tracer.start()
with contextlib.redirect_stdout(io.StringIO()):
    status = repro.cli.main(sys.argv[3:])
tracer.finish()
report = tracer.report()
json.dump({"status": status, "missing": report["layers_missing"],
           "calls": {k: v["calls"] for k, v in report["layers"].items()}}, sys.stdout)
"""


class TestOutsideInTracerStillSeesTheHandlers:
    """The e2e benchmark wraps entry points *before* ``main`` dispatches.

    A handler module imported on dispatch must pick the wrapped functions
    up from the modules that define them — else a layer silently reports
    zero calls and its time lands in the stage root.
    """

    def _traced(self, stage, argv):
        child = subprocess.run(
            [sys.executable, "-c", _TRACED_CHILD, _LAYERS_PY, stage, *argv],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            check=True,
        )
        report = json.loads(child.stdout)
        assert report["status"] == 0 and report["missing"] == []
        return report["calls"]

    def test_index_then_analyze_book_their_layers(self, tmp_path, tiny_pcap):
        pcap = str(tmp_path / "traced.pcap")
        with open(tiny_pcap, "rb") as src, open(pcap, "wb") as dst:
            dst.write(src.read())
        idx = self._traced("idx", ["index", pcap])
        assert idx["capstore.cache"] == 1
        assert idx["capstore.build"] == 1
        assert idx["capstore.format.dump"] == 1
        ana = self._traced(
            "ana", ["analyze", pcap, "--tables", "1", "2", "3", "4", "rto", "lengths"]
        )
        assert ana["cli.render"] == 1
        assert ana["capstore.cache"] == 1
        assert ana["capstore.format.load"] == 1
        # The render is one fold over the columns: the batch entry points
        # and the row materialisers still resolve (``missing == []`` above)
        # but are no longer on the path of ``analyze``.
        off_path = [name for name in ana if name.startswith("core.")]
        assert len(off_path) == 7
        for name in off_path + ["capstore.table.materialize"]:
            assert ana[name] == 0, name


def _leaf_parsers(parser, path=()):
    """``(command words, parser)`` for every parser without subcommands."""
    nested = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not nested:
        yield " ".join(path), parser
    for action in nested:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


_LEAVES = dict(_leaf_parsers(build_parser()))


class TestParserTable:
    def test_every_documented_command_is_a_row(self):
        assert sorted(_LEAVES) == sorted(
            ["simulate", "classify", "analyze", "live", "index", "probe", "stats",
             "trace summarize", "trace merge", "trace tail", "progress",
             "sweep run", "sweep status", "sweep render", "lint", "top"]
        )

    @pytest.mark.parametrize("command", sorted(_LEAVES))
    def test_handler_string_resolves_to_a_callable(self, command):
        handler = _LEAVES[command].get_default("handler")
        module_name, _, function = handler.partition(":")
        assert module_name.startswith("repro.commands.")
        assert callable(getattr(importlib.import_module(module_name), function))
        assert _LEAVES[command].get_default("prog") == "repro " + command

    def test_render_analysis_is_the_object_analyze_calls(self):
        # benchmarks/e2e wraps `repro.cli:render_analysis` from outside;
        # the handler module must hold the very same function.
        import repro.cli
        import repro.commands.capture
        import repro.commands.live
        import repro.core.render

        assert repro.cli.render_analysis is repro.core.render.render_analysis
        assert repro.commands.capture.render_analysis is repro.cli.render_analysis
        assert repro.commands.live.render_analysis is repro.cli.render_analysis
