"""Tracer arithmetic on synthetic nested, recursive and generator code."""

import sys
import time
import types

import pytest

import layers


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def synthetic():
    """A throwaway two-module "program" with nested/recursive/generator code."""
    core = types.ModuleType("e2esyn.core")
    user = types.ModuleType("e2esyn.user")
    package = types.ModuleType("e2esyn")
    exec(
        "def leaf(busy):\n"
        "    busy(0.004)\n"
        "def middle(busy):\n"
        "    busy(0.003)\n"
        "    leaf(busy)\n"
        "    leaf(busy)\n"
        "def helper(busy):\n"          # same layer as middle: one span
        "    middle(busy)\n"
        "def fib(n, busy):\n"
        "    busy(0.0002)\n"
        "    return n if n < 2 else fib(n - 1, busy) + fib(n - 2, busy)\n"
        "def numbers(n, busy):\n"
        "    for i in range(n):\n"
        "        busy(0.001)\n"
        "        yield i\n"
        "class Loop:\n"
        "    def __init__(self):\n"
        "        self.queue = []\n"
        "    def schedule(self, delay, callback):\n"
        "        self.queue.append(callback)\n"
        "    def schedule_at(self, when, callback):\n"
        "        return self.schedule(when, callback)\n"
        "    def run(self):\n"
        "        while self.queue:\n"
        "            self.queue.pop(0)()\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n",
        core.__dict__,
    )
    # `from e2esyn.core import leaf, middle` in another module of the program.
    user.leaf = core.leaf
    user.middle = core.middle
    exec("def tick(busy):\n    busy(0.002)\n    leaf(busy)\n", user.__dict__)
    modules = {"e2esyn": package, "e2esyn.core": core, "e2esyn.user": user}
    sys.modules.update(modules)
    yield core, user
    for name in modules:
        del sys.modules[name]


LAYERS = {
    "leaf": ("e2esyn.core:leaf",),
    "middle": ("e2esyn.core:middle", "e2esyn.core:helper"),
    "fib": ("e2esyn.core:fib",),
    "numbers": ("e2esyn.core:numbers",),
    "loop": ("e2esyn.core:Loop.run", "e2esyn.core:Loop.make"),
    "events": (),
}
EVENTS = (("e2esyn.user", "events"),)
SCHEDULERS = ("e2esyn.core:Loop.schedule", "e2esyn.core:Loop.schedule_at")


def _install():
    return layers.install("syn", layers=LAYERS, event_layers=EVENTS,
                          schedulers=SCHEDULERS)


def _rows(tracer):
    return tracer.report()["layers"]


def test_self_times_sum_to_root(synthetic):
    core, user = synthetic
    tracer = _install()
    tracer.start()
    _busy(0.005)                      # root's own self time
    core.helper(_busy)                # helper -> middle -> leaf x2
    assert core.fib(6, _busy) == 8
    assert list(core.numbers(5, _busy)) == [0, 1, 2, 3, 4]
    root_s = tracer.finish()
    rows = _rows(tracer)
    total = sum(row["self_s"] for row in rows.values())
    assert abs(total - root_s) <= 0.01 * root_s
    assert rows["leaf"]["calls"] == 2
    assert rows["leaf"]["self_s"] == pytest.approx(0.008, rel=0.25)
    assert rows["middle"]["self_s"] == pytest.approx(0.003, rel=0.3)
    assert rows[layers.ROOT]["self_s"] == pytest.approx(0.005, rel=0.3)


def test_same_layer_delegation_and_recursion_are_one_span(synthetic):
    core, _user = synthetic
    tracer = _install()
    tracer.start()
    core.helper(_busy)
    core.fib(5, _busy)
    tracer.finish()
    rows = _rows(tracer)
    assert rows["middle"]["calls"] == 1   # helper -> middle, same layer
    assert rows["fib"]["calls"] == 1      # the recursion nests in its layer
    assert rows["fib"]["self_s"] >= 15 * 0.0002


def test_generator_is_timed_per_next(synthetic):
    core, _user = synthetic
    tracer = _install()
    tracer.start()
    iterator = core.numbers(3, _busy)
    _busy(0.004)                          # between resumptions: root's time
    assert list(iterator) == [0, 1, 2]
    tracer.finish()
    rows = _rows(tracer)
    assert rows["numbers"]["calls"] == 4  # three items + the StopIteration
    assert rows["numbers"]["self_s"] == pytest.approx(0.003, rel=0.3)
    assert rows[layers.ROOT]["self_s"] >= 0.004


def test_from_imports_are_replaced_and_never_double_wrapped(synthetic):
    core, user = synthetic
    first = _install()
    assert user.leaf is core.leaf         # the copied reference was swapped too
    assert core.leaf.__e2e_layer__ == "leaf"
    wrapped_once = core.leaf
    _install()                            # a second install wraps nothing twice
    assert core.leaf is wrapped_once
    first.start()
    user.tick(_busy)                      # unwrapped caller -> wrapped leaf
    first.finish()
    assert _rows(first)["leaf"]["calls"] == 1


def test_classmethod_and_event_callbacks(synthetic):
    core, user = synthetic
    tracer = _install()
    loop = core.Loop.make()               # classmethod still binds the class
    assert isinstance(loop, core.Loop)
    loop.schedule_at(1.0, lambda: user.tick(_busy))   # defined here: untimed
    loop.schedule_at(2.0, types.FunctionType(
        (lambda: None).__code__, user.__dict__))      # defined in e2esyn.user
    loop.schedule(3.0, types.MethodType(user.tick, _busy))
    tracer.start()
    loop.run()
    tracer.finish()
    rows = _rows(tracer)
    assert rows["loop"]["calls"] == 1
    # Two callbacks belong to e2esyn.user; schedule_at -> schedule wrapped once.
    assert rows["events"]["calls"] == 2
    assert rows["leaf"]["calls"] == 2


def test_unresolvable_wrap_point_is_null_not_a_crash(synthetic):
    core, _user = synthetic
    tracer = layers.install("syn", event_layers=(), layers={
        "leaf": ("e2esyn.core:leaf", "e2esyn.core:renamed_away"),
        "gone": ("e2esyn.core:Loop.vanished", "e2esyn.nowhere:f"),
    })
    tracer.start()
    core.leaf(_busy)
    tracer.finish()
    report = tracer.report()
    assert report["layers"]["gone"] is None
    assert report["layers"]["leaf"]["calls"] == 1   # partly resolved: still timed
    missing = {(m["layer"], m["point"]): m["layer_dead"] for m in report["layers_missing"]}
    assert missing == {
        ("leaf", "e2esyn.core:renamed_away"): False,
        ("gone", "e2esyn.core:Loop.vanished"): True,
        ("gone", "e2esyn.nowhere:f"): True,
    }


def test_every_real_wrap_point_resolves_today():
    """The layer table names the program as it is at this commit."""
    for stage, table in layers.STAGE_LAYERS.items():
        for points in table.values():
            for point in points:
                layers._resolve(point)
    for point in layers.EVENT_SCHEDULERS:
        layers._resolve(point)
