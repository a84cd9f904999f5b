"""Outside-in layer tracer for the end-to-end benchmark.

Nothing under ``src/`` knows about this file.  A traced stage child
(``stages.py --trace``) imports the program, calls :func:`install` to
wrap the public entry points of each layer *from here*, runs the very
entry the untraced child runs, and writes one aggregate per layer.

A span is (layer, start, end, parent).  Spans are not kept one by one —
a scale-0.5 ``simulate`` opens ~1M of them — but folded into per-layer
``self_s``/``calls`` as they close: self time = duration − time covered
by child spans.  Because every span's duration is charged to exactly one
parent, the self times of all layers plus the stage root's own self time
sum to the root's duration.

Wrap points are ``"module:function"`` or ``"module:Class.method"``
strings.  One that no longer resolves is reported in ``layers_missing``
and skipped; a layer none of whose points resolve reports ``None``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

#: Stage → layer → wrap points.  Layer names are the program's own module
#: names, so a number can be acted on by opening the file it names.
STAGE_LAYERS = {
    "sim": {
        "workloads.build": ("repro.workloads.scenario:build_scenario",),
        "workloads.clients": (
            "repro.workloads.clients:ClientConnection.initial_datagram",
        ),
        # workloads.events, simnet.network and server.engine also receive
        # the event-loop callbacks their modules define (EVENT_LAYERS).
        "workloads.events": (),
        "simnet.eventloop": ("repro.simnet.eventloop:EventLoop.run",),
        "simnet.network": ("repro.simnet.network:Network.transmit",),
        "server.lb": (
            "repro.server.lb.cluster:FrontendCluster.handle_datagram",
            "repro.server.lb.l4lb:L4LoadBalancer.forward",
            "repro.server.lb.l7lb:L7LbHost.handle",
            "repro.server.simple:SimpleQuicServer.handle_datagram",
        ),
        "server.engine": ("repro.server.engine:QuicServerEngine.on_datagram",),
        "quic.crypto.derive": ("repro.quic.crypto.initial:derive_initial_keys",),
        "quic.crypto.protect": (
            "repro.quic.crypto.suites:FastProtection.protect",
            "repro.quic.crypto.suites:PacketProtection.protect",
        ),
        "quic.packet.encode": (
            "repro.quic.packet:encode_packet",
            "repro.quic.packet:encode_datagram",
            "repro.quic.packet:PacketTemplate.render",
        ),
        "quic.packet.parse": ("repro.quic.packet:parse_long_header",),
        "tls.handshake": (
            "repro.tls.handshake:encode_handshake",
            "repro.tls.handshake:decode_handshake",
        ),
        "netstack.udp.encode": (
            "repro.netstack.udp:encode_udp",
            "repro.netstack.udp:encode_udp_into",
            "repro.netstack.udp:FlowTemplate.encode_into",
        ),
        "netstack.udp.decode": ("repro.netstack.udp:decode_udp",),
        "telescope.capture": ("repro.telescope.darknet:Telescope.handle_datagram",),
        "netstack.pcap.write": ("repro.telescope.darknet:Telescope.write_pcap",),
    },
    "idx": {
        "netstack.pcap.read": (
            "repro.netstack.pcap:iter_pcap",
            "repro.netstack.pcap:iter_pcap_range",
            "repro.netstack.pcap:scan_pcap_tail",
        ),
        "netstack.udp.decode": (
            "repro.netstack.udp:decode_udp",
            "repro.netstack.ip:decode_ipv4",
        ),
        "quic.packet.parse": (
            "repro.quic.packet:parse_long_header",
            "repro.quic.packet:decode_datagram",
        ),
        "core.dissector": ("repro.core.dissector:dissect_datagram",),
        "telescope.classify": ("repro.telescope.classify:classify_record",),
        "inetdata.asdb": ("repro.inetdata.asdb:AsDatabase.lookup",),
        "quic.crypto.derive": ("repro.quic.crypto.initial:derive_initial_keys",),
        "quic.crypto.unprotect": (
            "repro.quic.crypto.suites:PacketProtection.unprotect",
        ),
        "capstore.cache": ("repro.capstore.cache:load_or_build",),
        "capstore.build": ("repro.capstore.build:build_capture_table",),
        "capstore.format.dump": ("repro.capstore.format:dump_index",),
    },
    "ana": {
        "capstore.cache": ("repro.capstore.cache:load_or_build",),
        "capstore.format.load": ("repro.capstore.format:load_index",),
        "capstore.table.materialize": (
            "repro.capstore.table:CaptureTable.materialize",
            "repro.capstore.table:CaptureTable.packets_of",
            "repro.capstore.table:ClassifiedView._split",
        ),
        "core.session": ("repro.core.session:SessionStore.from_packets",),
        "core.summary": ("repro.core.summary:summarize",),
        "core.versions": ("repro.core.versions:table2",),
        "core.packet_mix": ("repro.core.packet_mix:packet_mix",),
        "core.scid_stats": ("repro.core.scid_stats:table4",),
        "core.timing": ("repro.core.timing:timing_profiles",),
        "core.lengths": ("repro.core.packet_mix:top_length_signatures",),
        "cli.render": ("repro.cli:render_analysis",),
    },
}

#: Event-loop callbacks are timed under the layer of the module that
#: defined them (first matching prefix); anything else stays in the
#: event loop's own self time.
EVENT_LAYERS = {
    "sim": (
        ("repro.workloads.", "workloads.events"),
        ("repro.server.engine", "server.engine"),
        ("repro.server.", "server.lb"),
        ("repro.simnet.network", "simnet.network"),
    ),
}
EVENT_SCHEDULERS = (
    "repro.simnet.eventloop:EventLoop.schedule",
    "repro.simnet.eventloop:EventLoop.schedule_at",
)

ROOT = "other"


class Tracer:
    """Per-layer self-time aggregation over a LIFO span stack."""

    def __init__(self, layers, clock=perf_counter):
        self.names = [ROOT] + list(layers)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.clock = clock
        # Open spans, innermost last, as two parallel stacks of plain
        # numbers (layer index; seconds spent in child spans).  A list per
        # span would be a GC-tracked allocation on every call.
        self.open_layers = []
        self.open_children = []
        self.missing = []
        self._started = None
        self.root_s = None

    # -- lifetime ----------------------------------------------------------
    def start(self):
        self.open_layers.append(0)
        self.open_children.append(0.0)
        self._started = self.clock()

    def finish(self):
        """Close the stage root; returns its duration."""
        duration = self.clock() - self._started
        if self.open_layers != [0]:
            raise RuntimeError("unbalanced span stack: %r" % self.open_layers)
        self.open_layers.clear()
        self.self_s[0] += duration - self.open_children.pop()
        self.calls[0] += 1
        self.root_s = duration
        return duration

    # -- wrapping ----------------------------------------------------------
    def wrap(self, fn, layer):
        """A timing wrapper for ``fn``; an already wrapped ``fn`` is kept."""
        if getattr(fn, "__e2e_layer__", None) is not None:
            return fn
        if inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(fn, layer)
        else:
            wrapper = self.wrap_call(fn, layer)
        wrapper.__e2e_layer__ = layer
        return wrapper

    def wrap_call(self, fn, layer):
        index = self.index[layer]
        open_layers, open_children = self.open_layers, self.open_children
        self_s, calls, clock = self.self_s, self.calls, self.clock

        def wrapper(*args, **kwargs):
            # An entry point that delegates to another of the same layer
            # (encode_datagram -> PacketTemplate.render) is one span; so is
            # anything called before start() or after finish().
            if not open_layers or open_layers[-1] == index:
                return fn(*args, **kwargs)
            open_layers.append(index)
            open_children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_layers.pop()
                self_s[index] += duration - open_children.pop()
                calls[index] += 1
                open_children[-1] += duration

        return wrapper

    def _wrap_generator(self, fn, layer):
        # A generator runs only inside ``__next__``: time each resumption.
        timed_next = self.wrap_call(next, layer)

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = timed_next(iterator)
                except StopIteration:
                    return
                yield item

        return wrapper

    # -- reporting ---------------------------------------------------------
    def report(self):
        """``{layer: {"self_s", "calls"} | None}`` plus the root."""
        dead = {entry["layer"] for entry in self.missing if entry["layer_dead"]}
        layers = {}
        for i, name in enumerate(self.names):
            if name in dead:
                layers[name] = None
            else:
                layers[name] = {"self_s": self.self_s[i], "calls": self.calls[i]}
        return {
            "root_s": self.root_s,
            "layers": layers,
            "layers_missing": self.missing,
        }


#: What resolving a wrap point raises once a refactor has moved its target.
_UNRESOLVED = (ImportError, AttributeError, KeyError)


def _resolve(point):
    """``(owner, attribute name, raw attribute)`` for a wrap point."""
    module_name, _, path = point.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = owner.__dict__[name] if inspect.isclass(owner) else getattr(owner, name)
    return owner, name, raw


def _install_point(tracer, point, layer):
    owner, name, raw = _resolve(point)
    if inspect.isclass(owner):
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(functools.wraps(raw.__func__)(
                tracer.wrap(raw.__func__, layer)))
        else:
            wrapper = functools.wraps(raw)(tracer.wrap(raw, layer))
        setattr(owner, name, wrapper)
        return
    # ``from x import f`` copies the reference: replace it in every loaded
    # module of the program whose globals still hold the original object.
    wrapper = functools.wraps(raw)(tracer.wrap(raw, layer))
    root_package = point.split(".", 1)[0]
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".", 1)[0] != root_package:
            continue
        for key, value in list(vars(module).items()):
            if value is raw:
                setattr(module, key, wrapper)


def _callback_module(callback):
    callback = getattr(callback, "func", callback)  # functools.partial
    callback = getattr(callback, "__func__", callback)  # bound method
    return getattr(callback, "__module__", None) or ""


def _install_event_timing(tracer, scheduler_points, prefixes):
    """Wrap the schedulers so each callback they queue is timed by module.

    ``schedule_at`` delegates to ``schedule``: only the outermost
    scheduler call wraps the callback.
    """
    layer_by_module = {}
    nested = False

    def layer_of(module):
        for prefix, layer in prefixes:
            if module.startswith(prefix):
                return layer
        return None

    def make_scheduler(raw):
        @functools.wraps(raw)
        def scheduler(self, when, callback, *args, **kwargs):
            nonlocal nested
            if nested:
                return raw(self, when, callback, *args, **kwargs)
            module = _callback_module(callback)
            try:
                layer = layer_by_module[module]
            except KeyError:
                layer = layer_by_module[module] = layer_of(module)
            if layer is not None:
                callback = tracer.wrap_call(callback, layer)
            nested = True
            try:
                return raw(self, when, callback, *args, **kwargs)
            finally:
                nested = False

        return scheduler

    failed = []
    for point in scheduler_points:
        try:
            owner, name, raw = _resolve(point)
        except _UNRESOLVED as exc:
            failed.append((point, "%s: %s" % (type(exc).__name__, exc)))
            continue
        if not getattr(raw, "__e2e_scheduler__", False):
            scheduler = make_scheduler(raw)
            scheduler.__e2e_scheduler__ = True
            setattr(owner, name, scheduler)
    return failed


def install(stage, layers=None, event_layers=None, schedulers=EVENT_SCHEDULERS):
    """Wrap every resolvable point of ``stage``; returns the Tracer.

    Call after the program's modules are imported (module-level functions
    are swapped in the globals of modules already loaded) and before the
    stage entry runs.
    """
    layers = STAGE_LAYERS[stage] if layers is None else layers
    if event_layers is None:
        event_layers = EVENT_LAYERS.get(stage, ())
    tracer = Tracer(layers)
    for layer, points in layers.items():
        failed = []
        for point in points:
            try:
                _install_point(tracer, point, layer)
            except _UNRESOLVED as exc:
                failed.append((point, "%s: %s" % (type(exc).__name__, exc)))
        layer_dead = bool(points) and len(failed) == len(points)
        for point, error in failed:
            tracer.missing.append(
                {"layer": layer, "point": point, "error": error,
                 "layer_dead": layer_dead}
            )
    if event_layers:
        for point, error in _install_event_timing(tracer, schedulers, event_layers):
            tracer.missing.append(
                {"layer": "event callbacks", "point": point, "error": error,
                 "layer_dead": False}
            )
    return tracer
