"""The rule pack: the repo's determinism contract, as AST checks.

Each rule encodes an invariant the runtime parity gates (byte-identical
shard merges, warm-cache analyze parity, sweep cache hits) only catch
*after* a full simulation.  Statically:

==========  =============================================================
rule id     invariant
==========  =============================================================
``DET001``  all randomness flows from a seeded ``random.Random(seed)``
            instance — module-level ``random.*`` calls use the global,
            unseeded generator and break run-to-run reproducibility
``DET002``  no wall-clock reads (``time.time``/``perf_counter``/
            ``monotonic``, ``datetime.now`` …) outside the observability
            layer (``obs``/``tools``/``benchmarks``), whose wall numbers
            are declared nondeterministic facts
``DET003``  no OS entropy (``os.urandom``, ``uuid.uuid1/uuid4``,
            ``secrets.*``, ``random.SystemRandom``) anywhere
``DET004``  no builtin ``hash()`` — it is salted per process
            (PYTHONHASHSEED), so anything derived from it differs across
            runs and workers; use ``hashlib.blake2b`` / ``derive_seed``
``DET005``  no direct iteration over unordered collections (``set`` /
            ``frozenset`` expressions) or unordered filesystem listings
            (``os.listdir``, ``glob.glob``) — wrap in ``sorted()`` before
            the order can leak into output
``OBS001``  metric-name string literals (``counter:…``, ``gauge:…``,
            ``rows.…`` and every family of
            :mod:`repro.core.selectors`) must pass the grammar
            :func:`~repro.core.selectors.validate_metric` enforces at
            spec-parse time — a typo fails lint, not a sweep
``MP001``   multiprocessing pool/process targets must be top-level
            (picklable) callables — lambdas and nested functions fail at
            runtime under the spawn start method only, i.e. on someone
            else's machine
``PERF001`` hot write-side modules (``quic/``, ``netstack/``,
            ``server/engine.py``) must not accumulate packets with
            ``bytes +=`` or construct AES/GHASH schedules
            (``AesGcm``/``AES128``/``derive_initial_keys``) inside loop
            bodies — both are quadratic/per-packet costs the template
            and memo planes exist to amortize — nor chain
            ``hmac.new(...).digest()`` anywhere, nor call ``hmac.digest``
            / ``hmac.new`` under ``quic/crypto/``, where ``hkdf.py``'s
            ``hmac_sha256`` / ``HmacSha256`` is the one HMAC-SHA256
``IO001``   under ``src/repro``, one way out: no write-mode ``open()``,
            ``os.replace``, ``Pool(`` / ``ProcessPoolExecutor(`` /
            ``Process(`` or ``raise SystemExit`` outside ``atomic.py``
            (whole documents), ``pool.py`` (fan-out) and ``cli.py`` (the
            error boundary); the append logs — pcaps, the JSONL trace —
            carry a pragma saying why they are written in place
==========  =============================================================

Rules are small classes with an ``interests`` tuple of AST node types
and a ``visit(node, ctx)`` generator of findings; the engine dispatches
them over a single ``ast.walk``.  Suppress a deliberate violation with
``# repro: allow(RULE-ID) -- justification`` on the offending line (or
alone on the line above).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Tuple

from repro.core.selectors import (
    ANALYSIS_NAMES,
    CAPTURE_NAMES,
    FAMILIES,
    REGISTRY_PREFIXES,
    validate_metric,
)
from repro.lint.engine import FileContext, Finding

#: DET002 does not apply under these path components: the observability
#: layer reports real wall time by design (its outputs are declared
#: nondeterministic facts), and the checker/bench scripts never run
#: inside a simulation.
WALL_CLOCK_ALLOWED_PARTS = ("obs", "tools", "benchmarks")

#: Wall-clock reading callables, by resolved dotted name.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: OS entropy sources, by resolved dotted name.
ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)

#: Pool/executor methods whose first argument must be picklable.
_POOL_METHODS = frozenset(
    {
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "submit",
    }
)

#: Literals OBS001 validates: a registry prefix or a grammar name's first
#: component, then more name.  A bare prefix is grammar machinery, and a
#: space, "%" or "{" after one starts prose or a template.
_METRIC_PREFIXES = REGISTRY_PREFIXES + tuple(
    sorted({name.split(".")[0] + "." for name in (*FAMILIES, *CAPTURE_NAMES)})
)
_METRIC_LITERAL = re.compile(
    r"\A(?:%s)[^\s%%{]" % "|".join(map(re.escape, _METRIC_PREFIXES))
)
#: A grammar name up to its last placeholder: a name being built
#: (``"rto.sessions." + origin``), not a typo.
_NAME_STEMS = frozenset(name.rpartition(".")[0] + "." for name in ANALYSIS_NAMES)


class Rule:
    """Base class: subclasses set ``id``/``title`` and yield findings."""

    id = "RULE000"
    title = "abstract rule"
    interests: Tuple[type, ...] = ()

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, node: ast.AST, ctx: FileContext, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


class UnseededRandomRule(Rule):
    """DET001: randomness must come from a seeded ``random.Random``."""

    id = "DET001"
    title = "module-level / unseeded random"
    interests = (ast.Call, ast.ImportFrom)

    #: ``random`` module attributes that are fine to touch: the seeded
    #: generator class itself.  ``SystemRandom`` is DET003's business.
    _ALLOWED = frozenset({"random.Random", "random.SystemRandom"})

    def visit(self, node, ctx):
        if isinstance(node, ast.ImportFrom):
            if node.module == "random" and not node.level:
                bad = [
                    alias.name
                    for alias in node.names
                    if alias.name not in ("Random", "SystemRandom")
                ]
                if bad:
                    yield self.finding(
                        node,
                        ctx,
                        "importing %s from random binds the global unseeded "
                        "generator; seed a random.Random(seed) instance and "
                        "call its methods instead" % ", ".join(sorted(bad)),
                    )
            return
        name = ctx.resolve(node.func)
        if name == "random.Random" and not node.args and not node.keywords:
            yield self.finding(
                node,
                ctx,
                "random.Random() without a seed draws from OS entropy; pass "
                "an explicit seed (see derive_seed in repro.workloads.scenario)",
            )
            return
        if (
            name.startswith("random.")
            and name not in self._ALLOWED
            and name.count(".") == 1
        ):
            yield self.finding(
                node,
                ctx,
                "%s() uses the process-global unseeded generator; call the "
                "method on a seeded random.Random(seed) instance instead" % name,
            )


class WallClockRule(Rule):
    """DET002: wall-clock reads stay inside the observability layer."""

    id = "DET002"
    title = "wall-clock read outside obs/tools"
    interests = (ast.Call,)

    def visit(self, node, ctx):
        if any(part in WALL_CLOCK_ALLOWED_PARTS for part in ctx.parts):
            return
        name = ctx.resolve(node.func)
        if name in WALL_CLOCK_CALLS:
            yield self.finding(
                node,
                ctx,
                "%s() reads the wall clock; simulation paths must use the "
                "event loop's simulated time (loop.now) — wall time belongs "
                "to repro.obs" % name,
            )


class EntropyRule(Rule):
    """DET003: no OS entropy sources, ever."""

    id = "DET003"
    title = "OS entropy source"
    interests = (ast.Call,)

    def visit(self, node, ctx):
        name = ctx.resolve(node.func)
        if name in ENTROPY_CALLS or name.startswith("secrets."):
            yield self.finding(
                node,
                ctx,
                "%s() draws OS entropy and can never reproduce; derive "
                "bytes from the scenario seed (derive_seed / blake2b)" % name,
            )


class BuiltinHashRule(Rule):
    """DET004: builtin ``hash()`` is salted per process."""

    id = "DET004"
    title = "builtin hash()"
    interests = (ast.Call,)

    def visit(self, node, ctx):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and node.func.id not in ctx.from_imports
            and node.func.id not in ctx.module_aliases
        ):
            yield self.finding(
                node,
                ctx,
                "builtin hash() is salted per process (PYTHONHASHSEED): any "
                "persisted or derived value differs across runs and workers; "
                "use hashlib.blake2b or derive_seed",
            )


class UnorderedIterationRule(Rule):
    """DET005: sorted() before unordered iteration can reach output."""

    id = "DET005"
    title = "iteration over unordered collection"
    interests = (ast.For, ast.comprehension)

    _FS_LISTINGS = frozenset(
        {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
    )

    def _unordered(self, expr: ast.AST, ctx: FileContext) -> str:
        """Why ``expr`` iterates in nondeterministic order ("" = it doesn't)."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set expression iterates in hash order"
        if isinstance(expr, ast.Call):
            name = ctx.resolve(expr.func)
            if name in ("set", "frozenset"):
                return "%s() iterates in hash order" % name
            if name in self._FS_LISTINGS:
                return "%s() returns entries in filesystem order" % name
        return ""

    def visit(self, node, ctx):
        expr = node.iter
        why = self._unordered(expr, ctx)
        if why:
            yield self.finding(
                # ast.comprehension has no lineno of its own; anchor on
                # the iterable expression for both node kinds.
                expr,
                ctx,
                "%s, which varies across runs and machines; wrap it in "
                "sorted() before the order can leak into serialized or "
                "printed output" % why,
            )


class MetricNameRule(Rule):
    """OBS001: metric-name literals must pass the sweep grammar."""

    id = "OBS001"
    title = "invalid sweep metric name literal"
    interests = (ast.Constant,)

    def visit(self, node, ctx):
        value = node.value
        if (
            not isinstance(value, str)
            or not _METRIC_LITERAL.match(value)
            or value in _NAME_STEMS
        ):
            return
        try:
            validate_metric(value)
        except ValueError as exc:
            yield self.finding(node, ctx, str(exc))


class MultiprocessingTargetRule(Rule):
    """MP001: pool/process targets must be top-level picklable callables."""

    id = "MP001"
    title = "unpicklable multiprocessing target"
    interests = (ast.Call,)

    def _check_target(self, target: ast.AST, ctx: FileContext, via: str):
        if isinstance(target, ast.Lambda):
            return (
                "a lambda passed to %s cannot be pickled under the spawn "
                "start method; hoist it to a module-level function" % via
            )
        if isinstance(target, ast.Name):
            name = target.id
            if name in ctx.nested_defs and name not in ctx.toplevel_defs:
                return (
                    "%s() is defined inside another function, so %s cannot "
                    "pickle it under the spawn start method; hoist it to "
                    "module level" % (name, via)
                )
        return ""

    def visit(self, node, ctx):
        func = node.func
        target = None
        via = ""
        if isinstance(func, ast.Attribute) and func.attr in _POOL_METHODS:
            if node.args:
                target = node.args[0]
                via = "pool.%s" % func.attr
        elif ctx.resolve(func) == "multiprocessing.Process":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    target = keyword.value
                    via = "multiprocessing.Process(target=…)"
        if target is None:
            return
        why = self._check_target(target, ctx, via)
        if why:
            yield self.finding(target, ctx, why)


class PacketHotLoopRule(Rule):
    """PERF001: no per-packet rebuild work on the hot write-side path."""

    id = "PERF001"
    title = "per-packet rebuild on the hot path"
    interests = (ast.For, ast.While, ast.AsyncFor, ast.Call)

    #: Constructors whose work the memo plane (repro.quic.crypto.memo)
    #: amortizes; building one per loop iteration re-expands the key
    #: schedule / GHASH tables the cache already holds.
    _SCHEDULE_BUILDERS = frozenset({"AesGcm", "AES128", "derive_initial_keys"})

    def __init__(self) -> None:
        self._accumulator_cache: Tuple[str, frozenset] = ("", frozenset())

    @staticmethod
    def _hot(ctx: FileContext) -> bool:
        parts = ctx.parts
        return (
            "quic" in parts
            or "netstack" in parts
            or parts[-2:] == ("server", "engine.py")
        )

    def _bytes_accumulators(self, ctx: FileContext) -> frozenset:
        """Names assigned a ``bytes`` constant or ``bytes()`` call anywhere
        in the module — the candidates whose ``+=`` builds an O(n²) copy
        chain.  ``bytearray`` targets amortize and are exempt.
        """
        if self._accumulator_cache[0] == ctx.path:
            return self._accumulator_cache[1]
        names = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            is_bytes = isinstance(value, ast.Constant) and isinstance(
                value.value, bytes
            )
            if isinstance(value, ast.Call) and ctx.resolve(value.func) == "bytes":
                is_bytes = True
            if not is_bytes:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        result = frozenset(names)
        self._accumulator_cache = (ctx.path, result)
        return result

    def _loop_body(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk the loop body, skipping nested loops (visited separately)."""
        stack = list(node.body)
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.For, ast.While, ast.AsyncFor)):
                continue
            yield child
            stack.extend(ast.iter_child_nodes(child))

    def visit(self, node, ctx):
        if not self._hot(ctx):
            return
        if isinstance(node, ast.Call):
            func = node.func
            in_crypto = ctx.parts[-3:-1] == ("quic", "crypto")
            if in_crypto and ctx.resolve(func) in ("hmac.digest", "hmac.new"):
                yield self.finding(
                    node,
                    ctx,
                    "stdlib hmac under quic/crypto/: hkdf.py's hmac_sha256 (key "
                    "used once) / HmacSha256 (reused) is the one HMAC-SHA256 there",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "digest"
                and isinstance(func.value, ast.Call)
                and ctx.resolve(func.value.func) == "hmac.new"
                and not in_crypto  # flagged above, at the new()
            ):
                yield self.finding(
                    node,
                    ctx,
                    "hmac.new(…).digest() builds an HMAC object per packet; use "
                    "repro.quic.crypto.hkdf's hmac_sha256 (or HmacSha256, keyed once)",
                )
            return
        accumulators = self._bytes_accumulators(ctx)
        for child in self._loop_body(node):
            if (
                isinstance(child, ast.AugAssign)
                and isinstance(child.op, ast.Add)
                and isinstance(child.target, ast.Name)
                and child.target.id in accumulators
            ):
                yield self.finding(
                    child,
                    ctx,
                    "%s += … accumulates immutable bytes per iteration (an "
                    "O(n²) copy chain on a per-packet path); append to a "
                    "bytearray or collect parts and b''.join them"
                    % child.target.id,
                )
            elif isinstance(child, ast.Call):
                name = ctx.resolve(child.func)
                if name.rpartition(".")[2] in self._SCHEDULE_BUILDERS and name:
                    yield self.finding(
                        child,
                        ctx,
                        "%s() inside a loop re-expands a key schedule the "
                        "memo plane already caches; hoist it out of the loop "
                        "or go through repro.quic.crypto.memo" % name,
                    )


class OneWayOutRule(Rule):
    """IO001: documents, fan-out and failure each have one implementation."""

    id = "IO001"
    title = "output, pool or exit outside its one helper"
    interests = (ast.Call, ast.Raise)

    #: ``src/repro/<one of these>`` *is* the one implementation.
    _HELPERS = ("atomic.py", "pool.py", "cli.py", "__main__.py")

    def _construct(self, node: ast.AST, ctx: FileContext) -> str:
        """What ``node`` does that only a helper may ("" = nothing)."""
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return "raise SystemExit" if getattr(exc, "id", "") == "SystemExit" else ""
        func = node.func
        name = getattr(func, "attr", None) or getattr(func, "id", "")
        if name in ("Pool", "ProcessPoolExecutor", "Process"):
            return name + "()"
        mode = node.args[1] if len(node.args) > 1 else None
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        writes = mode is not None and not (
            isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")
        )
        name = ctx.resolve(func)
        if name == "open" and writes:
            return "open() for writing"
        return name if name == "os.replace" else ""

    def visit(self, node, ctx):
        parts = ctx.parts
        below_src = parts[parts.index("src") + 1 :] if "src" in parts else ()
        if below_src[:1] != ("repro",) or (
            len(below_src) == 2 and below_src[1] in self._HELPERS
        ):
            return
        construct = self._construct(node, ctx)
        if construct:
            yield self.finding(
                node,
                ctx,
                "%s outside its one helper: whole documents are written through "
                "repro.atomic.atomic_output (an append log says why not in a "
                "pragma), processes start in repro.pool.run_pool, and a failure "
                "is a repro.errors.CommandError for main to report" % construct,
            )


def default_rules() -> List[Rule]:
    """Fresh instances of every shipped rule, in id order."""
    return [
        UnseededRandomRule(),
        WallClockRule(),
        EntropyRule(),
        BuiltinHashRule(),
        UnorderedIterationRule(),
        MetricNameRule(),
        MultiprocessingTargetRule(),
        PacketHotLoopRule(),
        OneWayOutRule(),
    ]


def rule_table() -> List[Tuple[str, str, str]]:
    """(id, title, first docstring line) per rule — for ``--rules``."""
    rows = []
    for rule in default_rules():
        doc = (rule.__class__.__doc__ or "").strip().splitlines()[0]
        rows.append((rule.id, rule.title, doc))
    return rows
