"""The lint engine: file walking, pragma suppression, baselines.

The determinism contract every other plane stakes its correctness on —
seeded-RNG-only randomness, no wall clock in simulation paths, keyed
hashing instead of ``hash()``, sorted iteration before serialization —
used to live in reviewers' heads and in slow end-to-end parity gates.
This package checks it *statically*, at diff time, with nothing but the
stdlib ``ast`` module:

* :class:`Finding` — one rule violation (rule id, path, line, column,
  message);
* :func:`collect_pragmas` — inline suppressions of the form
  ``# repro: allow(RULE-ID) -- justification`` (the justification is
  mandatory: a pragma without one does not suppress anything);
* :class:`Baseline` — a committed JSON file of grandfathered findings,
  so the linter can be adopted on a dirty tree and ratchet to clean;
* :func:`lint_paths` — walk files/directories (deterministic sorted
  order), parse each module once, dispatch every registered rule over
  one AST pass, and return the surviving findings.

Rules themselves live in :mod:`repro.lint.rules`; reporters in
:mod:`repro.lint.report`; the CLI front end is ``repro lint``.
"""

from __future__ import annotations

import ast
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.atomic import atomic_output
from repro.errors import InputFileError

#: ``# repro: allow(DET001) -- why this is fine`` — one or more comma
#: separated rule ids, then a mandatory ``--`` justification.  The
#: justification requirement is deliberate: an unexplained suppression
#: is exactly the tribal knowledge this plane exists to eliminate.
_PRAGMA = re.compile(
    r"#\s*repro:\s*allow\(\s*([A-Z][A-Z0-9]*\d(?:\s*,\s*[A-Z][A-Z0-9]*\d)*)\s*\)"
    r"\s*--\s*(\S.*)$"
)

#: A pragma-shaped comment that did not parse (missing justification,
#: malformed id list).  Reported as a finding so typos cannot silently
#: leave a violation unsuppressed *and* unexplained.
_PRAGMA_LIKE = re.compile(r"#\s*repro:\s*allow")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def key(self) -> str:
        """The baseline identity: stable across unrelated edits above."""
        return "%s:%s:%s" % (self.rule, self.path, self.message)

    def render(self) -> str:
        return "%s:%d:%d: %s %s" % (
            self.path,
            self.line,
            self.col,
            self.rule,
            self.message,
        )

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a rule may ask about the module being linted."""

    path: str
    tree: ast.Module
    source: str
    #: line number -> set of rule ids allowed on that line
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)
    #: local name -> imported module ("import time as _wall" => _wall -> time)
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> "module.attr" ("from time import perf_counter")
    from_imports: Dict[str, str] = field(default_factory=dict)
    #: names of module-level functions (picklable multiprocessing targets)
    toplevel_defs: Set[str] = field(default_factory=set)
    #: names of functions defined inside another function (not picklable)
    nested_defs: Set[str] = field(default_factory=set)

    @property
    def parts(self) -> Tuple[str, ...]:
        return tuple(self.path.replace(os.sep, "/").split("/"))

    def resolve(self, node: ast.AST) -> str:
        """Dotted name of an expression, with import aliases expanded.

        ``_wall.perf_counter`` resolves to ``time.perf_counter`` under
        ``import time as _wall``; a bare ``perf_counter`` resolves the
        same way under ``from time import perf_counter``.  Unresolvable
        expressions (calls, subscripts) resolve to ``""``.
        """
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return ""
        root = node.id
        if root in self.module_aliases:
            chain.append(self.module_aliases[root])
        elif root in self.from_imports:
            chain.append(self.from_imports[root])
        else:
            chain.append(root)
        return ".".join(reversed(chain))


def collect_pragmas(source: str, path: str) -> Tuple[Dict[int, Set[str]], List[Finding]]:
    """Per-line suppression map plus findings for malformed pragmas.

    Comments are found with :mod:`tokenize` (not a substring scan), so a
    pragma-shaped *string literal* in test fixtures does not suppress
    anything.  A well-formed pragma on line N suppresses matching
    findings on line N; a pragma on a comment-only line also covers the
    statement that starts on the next line.
    """
    pragmas: Dict[int, Set[str]] = {}
    malformed: List[Finding] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(iter(source.splitlines(True)).__next__))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return pragmas, malformed
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        comment = token.string
        line = token.start[0]
        match = _PRAGMA.search(comment)
        if match:
            rules = {rule.strip() for rule in match.group(1).split(",")}
            pragmas.setdefault(line, set()).update(rules)
            # A standalone comment line shields the next *code* line, so a
            # pragma may continue its justification across further comment
            # lines before the statement it covers.
            prefix = lines[line - 1][: token.start[1]]
            if not prefix.strip():
                target = line + 1
                while target <= len(lines) and (
                    not lines[target - 1].strip()
                    or lines[target - 1].lstrip().startswith("#")
                ):
                    target += 1
                pragmas.setdefault(target, set()).update(rules)
        elif _PRAGMA_LIKE.search(comment):
            malformed.append(
                Finding(
                    path=path,
                    line=line,
                    col=token.start[1] + 1,
                    rule="LNT001",
                    message=(
                        "malformed suppression pragma %r — expected "
                        "'# repro: allow(RULE-ID) -- justification' "
                        "(the justification is mandatory)" % comment.strip()
                    ),
                )
            )
    return pragmas, malformed


class Baseline:
    """Grandfathered findings, committed as JSON next to the repo root.

    A finding matches the baseline on ``(rule, path, message)`` — line
    numbers are deliberately *not* part of the identity, so edits above
    a grandfathered violation do not resurrect it.  The repo's own
    baseline is empty (see ``lint_baseline.json``); the mechanism exists
    so downstream forks can adopt the linter before paying down debt.
    """

    VERSION = 1

    def __init__(self, keys: Optional[Set[str]] = None) -> None:
        self.keys: Set[str] = keys or set()

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        try:
            with open(path, encoding="utf-8") as fileobj:
                doc = json.load(fileobj)
        except FileNotFoundError:
            return cls()
        except ValueError as exc:
            raise BaselineError("%s: not valid baseline JSON: %s" % (path, exc))
        if not isinstance(doc, dict) or doc.get("version") != cls.VERSION:
            raise BaselineError(
                "%s: unsupported baseline format (want {'version': %d, "
                "'findings': [...]})" % (path, cls.VERSION)
            )
        keys = set()
        for entry in doc.get("findings", ()):
            keys.add("%s:%s:%s" % (entry["rule"], entry["path"], entry["message"]))
        return cls(keys)

    @staticmethod
    def write(path: str, findings: Sequence[Finding]) -> None:
        """Persist ``findings`` as the new baseline (sorted, stable)."""
        doc = {
            "version": Baseline.VERSION,
            "findings": [
                {"rule": f.rule, "path": f.path, "message": f.message}
                for f in sorted(findings)
            ],
        }
        with atomic_output(path) as fileobj:
            json.dump(doc, fileobj, indent=2, sort_keys=True)
            fileobj.write("\n")

    def contains(self, finding: Finding) -> bool:
        return finding.key() in self.keys


class BaselineError(InputFileError):
    """An unreadable or wrong-format baseline file."""


@dataclass
class LintResult:
    """What one ``lint_paths`` run produced."""

    findings: List[Finding]
    baselined: List[Finding]
    suppressed: int
    files: int

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Every ``.py`` file under ``paths``, in deterministic sorted order.

    Directories are walked recursively; hidden directories and
    ``__pycache__`` are skipped.  A named file is yielded even without a
    ``.py`` suffix, so scratch files can be linted directly.
    """
    for target in paths:
        if os.path.isfile(target):
            yield target
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d for d in dirnames if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _collect_scopes(ctx: FileContext) -> None:
    """Fill the context's alias and function-scope tables in one pass."""
    class Prepass(ast.NodeVisitor):
        def __init__(self) -> None:
            self.depth = 0

        def visit_Import(self, node: ast.Import) -> None:
            for alias in node.names:
                ctx.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )

        def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
            if node.module is None or node.level:
                return  # relative imports never shadow the stdlib
            for alias in node.names:
                ctx.from_imports[alias.asname or alias.name] = "%s.%s" % (
                    node.module,
                    alias.name,
                )

        def _visit_def(self, node) -> None:
            (ctx.nested_defs if self.depth else ctx.toplevel_defs).add(node.name)
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        visit_FunctionDef = _visit_def
        visit_AsyncFunctionDef = _visit_def

    Prepass().visit(ctx.tree)


def lint_file(path: str, rules: Sequence, source: Optional[str] = None) -> List[Finding]:
    """Run every rule over one module, returning unsuppressed findings."""
    findings, _suppressed = lint_file_ex(path, rules, source)
    return findings


def lint_file_ex(
    path: str, rules: Sequence, source: Optional[str] = None
) -> Tuple[List[Finding], int]:
    if source is None:
        with open(path, encoding="utf-8") as fileobj:
            source = fileobj.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1),
                    rule="LNT000",
                    message="file does not parse: %s" % exc.msg,
                )
            ],
            0,
        )
    pragmas, malformed = collect_pragmas(source, path)
    ctx = FileContext(path=path, tree=tree, source=source, pragmas=pragmas)
    _collect_scopes(ctx)
    raw: List[Finding] = list(malformed)
    dispatch: Dict[type, list] = {}
    for rule in rules:
        for node_type in rule.interests:
            dispatch.setdefault(node_type, []).append(rule)
    for node in ast.walk(tree):
        for rule in dispatch.get(type(node), ()):
            raw.extend(rule.visit(node, ctx))
    kept: List[Finding] = []
    suppressed = 0
    for finding in sorted(raw):
        if finding.rule in pragmas.get(finding.line, ()):  # inline / line above
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence] = None,
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """Lint every Python file under ``paths`` with ``rules``.

    Findings present in ``baseline`` are split out rather than dropped,
    so reporters can show the grandfathered debt without failing on it.
    """
    if rules is None:
        from repro.lint.rules import default_rules

        rules = default_rules()
    baseline = baseline or Baseline()
    new: List[Finding] = []
    old: List[Finding] = []
    suppressed = 0
    files = 0
    for path in iter_python_files(paths):
        files += 1
        findings, skipped = lint_file_ex(path, rules)
        suppressed += skipped
        for finding in findings:
            (old if baseline.contains(finding) else new).append(finding)
    return LintResult(
        findings=sorted(new), baselined=sorted(old), suppressed=suppressed, files=files
    )
