"""IMP001: a module-level import whose name the module never reads."""

import textwrap

from repro.lint.engine import lint_file
from repro.lint.rules import UnusedImportRule


def findings_for(source, path="src/repro/simnet/fake.py"):
    return lint_file(path, [UnusedImportRule()], source=textwrap.dedent(source))


def unread(source, path="src/repro/simnet/fake.py"):
    return [
        (f.line, f.message.split()[0]) for f in findings_for(source, path)
    ]


class TestFires:
    def test_unread_import_fires_at_its_line(self):
        findings = findings_for(
            """
            import os
            import json

            def dump(value):
                return json.dumps(value)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("IMP001", 2)]
        assert findings[0].message.startswith("os is imported but never read")

    def test_each_unread_name_of_a_from_import_fires(self):
        assert unread(
            """
            from dataclasses import (
                dataclass,
                field,
                fields,
            )

            @dataclass
            class Row:
                x: int = 0
            """
        ) == [(4, "field"), (5, "fields")]

    def test_an_alias_is_the_name_that_must_be_read(self):
        assert unread(
            """
            import collections as col
            from typing import Optional as Opt
            """
        ) == [(2, "col"), (3, "Opt")]

    def test_a_type_checking_import_read_nowhere_fires(self):
        assert unread(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.obs import Observability
            """
        ) == [(5, "Observability")]

    def test_a_same_named_local_does_not_count_as_a_read(self):
        assert unread(
            """
            from typing import Callable

            def run():
                Callable = None
            """
        ) == [(2, "Callable")]


class TestSilent:
    def test_reads_in_code_and_through_attributes(self):
        assert unread(
            """
            import os.path
            from collections import defaultdict

            def groups():
                return defaultdict(list), os.path.sep
            """
        ) == []

    def test_reads_in_annotations_quoted_ones_included(self):
        assert unread(
            """
            from __future__ import annotations

            from typing import TYPE_CHECKING, Optional

            if TYPE_CHECKING:
                from repro.obs import Observability
                from repro.quic.packet import ParsedLongHeader

            def run(obs: "Observability") -> Optional["list[ParsedLongHeader]"]:
                return None
            """
        ) == []

    def test_function_and_class_imports_are_not_module_level(self):
        assert unread(
            """
            def lazy():
                import json

            class Holder:
                import os
            """
        ) == []

    def test_package_init_is_exempt(self):
        init = "src/repro/obs/__init__.py"
        assert unread("from repro.obs.trace import CAT_LB\n", init) == []

    def test_a_justified_pragma_suppresses(self):
        assert unread(
            """
            # repro: allow(IMP001) -- re-exported for callers of this module
            from repro.quic.packet_type import PACKET_LABELS
            """
        ) == []
