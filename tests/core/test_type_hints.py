"""Every public ``repro.core`` function's annotations resolve.

``from __future__ import annotations`` defers evaluation, so a name used
in a signature but never imported only fails when something (docs
tooling, a dataclass-driven serializer) calls ``get_type_hints``.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import repro.core


def public_functions():
    for info in pkgutil.iter_modules(repro.core.__path__):
        module = importlib.import_module("repro.core." + info.name)
        for name, value in sorted(vars(module).items()):
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not name.startswith("_")
            ):
                yield pytest.param(value, id="%s.%s" % (info.name, name))


@pytest.mark.parametrize("function", public_functions())
def test_annotations_resolve(function):
    typing.get_type_hints(function)
