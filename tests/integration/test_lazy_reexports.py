"""Packages that re-export lazily still export every name they list.

``repro.capstore`` and ``repro.quic.cid`` resolve their ``__all__`` through
a module ``__getattr__``, so that a warm read imports only the submodules
it runs (``tests/integration/test_cli_boundary.py`` checks that part).
Here: the names themselves, by attribute, by ``import *`` and in ``dir()``.
"""

import importlib

import pytest

import repro.quic.packet
import repro.quic.packet_type

LAZY_PACKAGES = ("repro.capstore", "repro.quic.cid")


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestLazyPackage:
    def test_every_listed_name_resolves_by_attribute(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__all__
        for name in package.__all__:
            value = getattr(package, name)
            assert value is getattr(package, name), name
            if callable(value):  # a class or function: defined below the package
                assert value.__module__.startswith(package_name + "."), name

    def test_star_import_brings_every_listed_name(self, package_name):
        package = importlib.import_module(package_name)
        namespace = {}
        exec("from %s import *" % package_name, namespace)
        assert set(package.__all__) <= set(namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name), name

    def test_dir_lists_every_name(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(dir(package))

    def test_an_unknown_name_raises_naming_the_module(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match=repr(package_name)):
            package.no_such_name


def test_the_codec_re_exports_the_packet_vocabulary():
    assert repro.quic.packet.PacketType is repro.quic.packet_type.PacketType
    assert repro.quic.packet.PACKET_LABELS is repro.quic.packet_type.PACKET_LABELS


def test_the_codec_tag_length_is_the_suites():
    from repro.quic.crypto.suites import TAG_LENGTH

    assert repro.quic.packet.TAG_LENGTH == TAG_LENGTH


def test_obs_resolves_the_speedscope_check_on_demand():
    import repro.obs
    from repro.obs.prof import validate_speedscope

    assert repro.obs.validate_speedscope is validate_speedscope
    with pytest.raises(AttributeError, match="'repro.obs'"):
        repro.obs.no_such_name
