"""Flight layouts are shared by what they are a function of, and only then.

A ``_FlightLayout`` is built from four ``ServerProfile`` fields, the
Handshake CRYPTO payload (the certificate) and the connection's shape,
and never written afterwards; ``engine._LAYOUTS`` hands one object to
every engine that asks with the same arguments.  These tests hold the
sharing to exactly that key, the bytes to the goldens when the cache is
too small to keep anything, and the number of layouts a month builds to
its deployment shapes rather than its workers.
"""

from dataclasses import replace

import pytest

from repro.lru import LruCache
from repro.server import engine as engine_module
from repro.server.engine import _FlightLayout
from repro.server.profiles import cloudflare_profile
from repro.tls.certs import Certificate
from repro.workloads.scenario import ScenarioConfig, build_scenario
from tests.integration.test_golden_pcap import GOLDEN, ONE_SIDED, _digest
from tests.server.flight_vectors import CERT, client_initial, engine_for

OTHER_CERT = Certificate(subject="*.example.org")


def _layout(profile, certificate=CERT):
    """The layout a fresh engine of ``profile`` sends its first flight from."""
    engine = engine_for(profile, [], certificate)
    engine.on_datagram(client_initial(profile.supported_versions[0]), 0.0)
    (layout,) = engine._flight_layouts.values()
    return layout


def test_same_profile_and_certificate_share_one_object():
    profile = cloudflare_profile()
    assert _layout(profile) is _layout(profile)
    # Fields a layout does not read do not split it.
    assert _layout(profile) is _layout(replace(profile, initial_rto=3.0, name="x"))


@pytest.mark.parametrize(
    "change",
    [
        {"idle_timeout": 181.0},
        {"initial_datagram_size": 1201},
        {"handshake_datagram_size": 1243},
        {"coalesced_datagram_size": 1243},
    ],
    ids=lambda change: next(iter(change)),
)
def test_a_field_the_layout_reads_splits_it(change):
    profile = cloudflare_profile()
    assert _layout(profile) is not _layout(replace(profile, **change))


def test_another_certificate_splits_it():
    profile = cloudflare_profile()
    assert _layout(profile) is not _layout(profile, OTHER_CERT)
    assert _layout(profile) is not _layout(profile, None)
    assert _layout(profile, OTHER_CERT) is _layout(profile, OTHER_CERT)


def _attacks_only(config):
    no_scans = {knob: 0 for knob in ONE_SIDED["attacks-only-20220101-x0.05"]}
    return replace(config, **no_scans)


def _run(config):
    scenario = build_scenario(config)
    scenario.run()
    return scenario


def test_a_cache_too_small_to_share_still_writes_the_golden(monkeypatch, tmp_path):
    """Evict, rebuild, compare: a layout is a pure function of its key."""
    tiny = LruCache(2)
    monkeypatch.setattr(engine_module, "_LAYOUTS", tiny)
    scenario = _run(_attacks_only(ScenarioConfig(seed=20220101).scaled(0.05)))
    pcap = tmp_path / "evicting.pcap"
    with open(pcap, "wb") as fileobj:
        scenario.telescope.write_pcap(fileobj)
    assert _digest(pcap.read_bytes()) == GOLDEN["attacks-only-20220101-x0.05"][0]
    assert len(tiny) == 2 and tiny.misses > 20  # it did evict and rebuild


@pytest.mark.parametrize(
    "config, at_most",
    [
        # benchmarks/e2e/workloads.py: backscatter_flood and month_2022.
        (_attacks_only(ScenarioConfig(seed=20220101)), 160),
        (ScenarioConfig(seed=20220101).scaled(0.5), 135),
    ],
    ids=["backscatter_flood", "month_2022"],
)
def test_layouts_built_per_deployment_shape_not_per_worker(
    config, at_most, monkeypatch
):
    """2,004 and 1,483 when every engine built its own."""
    built = []
    construct = _FlightLayout.__init__

    def counting(self, *key):
        built.append(key)
        construct(self, *key)

    monkeypatch.setattr(_FlightLayout, "__init__", counting)
    monkeypatch.setattr(engine_module, "_LAYOUTS", LruCache(1024))
    scenario = _run(config)
    assert len(scenario.telescope.records) > 30_000
    assert 0 < len(built) <= at_most
    assert len(set(built)) == len(built)  # no key was built twice
