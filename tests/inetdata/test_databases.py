"""AS database, geo database, hypergiant registry, certificate store."""

import pytest

from repro.inetdata.asdb import AsDatabase, AsEntry
from repro.inetdata.certs import CertificateStore
from repro.inetdata.geodb import GeoDatabase
from repro.inetdata.hypergiants import (
    CLOUDFLARE,
    FACEBOOK,
    GOOGLE,
    HYPERGIANTS,
)
from repro.netstack.addr import parse_ip
from repro.tls.certs import Certificate


class TestHypergiants:
    def test_real_as_numbers(self):
        assert FACEBOOK.asn == 32934
        assert GOOGLE.asn == 15169
        assert CLOUDFLARE.asn == 13335

    def test_registry(self):
        assert set(HYPERGIANTS) == {"Facebook", "Google", "Cloudflare"}


class TestAsDatabase:
    def test_with_hypergiants(self):
        db = AsDatabase.with_hypergiants()
        assert db.origin_name(parse_ip("157.240.1.1")) == "Facebook"
        assert db.origin_name(parse_ip("142.250.0.1")) == "Google"
        assert db.origin_name(parse_ip("104.17.0.1")) == "Cloudflare"
        assert db.origin_name(parse_ip("8.8.8.8")) == "Remaining"

    def test_isp_is_remaining(self):
        db = AsDatabase.with_hypergiants()
        db.register("87.128.0.0/16", AsEntry(3320, "ISP-DE", category="isp"))
        assert db.origin_name(parse_ip("87.128.5.5")) == "Remaining"

    def test_longest_prefix_wins(self):
        db = AsDatabase.with_hypergiants()
        db.register(
            "157.240.9.0/24", AsEntry(65000, "MoreSpecific", category="other")
        )
        assert db.origin_name(parse_ip("157.240.9.1")) == "Remaining"
        assert db.origin_name(parse_ip("157.240.8.1")) == "Facebook"

    def test_describe(self):
        db = AsDatabase.with_hypergiants()
        assert "AS32934" in db.describe(parse_ip("157.240.1.1"))
        assert "unrouted" in db.describe(parse_ip("203.0.113.9"))


class TestGeoDatabase:
    def test_country_and_continent(self):
        db = GeoDatabase()
        db.register("157.240.1.0/24", "IN")
        db.register("157.240.2.0/24", "DE")
        assert db.country(parse_ip("157.240.1.5")) == "IN"
        assert db.continent(parse_ip("157.240.1.5")) == "Asia"
        assert db.continent(parse_ip("157.240.2.5")) == "Europe"
        assert db.country(parse_ip("8.8.8.8")) is None

    def test_unknown_country_rejected(self):
        db = GeoDatabase()
        with pytest.raises(ValueError):
            db.register("1.0.0.0/8", "XX")


class TestCertificateStore:
    def make_store(self):
        store = CertificateStore()
        store.register(
            parse_ip("87.128.1.1"),
            Certificate(
                subject="*.fbcdn.net", subject_alt_names=("*.facebook.com",)
            ),
            ptr="cache1.fbcdn.net",
        )
        store.register(
            parse_ip("87.128.2.2"),
            Certificate(subject="srv.example.net"),
        )
        return store

    def test_operated_by_san(self):
        store = self.make_store()
        assert store.operated_by(parse_ip("87.128.1.1"), FACEBOOK)
        assert not store.operated_by(parse_ip("87.128.2.2"), FACEBOOK)

    def test_operated_by_ptr_only(self):
        store = CertificateStore()
        store.register(
            parse_ip("10.0.0.1"),
            Certificate(subject="opaque.example"),
            ptr="edge7.whatsapp.com",
        )
        assert store.operated_by(parse_ip("10.0.0.1"), FACEBOOK)

    def test_unknown_address(self):
        store = self.make_store()
        assert not store.operated_by(parse_ip("1.1.1.1"), FACEBOOK)
        assert parse_ip("1.1.1.1") not in store
        assert store.certificate(parse_ip("1.1.1.1")) is None
        assert store.ptr(parse_ip("1.1.1.1")) == ""

    def test_contains_and_len(self):
        store = self.make_store()
        assert parse_ip("87.128.1.1") in store
        assert len(store) == 2
