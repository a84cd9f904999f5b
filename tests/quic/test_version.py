"""QUIC version registry and the Table 2 bucketing."""

import random

from repro.quic import version as v


class TestLookup:
    def test_known_versions(self):
        assert v.lookup(0x00000001).name == "QUICv1"
        assert v.lookup(0xFF00001D).name == "draft-29"
        assert v.lookup(0xFACEB002).name == "Facebook mvfst 2"
        assert v.lookup(0x51303530).family == "gquic"

    def test_unknown_draft(self):
        version = v.lookup(0xFF000020)
        assert version.family == "draft"
        assert version.name == "draft-32"

    def test_unknown_mvfst(self):
        assert v.lookup(0xFACEB00A).family == "mvfst"

    def test_reserved_greasing_pattern(self):
        assert v.is_reserved_version(0x1A2A3A4A)
        assert v.is_reserved_version(0xDADADADA)
        assert not v.is_reserved_version(0x00000001)
        assert v.lookup(0x0A0A0A0A).family == "reserved"

    def test_gquic_detection(self):
        assert v.is_gquic(0x51303433)  # Q043
        assert not v.is_gquic(0x52303433)  # R043
        assert not v.is_gquic(0x51414243)  # QABC

    def test_fully_unknown(self):
        assert v.lookup(0x12345678).family == "unknown"


class TestFamily:
    def test_family_agrees_with_lookup(self):
        rng = random.Random(41)
        values = [rng.getrandbits(32) for _ in range(5000)] + sorted(v.VERSIONS)
        values += [0x1A2A3A4A, 0x51303939, 0xFF000022, 0xFACEB0FF, 0x12345678]
        for value in values:
            assert v.family(value) == v.lookup(value).family

    def test_every_family_is_reached(self):
        rng = random.Random(42)
        values = [rng.getrandbits(32) for _ in range(5000)]
        values += [0x1A2A3A4A, 0x51303939, 0xFF000022, 0xFACEB0FF] + sorted(v.VERSIONS)
        assert {v.family(value) for value in values} == {
            "v1", "v2", "draft", "mvfst", "gquic", "reserved", "unknown"
        }


class TestTable2Bucketing:
    def test_v1(self):
        assert v.table2_bucket(0x00000001) == "QUICv1"

    def test_mvfst2(self):
        assert v.table2_bucket(0xFACEB002) == "Facebook mvfst 2"

    def test_other_mvfst_goes_to_others(self):
        assert v.table2_bucket(0xFACEB001) == "others"
        assert v.table2_bucket(0xFACEB00E) == "others"

    def test_draft29(self):
        assert v.table2_bucket(0xFF00001D) == "draft-29"

    def test_everything_else(self):
        assert v.table2_bucket(0xFF00001B) == "others"
        assert v.table2_bucket(0x51303530) == "others"
        assert v.table2_bucket(0x6B3343CF) == "others"
