"""Radix trie longest-prefix matching."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.inetdata.radix import RadixTree
from repro.netstack.addr import Prefix, parse_ip


class TestLongestPrefixMatch:
    def test_basic(self):
        tree = RadixTree()
        tree.insert(Prefix.parse("10.0.0.0/8"), "eight")
        tree.insert(Prefix.parse("10.1.0.0/16"), "sixteen")
        tree.insert(Prefix.parse("10.1.2.0/24"), "twentyfour")
        assert tree.lookup(parse_ip("10.9.9.9")) == "eight"
        assert tree.lookup(parse_ip("10.1.9.9")) == "sixteen"
        assert tree.lookup(parse_ip("10.1.2.3")) == "twentyfour"
        assert tree.lookup(parse_ip("11.0.0.1")) is None

    def test_lookup_with_prefix(self):
        tree = RadixTree()
        tree.insert(Prefix.parse("44.0.0.0/9"), "telescope")
        match = tree.lookup_with_prefix(parse_ip("44.5.6.7"))
        assert match is not None
        prefix, value = match
        assert str(prefix) == "44.0.0.0/9"
        assert value == "telescope"

    def test_default_route(self):
        tree = RadixTree()
        tree.insert(Prefix(0, 0), "default")
        tree.insert(Prefix.parse("1.0.0.0/8"), "one")
        assert tree.lookup(parse_ip("9.9.9.9")) == "default"
        assert tree.lookup(parse_ip("1.2.3.4")) == "one"

    def test_replace_value(self):
        tree = RadixTree()
        prefix = Prefix.parse("10.0.0.0/8")
        tree.insert(prefix, "a")
        tree.insert(prefix, "b")
        assert tree.lookup(parse_ip("10.0.0.1")) == "b"
        assert len(tree) == 1

    def test_host_route_wins_over_covering_prefix(self):
        tree = RadixTree()
        tree.insert(Prefix.parse("142.250.0.0/15"), "google")
        tree.insert(Prefix.parse("142.250.199.77/32"), "bot")
        assert tree.lookup(parse_ip("142.250.199.77")) == "bot"
        assert tree.lookup(parse_ip("142.250.199.78")) == "google"

    def test_items_enumeration(self):
        tree = RadixTree()
        prefixes = ["10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24"]
        for i, text in enumerate(prefixes):
            tree.insert(Prefix.parse(text), i)
        found = {str(p) for p, _v in tree.items()}
        assert found == set(prefixes)


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=1, max_value=32),
        ),
        min_size=1,
        max_size=24,
    ),
    probes=st.lists(
        st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=1, max_size=24
    ),
)
def test_matches_brute_force(entries, probes):
    """The trie must agree with a naive longest-prefix scan."""
    tree = RadixTree()
    table = {}
    for address, length in entries:
        mask = ((1 << length) - 1) << (32 - length)
        prefix = Prefix(address & mask, length)
        value = "%s" % prefix
        tree.insert(prefix, value)
        table[(prefix.network, prefix.length)] = value

    def brute(addr):
        best = None
        for (network, length), value in table.items():
            mask = ((1 << length) - 1) << (32 - length) if length else 0
            if addr & mask == network and (best is None or length > best[0]):
                best = (length, value)
        return best[1] if best else None

    for addr in probes:
        assert tree.lookup(addr) == brute(addr)


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=0, max_value=32),
        ),
        max_size=24,
    ),
    probes=st.lists(
        st.integers(min_value=0, max_value=(1 << 32) - 1), min_size=1, max_size=24
    ),
)
def test_value_lookup_agrees_with_prefix_lookup(entries, probes):
    """``lookup`` walks without building a Prefix; ``lookup_with_prefix``
    names the same match, and the prefix it names covers the address."""
    tree = RadixTree()
    for address, length in entries:
        mask = ((1 << length) - 1) << (32 - length) if length else 0
        tree.insert(Prefix(address & mask, length), (address & mask, length))
    for addr in probes + [address for address, _length in entries]:
        prefix, value = tree.lookup_with_prefix(addr) or (None, None)
        assert tree.lookup(addr) == value
        if prefix is not None:
            assert (prefix.network, prefix.length) == value
            assert addr in prefix
