"""Radix trie longest-prefix matching."""

import random
from bisect import bisect_right

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


def _flat_lookup(flat, address):
    starts, values = flat
    return values[bisect_right(starts, address) - 1]


@settings(max_examples=80, deadline=None)
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
def test_flattened_intervals_agree_with_the_trie(entries, probes):
    """One bisect over ``flatten()`` answers what the trie walk answers —
    on random addresses and on both sides of every prefix boundary."""
    tree = RadixTree()
    boundaries = [0, (1 << 32) - 1]
    for address, length in entries:
        mask = ((1 << length) - 1) << (32 - length) if length else 0
        prefix = Prefix(address & mask, length)
        tree.insert(prefix, (prefix.network, prefix.length))
        boundaries += [prefix.first - 1, prefix.first, prefix.last, prefix.last + 1]
    flat = tree.flatten()
    starts = flat[0]
    assert starts[0] == 0 and starts == sorted(set(starts))
    assert len(starts) <= 2 * len(tree) + 1
    for addr in probes + [a for a in boundaries if 0 <= a < 1 << 32]:
        assert _flat_lookup(flat, addr) == tree.lookup(addr)


class TestFlatten:
    def test_empty_trie_is_one_unmatched_interval(self):
        assert RadixTree().flatten() == ([0], [None])

    def test_nested_prefixes_resume_the_outer_value(self):
        tree = RadixTree()
        tree.insert(Prefix.parse("10.0.0.0/8"), "eight")
        tree.insert(Prefix.parse("10.1.0.0/16"), "sixteen")
        tree.insert(Prefix.parse("10.1.255.0/24"), "last-24")  # ends with its parent
        flat = tree.flatten()
        for text, value in [
            ("9.255.255.255", None),
            ("10.0.0.0", "eight"),
            ("10.0.255.255", "eight"),
            ("10.1.0.0", "sixteen"),
            ("10.1.254.255", "sixteen"),
            ("10.1.255.0", "last-24"),
            ("10.1.255.255", "last-24"),
            ("10.2.0.0", "eight"),
            ("10.255.255.255", "eight"),
            ("11.0.0.0", None),
        ]:
            assert _flat_lookup(flat, parse_ip(text)) == value, text

    def test_prefix_reaching_the_top_of_the_address_space(self):
        tree = RadixTree()
        tree.insert(Prefix.parse("255.255.255.0/24"), "top")
        tree.insert(Prefix.parse("0.0.0.0/32"), "zero")
        flat = tree.flatten()
        assert max(flat[0]) < 1 << 32
        assert _flat_lookup(flat, (1 << 32) - 1) == "top"
        assert _flat_lookup(flat, 0) == "zero"
        assert _flat_lookup(flat, 1) is None

    def test_snapshot_does_not_follow_later_inserts(self):
        tree = RadixTree()
        tree.insert(Prefix.parse("10.0.0.0/8"), "a")
        flat = tree.flatten()
        tree.insert(Prefix.parse("10.0.0.0/8"), "b")
        assert _flat_lookup(flat, parse_ip("10.0.0.1")) == "a"
        assert _flat_lookup(tree.flatten(), parse_ip("10.0.0.1")) == "b"

    def test_scenario_databases_flatten_to_their_lookups(self):
        from repro.capstore import default_acknowledged, default_asdb

        asdb, scanners = default_asdb(), default_acknowledged()
        origins, flags = asdb.origin_intervals(), scanners.intervals()
        rng = random.Random(5)
        probes = [rng.getrandbits(32) for _ in range(2000)]
        for start in origins[0] + flags[0]:
            probes += [max(start - 1, 0), start]
        for addr in probes:
            assert _flat_lookup(origins, addr) == asdb.origin_name(addr)
            assert _flat_lookup(flags, addr) == scanners.is_acknowledged(addr)
