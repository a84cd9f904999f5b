"""Table 4 (SCID lengths), Figure 5 (nybble entropy), Table 1 (summary)."""

import math
import os
import random
import subprocess
import sys

import pytest

from repro.core.scid_entropy import (
    chi_square_uniformity,
    is_structured,
    nybble_matrix,
)
from repro.core.scid_stats import ScidStats, table4
from repro.core.summary import summarize


class TestTable4:
    def test_scid_lengths_per_origin(self, small_capture):
        stats = table4(small_capture.backscatter)
        assert stats["Cloudflare"].dominant_length == 20
        assert stats["Facebook"].dominant_length == 8
        assert stats["Google"].dominant_length == 8
        assert stats["Remaining"].dominant_length == 8

    def test_google_most_unique_scids(self, small_capture):
        """Table 4 ordering: Google > Facebook > Remaining > Cloudflare."""
        stats = table4(small_capture.backscatter)
        assert stats["Google"].unique_count > stats["Facebook"].unique_count
        assert stats["Facebook"].unique_count > stats["Cloudflare"].unique_count

    def test_remaining_has_rare_other_lengths(self, small_capture):
        summary = table4(small_capture.backscatter)["Remaining"].length_summary()
        assert summary.startswith("8")

    def test_length_summary_empty(self):
        assert ScidStats(origin="x", unique_scids=set()).length_summary() == "-"

    def test_length_tie_resolves_to_first_seen(self):
        eights, fours = [b"\x01" * 8, b"\x02" * 8], [b"\x03" * 4, b"\x04" * 4]
        assert ScidStats("x", eights + fours).length_summary() == "8 (4)"
        assert ScidStats("x", fours + eights).length_summary() == "4 (8)"

    def test_length_tie_does_not_depend_on_hash_seed(self):
        """At the parent this printed ``8 (4)`` or ``4 (8)`` by hash seed."""
        expression = (
            "from repro.core.scid_stats import ScidStats; print(ScidStats('x', "
            "{b'\\x01'*8, b'\\x02'*8, b'\\x03'*4, b'\\x04'*4}).length_summary())"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        for seed in ("1", "4"):  # the parent flipped between these two
            result = subprocess.run(
                [sys.executable, "-c", expression],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                capture_output=True,
                text=True,
                check=True,
            )
            assert result.stdout.strip() == "8 (4)", seed


class TestScidAccumulator:
    def test_matrix_matches_batch_nybble_matrix(self):
        scids = [b"\x12\x34", b"\xab\xcd", b"\x12\x34", b"\x00\xff\x10"]
        accumulator = ScidStats("x")
        added = [accumulator.add(s) for s in scids]
        assert added == [True, True, False, True]
        batch = nybble_matrix(set(scids))
        online = accumulator.matrix()
        assert online.freq == batch.freq
        assert online.sample_size == batch.sample_size
        assert online.position_totals == batch.position_totals
        # Hand-counted: three unique IDs, only the 3-byte one reaches
        # positions 4-5; position 0 sees nybbles 1, a and 0 once each.
        assert online.sample_size == 3
        assert online.position_totals == [3, 3, 3, 3, 1, 1]
        assert online.freq[0][0x1] == online.freq[0][0xA] == online.freq[0][0] == 1 / 3
        assert online.freq[4][0x1] == 1.0 and online.freq[5][0] == 1.0

    def test_dominant_length(self):
        accumulator = ScidStats("x")
        assert accumulator.dominant_length is None
        for scid in (b"\x01" * 8, b"\x02" * 8, b"\x03" * 4):
            accumulator.add(scid)
        assert accumulator.dominant_length == 8


class TestNybbles:
    def test_matrix_rows_sum_to_one(self):
        rng = random.Random(1)
        scids = {rng.getrandbits(64).to_bytes(8, "big") for _ in range(200)}
        matrix = nybble_matrix(scids)
        assert matrix.positions == 16
        for row in matrix.freq:
            assert sum(row) == pytest.approx(1.0)

    def test_empty_population(self):
        matrix = nybble_matrix(set())
        assert matrix.positions == 0
        assert not is_structured(matrix)


class TestStructureDetection:
    """Figure 5: Google uniform, Facebook structured."""

    def test_google_scids_look_random(self, small_capture):
        from repro.core.scid_stats import scids_by_origin

        scids = scids_by_origin(small_capture.backscatter)["Google"]
        matrix = nybble_matrix(scids)
        assert not is_structured(matrix)

    def test_facebook_scids_structured(self, small_capture):
        from repro.core.scid_stats import scids_by_origin

        scids = scids_by_origin(small_capture.backscatter)["Facebook"]
        matrix = nybble_matrix(scids)
        assert is_structured(matrix)
        # Structure concentrates in the leading positions (host/worker IDs).
        hot = matrix.hot_positions(threshold=0.2)
        assert hot and min(hot) == 0

    def test_cloudflare_scids_structured(self, small_capture):
        from repro.core.scid_stats import scids_by_origin

        scids = scids_by_origin(small_capture.backscatter)["Cloudflare"]
        matrix = nybble_matrix(scids)
        assert is_structured(matrix)
        # First byte is fixed 0x01: position 0 frequency of nybble 0 is 1.
        assert matrix.freq[0][0] == pytest.approx(1.0)
        assert matrix.freq[1][1] == pytest.approx(1.0)

    def test_entropy_per_position(self, small_capture):
        from repro.core.scid_stats import scids_by_origin

        scids = scids_by_origin(small_capture.backscatter)["Facebook"]
        matrix = nybble_matrix(scids)
        entropy = matrix.entropy_per_position()
        # Leading (structured) positions carry less entropy than the random
        # tail of the mvfst CID.
        assert entropy[0] < entropy[-1]
        assert entropy[-1] > 3.5

    def test_a_constant_position_has_positive_zero_entropy(self):
        """At the parent a constant nybble read ``-0.0`` (printed ``-0``)."""
        entropy = nybble_matrix({b"\x01\x00", b"\x01\x11"}).entropy_per_position()
        assert entropy == [0.0, 0.0, 1.0, 1.0]
        assert math.copysign(1, entropy[0]) == 1

    def test_chi_square_flags_fixed_position(self):
        scids = {bytes([0x01]) + bytes([i]) * 7 for i in range(100)}
        matrix = nybble_matrix(scids)
        stats = chi_square_uniformity(matrix)
        assert stats[0] > 100  # fixed first nybble


class TestTable1Summary:
    def test_matches_paper_matrix(self, small_capture):
        summary = summarize(small_capture.backscatter)
        cf, fb, gg = (
            summary["Cloudflare"],
            summary["Facebook"],
            summary["Google"],
        )
        # Coalescence: CF yes (rarely), FB no, GG yes.
        assert cf.coalescence and gg.coalescence and not fb.coalescence
        # Server-chosen IDs: CF/FB yes, GG no (echo).
        assert cf.server_chosen_ids and fb.server_chosen_ids
        assert not gg.server_chosen_ids
        # Structured SCIDs: CF/FB yes, GG no.
        assert cf.structured_scids and fb.structured_scids
        assert not gg.structured_scids
        # L7LB quantifiable only for Facebook.
        assert fb.l7_load_balancers
        assert not gg.l7_load_balancers
        assert not cf.l7_load_balancers
        # Initial RTO: 1 / 0.4 / 0.3 s.
        assert cf.initial_rto == pytest.approx(1.0, abs=0.07)
        assert fb.initial_rto == pytest.approx(0.4, abs=0.05)
        assert gg.initial_rto == pytest.approx(0.3, abs=0.05)

    def test_labels(self, small_capture):
        summary = summarize(small_capture.backscatter)
        assert summary["Facebook"].rto_label() == "0.4 s"
        assert "-" in summary["Facebook"].resend_label()
