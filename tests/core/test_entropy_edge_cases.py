"""Edge cases for the entropy analysis: mixed lengths, small samples."""

import random

from repro.core.scid_entropy import (
    chi_square_uniformity,
    is_structured,
    nybble_matrix,
)


class TestMixedLengths:
    def test_position_totals_respect_short_ids(self):
        scids = [b"\x01" * 8] * 50 + [b"\x02" * 20] * 10
        matrix = nybble_matrix(scids)
        assert matrix.positions == 40
        # All 60 IDs cover the head positions; only the 20-byte ones reach
        # the tail.
        assert matrix.position_totals[0] == 60
        assert matrix.position_totals[39] == 10

    def test_chi_square_uses_per_position_totals(self):
        rng = random.Random(3)
        # 200 random 8-byte + 20 random 20-byte IDs: tail positions have a
        # much smaller sample and must not produce inflated statistics.
        scids = [rng.getrandbits(64).to_bytes(8, "big") for _ in range(200)]
        scids += [rng.getrandbits(160).to_bytes(20, "big") for _ in range(20)]
        matrix = nybble_matrix(scids)
        stats = chi_square_uniformity(matrix)
        assert all(s < 60 for s in stats), stats
        assert not is_structured(matrix)

    def test_structured_tail_detected_despite_small_sample(self):
        rng = random.Random(4)
        # 8-byte randoms plus 20-byte IDs with a *fixed* byte 12.
        scids = [rng.getrandbits(64).to_bytes(8, "big") for _ in range(100)]
        scids += [
            rng.getrandbits(96).to_bytes(12, "big")
            + b"\x7f"
            + rng.getrandbits(56).to_bytes(7, "big")
            for _ in range(40)
        ]
        matrix = nybble_matrix(scids)
        assert is_structured(matrix)


class TestSmallSamples:
    def test_fewer_than_eight_ids_never_structured(self):
        scids = [b"\x01" * 8] * 7
        assert not is_structured(nybble_matrix(scids))

    def test_eight_constant_ids_structured(self):
        scids = {bytes([1, i, 3, 4, 5, 6, 7, 8]) for i in range(9)}
        assert is_structured(nybble_matrix(scids))
