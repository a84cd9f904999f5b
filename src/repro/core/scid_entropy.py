"""SCID nybble-frequency analysis (paper Figure 5).

If a deployment encodes information in its connection IDs, some nybble
positions stop being uniform.  The paper plots the relative frequency of
each nybble value (0-15) at each position: Google's SCIDs are flat at
1/16 everywhere, Facebook's first bytes show strong structure.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Sequence

UNIFORM = 1.0 / 16.0

#: ``bytes.translate`` tables: each byte to its high / low nybble.
_HIGH = bytes(byte >> 4 for byte in range(256))
_LOW = bytes(byte & 0x0F for byte in range(256))


@dataclass
class NybbleMatrix:
    """Relative frequency of each nybble value at each position."""

    #: ``freq[position][value]`` — positions × 16 relative frequencies.
    freq: list[list[float]]
    sample_size: int
    #: SCIDs contributing to each position (shorter IDs skip tail positions).
    position_totals: list[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.position_totals is None:
            self.position_totals = [self.sample_size] * len(self.freq)

    @property
    def positions(self) -> int:
        return len(self.freq)

    def hot_positions(self, threshold: float = 0.25) -> list[int]:
        """Positions where some value occurs suspiciously often."""
        return [
            i for i, row in enumerate(self.freq) if max(row, default=0.0) >= threshold
        ]

    def entropy_per_position(self) -> list[float]:
        """Shannon entropy (bits) of each nybble position; 4.0 = random.

        ``0.0 -`` rather than a unary minus: a constant position sums to
        ``0.0``, which must read ``0.0``, not ``-0.0``."""
        return [
            0.0 - sum(p * math.log2(p) for p in row if p > 0) for row in self.freq
        ]


class NybbleCounts:
    """Per-position nybble value counts over the SCIDs added so far.

    Positions beyond a shorter SCID's length simply accumulate fewer
    samples; :meth:`matrix` normalizes each row by its own sample count.
    """

    __slots__ = ("sample_size", "_counts", "_totals")

    def __init__(self) -> None:
        self.sample_size = 0
        self._counts: list[list[int]] = []
        self._totals: list[int] = []

    def update(self, scids: Sequence[bytes]) -> None:
        """Count every nybble of ``scids`` a byte position at a time: the
        position's bytes are gathered into one ``bytes``, split into high
        and low nybbles by ``translate`` and counted by ``Counter``, so
        Python-level work runs per position and nybble value, not per
        SCID."""
        self.sample_size += len(scids)
        lengths = list(map(len, scids))
        counts, totals = self._counts, self._totals
        for at in range(max(lengths, default=0)):
            long_enough = compress(scids, map(at.__lt__, lengths))
            column = bytes(map(itemgetter(at), long_enough))
            if len(counts) < 2 * at + 2:  # the first SCID this long
                counts += ([0] * 16, [0] * 16)
                totals += (0, 0)
            for position, table in ((2 * at, _HIGH), (2 * at + 1, _LOW)):
                row = counts[position]
                for value, count in Counter(column.translate(table)).items():
                    row[value] += count
                totals[position] += len(column)

    def matrix(self) -> NybbleMatrix:
        """The Figure 5 frequency matrix of the SCIDs seen so far."""
        freq = [
            [c / total if total else 0.0 for c in row]
            for row, total in zip(self._counts, self._totals)
        ]
        return NybbleMatrix(
            freq=freq,
            sample_size=self.sample_size,
            position_totals=list(self._totals),
        )


def nybble_matrix(scids: set[bytes] | list[bytes]) -> NybbleMatrix:
    """Frequency matrix over a population of equal-or-mixed-length SCIDs."""
    counts = NybbleCounts()
    counts.update(list(scids))
    return counts.matrix()


def is_structured(matrix: NybbleMatrix, chi_threshold: float = 60.0) -> bool:
    """Table 1's "structured SCIDs" checkmark.

    A nybble position of uniformly random IDs has a chi-square statistic
    with 15 degrees of freedom (mean 15, sd ~5.5) against the uniform
    expectation; a position encoding information (a fixed scheme byte, a
    host ID) blows far past that at any realistic sample size.  Flag the
    population as structured if *any* position exceeds ``chi_threshold``
    (~8 standard deviations above random).  Works equally for Cloudflare's
    ~170 observed SCIDs and Google's hundred-thousand.
    """
    return structure_of(matrix, chi_threshold)[0]


def structure_of(matrix: NybbleMatrix, chi_threshold: float = 60.0) -> tuple:
    """``(is_structured, largest per-position chi-square)``, one pass."""
    chi2 = max(chi_square_uniformity(matrix), default=0.0)
    return matrix.sample_size >= 8 and chi2 > chi_threshold, chi2


def chi_square_uniformity(matrix: NybbleMatrix) -> list[float]:
    """Per-position chi-square statistic against the uniform distribution.

    With 15 degrees of freedom, values far above ~25 reject uniformity;
    returned per position so callers can locate the encoded fields.
    """
    out = []
    for position, row in enumerate(matrix.freq):
        n = matrix.position_totals[position]
        expected = n * UNIFORM
        if expected <= 0:
            out.append(0.0)
            continue
        stat = sum((p * n - expected) ** 2 / expected for p in row)
        out.append(stat)
    return out
