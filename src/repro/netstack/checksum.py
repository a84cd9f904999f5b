"""RFC 1071 Internet checksum (ones-complement sum of 16-bit words)."""

from __future__ import annotations


def _folded_sum(data: bytes, initial: int = 0) -> int:
    """End-around-carry sum of ``initial`` and the big-endian 16-bit words.

    2**16 ≡ 1 (mod 0xFFFF), so the whole buffer read as one big-endian
    integer is congruent to the sum of its words, and the remainder *is*
    the carry-folded sum — except that folding a non-zero total never
    yields 0 (it stops at 0xFFFF, ones-complement's other zero).
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = initial + int.from_bytes(data, "big")
    folded = total % 0xFFFF
    return 0xFFFF if total and not folded else folded


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """Compute the 16-bit Internet checksum over ``data``."""
    return ~_folded_sum(data, initial) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True if ``data`` (checksum field included) sums to 0xFFFF."""
    return _folded_sum(data) == 0xFFFF
