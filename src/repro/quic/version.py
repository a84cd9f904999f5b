"""Registry of QUIC version numbers seen in the wild.

The paper's Table 2 groups telescope traffic by the version field of the
long header: QUICv1 (0x00000001), Facebook's mvfst versions, the IETF drafts
(0xff0000xx), Google QUIC (gQUIC, ASCII 'Q0xx'), and "others".  This module
knows how to classify an arbitrary 32-bit version value into those buckets.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QuicVersion:
    """A known QUIC version number and its display metadata."""

    value: int
    name: str
    family: str  # one of: v1, v2, draft, mvfst, gquic, reserved, unknown

    def __int__(self) -> int:
        return self.value


#: QUIC v1 (RFC 9000).
QUIC_V1 = QuicVersion(0x00000001, "QUICv1", "v1")
#: QUIC v2 (RFC 9369).
QUIC_V2 = QuicVersion(0x6B3343CF, "QUICv2", "v2")
#: IETF draft-29, the dominant pre-v1 draft in 2021 telescope data.
DRAFT_29 = QuicVersion(0xFF00001D, "draft-29", "draft")
DRAFT_27 = QuicVersion(0xFF00001B, "draft-27", "draft")
DRAFT_28 = QuicVersion(0xFF00001C, "draft-28", "draft")
#: Facebook mvfst versions. "mvfst 2" in the paper maps to 0xfaceb002;
#: mvfst also used 0xfaceb001 and experimental 0xfaceb00e/f.
MVFST_1 = QuicVersion(0xFACEB001, "Facebook mvfst 1", "mvfst")
MVFST_2 = QuicVersion(0xFACEB002, "Facebook mvfst 2", "mvfst")
MVFST_EXP = QuicVersion(0xFACEB00E, "Facebook mvfst exp", "mvfst")
#: gQUIC Q050 / Q046 / Q043 — ASCII 'Q' '0' '5' '0' etc.
GQUIC_Q050 = QuicVersion(0x51303530, "gQUIC Q050", "gquic")
GQUIC_Q046 = QuicVersion(0x51303436, "gQUIC Q046", "gquic")
GQUIC_Q043 = QuicVersion(0x51303433, "gQUIC Q043", "gquic")

VERSIONS: dict[int, QuicVersion] = {
    v.value: v
    for v in (
        QUIC_V1,
        QUIC_V2,
        DRAFT_27,
        DRAFT_28,
        DRAFT_29,
        MVFST_1,
        MVFST_2,
        MVFST_EXP,
        GQUIC_Q050,
        GQUIC_Q046,
        GQUIC_Q043,
    )
}

#: The version value 0 marks a Version Negotiation packet (RFC 8999 §6).
VERSION_NEGOTIATION = 0x00000000


def is_reserved_version(value: int) -> bool:
    """RFC 9000 §15: versions matching 0x?a?a?a?a are reserved for greasing.

    Acknowledged research scanners deliberately offer such versions to force
    servers into version negotiation; the sanitization pipeline uses this to
    recognize enumeration scans.
    """
    return (value & 0x0F0F0F0F) == 0x0A0A0A0A


def is_gquic(value: int) -> bool:
    """True for legacy Google QUIC versions ('Q' + 3 ASCII digits)."""
    raw = value.to_bytes(4, "big")
    return raw[0:1] == b"Q" and all(0x30 <= b <= 0x39 for b in raw[1:])


def family(value: int) -> str:
    """The family of ``value``: ``lookup(value).family``, building nothing.

    This is what the dissector asks of every packet, and it costs the same
    however many distinct versions a capture carries (a flood of random
    versions can carry any of 2**32).
    """
    known = VERSIONS.get(value)
    if known is not None:
        return known.family
    if is_reserved_version(value):
        return "reserved"
    if is_gquic(value):
        return "gquic"
    if 0xFF000000 <= value <= 0xFF0000FF:
        return "draft"
    if (value >> 8) == 0xFACEB0:
        return "mvfst"
    return "unknown"


#: How :func:`lookup` names a version outside :data:`VERSIONS`, per family.
_UNLISTED_NAMES = {
    "reserved": "reserved-0x%08x",
    "gquic": "gQUIC 0x%08x",
    "mvfst": "mvfst-0x%08x",
    "unknown": "unknown-0x%08x",
}


def lookup(value: int) -> QuicVersion:
    """Classify ``value``, returning a catch-all entry for unknown versions."""
    known = VERSIONS.get(value)
    if known is not None:
        return known
    kind = family(value)
    if kind == "draft":
        return QuicVersion(value, "draft-%02d" % (value & 0xFF), kind)
    return QuicVersion(value, _UNLISTED_NAMES[kind] % value, kind)


def table2_bucket(value: int) -> str:
    """Map a version to the row label used by the paper's Table 2."""
    if value == QUIC_V1.value:
        return "QUICv1"
    if family(value) == "mvfst":
        return "Facebook mvfst 2" if value == MVFST_2.value else "others"
    if value == DRAFT_29.value:
        return "draft-29"
    return "others"
