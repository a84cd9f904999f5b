"""RFC 9001 §5.2 Initial secret derivation.

Initial packets are protected with keys derived solely from the client's
first Destination Connection ID and a version-specific salt.  Any observer
of the first flight — which includes a network telescope — can therefore
decrypt Initial packets, as Wireshark's dissector does; our sanitization
pipeline relies on it to check their AEAD tags.

The schedule is HKDF-Extract plus, per direction, four single-block
HKDF-Expand-Labels ("client in"/"server in", then key, iv, hp).  Almost
every caller reads one direction only — a dissector authenticates
client Initials, a spoofing client seals them — so :func:`derive_initial_keys`
runs the Extract alone and :class:`InitialKeys` expands a direction the
first time it is read: 5 HMACs for a one-sided user, 9 for the server
engine, which needs both.  A sender that seals one Initial and keeps
nothing — a scanner, a spoofing attacker — calls :func:`initial_direction`
for its direction's bytes and builds no key object at all; both run
:func:`expand_direction`.  Almost every DCID is seen once (scanners,
spoofed floods), so nothing caches the schedule; it runs on ``hashlib``.
"""

from __future__ import annotations

from hashlib import sha256
from typing import NamedTuple

from repro.quic import version as quic_version
from repro.quic.crypto.hkdf import IPAD, OPAD, expand_label_info, hkdf_extract

#: Version-specific Initial salts (RFC 9001 §5.2 and predecessors).
INITIAL_SALTS: dict[int, bytes] = {
    quic_version.QUIC_V1.value: bytes.fromhex(
        "38762cf7f55934b34d179ae6a4c80cadccbb7f0a"
    ),
    quic_version.QUIC_V2.value: bytes.fromhex(
        "0dede3def700a6db819381be6e269dcbf9bd2ed9"
    ),
    quic_version.DRAFT_29.value: bytes.fromhex(
        "afbfec289993d24c9e9786f19c6111e04390a899"
    ),
    quic_version.DRAFT_28.value: bytes.fromhex(
        "c3eef712c72ebb5a11a7d2432bb46365bef9f502"
    ),
    quic_version.DRAFT_27.value: bytes.fromhex(
        "c3eef712c72ebb5a11a7d2432bb46365bef9f502"
    ),
}


def initial_salt(version: int) -> bytes:
    """Return the Initial salt for ``version``.

    Drafts the table does not list take their range's salt, the ranges
    Wireshark's QUIC dissector uses: 23–28 draft-27's, 29–32 draft-29's.
    mvfst reuses the draft-29 derivation; every other version (drafts
    ≤ 22 and the attackers' bogus 0xff00007f included) gets the v1 salt.
    """
    if version in INITIAL_SALTS:
        return INITIAL_SALTS[version]
    if 0xFF000017 <= version <= 0xFF00001C:
        return INITIAL_SALTS[quic_version.DRAFT_27.value]
    if 0xFF00001D <= version <= 0xFF000020 or (version >> 8) == 0xFACEB0:
        return INITIAL_SALTS[quic_version.DRAFT_29.value]
    return INITIAL_SALTS[quic_version.QUIC_V1.value]


class DirectionKeys:
    """AEAD key material for one direction of an Initial exchange.

    Compares by value and is not hashable: the AES and GHASH memos key on
    key bytes, never on this object.
    """

    __slots__ = ("key", "iv", "hp", "iv_int")

    def __init__(self, key: bytes, iv: bytes, hp: bytes) -> None:
        self.key = key  # 16 bytes (AES-128)
        self.iv = iv  # 12 bytes
        self.hp = hp  # 16 bytes, header protection key
        # The IV as a 96-bit integer, converted once per key, not per nonce.
        self.iv_int = int.from_bytes(iv, "big")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DirectionKeys) and (
            (self.key, self.iv, self.hp) == (other.key, other.iv, other.hp)
        )

    def nonce(self, packet_number: int) -> bytes:
        """Per-packet nonce: IV XORed with the packet number (RFC 9001 §5.3).

        Bytewise XOR against the zero-extended packet number equals one
        96-bit integer XOR, which is a single C-level operation instead
        of a 12-step generator on this per-packet path.
        """
        return (self.iv_int ^ packet_number).to_bytes(12, "big")


class _InitialLabels(NamedTuple):
    """The five HKDF-Expand messages (``HkdfLabel || 0x01``) of a label set.

    No Initial output exceeds one SHA-256 block, so each Expand-Label is
    ``HMAC(secret, info || 0x01)`` truncated — and ``info`` depends on
    nothing but the label and the output length.
    """

    client_in: bytes
    server_in: bytes
    key: bytes
    iv: bytes
    hp: bytes


def _initial_labels(prefix: str) -> _InitialLabels:
    def message(label: str, length: int) -> bytes:
        return expand_label_info(label, b"", length) + b"\x01"

    return _InitialLabels(
        client_in=message("client in", 32),
        server_in=message("server in", 32),
        key=message(prefix + " key", 16),
        iv=message(prefix + " iv", 12),
        hp=message(prefix + " hp", 16),
    )


_V1_LABELS = _initial_labels("quic")
#: RFC 9369 §3.3.2: QUIC v2 changes the salt *and* the key/iv/hp labels.
_V2_LABELS = _initial_labels("quicv2")


def expand_direction(
    initial_secret: bytes, labels: _InitialLabels, is_server: bool
) -> tuple[bytes, bytes, bytes]:
    """``(key, iv, hp)`` of one direction: its four HKDF-Expand-Labels.

    Each HMAC-SHA256 (RFC 2104) is written out as its two hashes: a
    32-byte secret zero-padded to the block, XORed into the pads.
    """
    key = initial_secret.ljust(64, b"\x00")
    inner = sha256(
        key.translate(IPAD) + (labels.server_in if is_server else labels.client_in)
    ).digest()
    key = sha256(key.translate(OPAD) + inner).digest().ljust(64, b"\x00")
    ipad, opad = key.translate(IPAD), key.translate(OPAD)
    return (
        sha256(opad + sha256(ipad + labels.key).digest()).digest()[:16],
        sha256(opad + sha256(ipad + labels.iv).digest()).digest()[:12],
        sha256(opad + sha256(ipad + labels.hp).digest()).digest()[:16],
    )


class InitialKeys:
    """Both directions of Initial key material for one connection.

    Holds the Initial secret.  The ``client`` and ``server`` slots start
    empty; reading an empty slot lands in :meth:`__getattr__`, which
    expands that direction and fills it, so every later read is a plain
    slot load.  Compares by value and is not hashable; each
    :class:`~repro.quic.crypto.suites.PacketProtection` derives its own.
    """

    __slots__ = ("initial_secret", "labels", "client", "server")

    def __init__(self, initial_secret: bytes, labels: _InitialLabels = _V1_LABELS) -> None:
        self.initial_secret = initial_secret
        self.labels = labels

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InitialKeys) and (
            (self.initial_secret, self.labels) == (other.initial_secret, other.labels)
        )

    def __getattr__(self, name: str) -> DirectionKeys:
        # Reached only while the slot ``name`` is empty: expand it, once.
        if name not in ("client", "server"):
            raise AttributeError(name)
        keys = DirectionKeys(
            *expand_direction(self.initial_secret, self.labels, name == "server")
        )
        setattr(self, name, keys)
        return keys

    def for_sender(self, is_server: bool) -> DirectionKeys:
        return self.server if is_server else self.client


def _extract(version: int, client_dcid: bytes) -> tuple[bytes, _InitialLabels]:
    """HKDF-Extract of the Initial secret, and the version's label set."""
    return (
        hkdf_extract(initial_salt(version), client_dcid),
        _V2_LABELS if version == quic_version.QUIC_V2.value else _V1_LABELS,
    )


def derive_initial_keys(version: int, client_dcid: bytes) -> InitialKeys:
    """Start the RFC 9001 §5.2 schedule: HKDF-Extract of the Initial secret.

    The per-direction Expand-Labels run when :attr:`InitialKeys.client`
    or :attr:`InitialKeys.server` is first read.
    """
    return InitialKeys(*_extract(version, client_dcid))


def initial_direction(
    version: int, client_dcid: bytes, is_server: bool = False
) -> tuple[bytes, bytes, bytes]:
    """``(key, iv, hp)`` of one direction, with no key object: 5 HMACs.

    The bytes :func:`derive_initial_keys` gives that direction, for a
    sender that seals one packet through a suite's ``seal`` and keeps
    nothing.
    """
    return expand_direction(*_extract(version, client_dcid), is_server)
