"""RFC 9001 §5.2 Initial secret derivation.

Initial packets are protected with keys derived solely from the client's
first Destination Connection ID and a version-specific salt.  Any observer
of the first flight — which includes a network telescope — can therefore
decrypt Initial packets; this is exactly what Wireshark's dissector does and
what our sanitization pipeline relies on.

The schedule is HKDF-Extract plus, per direction, four single-block
HKDF-Expand-Labels ("client in"/"server in", then key, iv, hp).  Almost
every caller reads one direction only — a dissector opens client
Initials, a spoofing client seals them — so :func:`derive_initial_keys`
runs the Extract alone and :class:`InitialKeys` expands a direction the
first time it is read: 5 HMACs for a one-sided user, 9 for the server
engine, which needs both.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from repro.quic import version as quic_version
from repro.quic.crypto.hkdf import expand_label_info, hkdf_extract

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

    Unknown versions (including mvfst, which reuses the draft derivation)
    fall back to the draft-29 salt; this mirrors how dissectors try a small
    set of salts when classifying traffic.
    """
    if version in INITIAL_SALTS:
        return INITIAL_SALTS[version]
    if (version >> 8) == 0xFACEB0:
        return INITIAL_SALTS[quic_version.DRAFT_29.value]
    return INITIAL_SALTS[quic_version.QUIC_V1.value]


@dataclass(frozen=True)
class DirectionKeys:
    """AEAD key material for one direction of an Initial exchange."""

    key: bytes  # 16 bytes (AES-128)
    iv: bytes  # 12 bytes
    hp: bytes  # 16 bytes, header protection key

    def __post_init__(self) -> None:
        # The IV as a 96-bit integer; derived state on a frozen dataclass
        # needs object.__setattr__.  Memoized key objects are shared
        # across every packet of a connection, so the conversion happens
        # once per key instead of once per nonce.
        object.__setattr__(self, "iv_int", int.from_bytes(self.iv, "big"))

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


@dataclass(frozen=True)
class InitialKeys:
    """Both directions of Initial key material for one connection.

    Holds the Initial secret; ``client`` and ``server`` are each expanded
    on first access and then kept (``cached_property`` stores into the
    instance ``__dict__``, which a frozen dataclass still has).
    """

    initial_secret: bytes
    labels: _InitialLabels = _V1_LABELS

    def _direction(self, secret_label: bytes) -> DirectionKeys:
        labels = self.labels
        secret = hmac.digest(self.initial_secret, secret_label, "sha256")
        return DirectionKeys(
            key=hmac.digest(secret, labels.key, "sha256")[:16],
            iv=hmac.digest(secret, labels.iv, "sha256")[:12],
            hp=hmac.digest(secret, labels.hp, "sha256")[:16],
        )

    @cached_property
    def client(self) -> DirectionKeys:
        return self._direction(self.labels.client_in)

    @cached_property
    def server(self) -> DirectionKeys:
        return self._direction(self.labels.server_in)

    def for_sender(self, is_server: bool) -> DirectionKeys:
        return self.server if is_server else self.client


def derive_initial_keys(version: int, client_dcid: bytes) -> InitialKeys:
    """Start the RFC 9001 §5.2 schedule: HKDF-Extract of the Initial secret.

    The per-direction Expand-Labels run when :attr:`InitialKeys.client`
    or :attr:`InitialKeys.server` is first read.
    """
    return InitialKeys(
        hkdf_extract(initial_salt(version), client_dcid),
        _V2_LABELS if version == quic_version.QUIC_V2.value else _V1_LABELS,
    )
