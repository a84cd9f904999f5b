"""Packet types, the vocabulary a ``.capidx`` sidecar stores: kept out of
the codec (:mod:`repro.quic.packet` re-exports them), so that reading a
capture loads no codec and no AEAD."""

import enum


class PacketType(enum.Enum):
    """Long-header packet types plus the two special on-wire forms."""

    INITIAL = 0
    ZERO_RTT = 1
    HANDSHAKE = 2
    RETRY = 3
    VERSION_NEGOTIATION = 4
    ONE_RTT = 5

    @property
    def label(self) -> str:
        return PACKET_LABELS[self._value_]


#: Display label per :class:`PacketType` value (same indexing).
PACKET_LABELS = (
    "Initial",
    "0-RTT",
    "Handshake",
    "Retry",
    "VersionNegotiation",
    "1-RTT",
)
