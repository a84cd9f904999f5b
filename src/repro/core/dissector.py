"""Wireshark-equivalent QUIC dissection for sanitization.

The paper removes UDP/443 false positives "based on the packet payload
using Wireshark dissectors".  This module reimplements that decision:

* structural validation of the long header chain (form/fixed bits, a
  version from a known family, sane CID lengths, a Length field consistent
  with the datagram), and
* for client Initials, on request, *cryptographic* validation: Initial
  keys are derivable from the DCID alone (RFC 9001 §5.2), so a dissector
  can check the payload's AEAD tag.  Wireshark attempts to decrypt too
  but labels the packet QUIC whether or not it does; rejecting on a
  failed tag is this repository's addition, and the sanitisation
  verdict asks for it only for records its next step keeps
  (:func:`repro.capstore.dissect.record_verdict`).  The check
  authenticates and does not decrypt: no verdict reads the plaintext.

Server Initials cannot be decrypted passively (their keys derive from the
*client's* original DCID, which backscatter does not contain), so for
backscatter the structural check is the operative one — same as Wireshark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.quic.crypto.initial import derive_initial_keys
from repro.quic.crypto.suites import (
    FastProtection,
    ProtectionError,
    Rfc9001Protection,
)
from repro.quic.packet import (
    DCID_AT,
    PacketParseError,
    PacketType,
    ParsedLongHeader,
    parsed_header,
    scan_datagram,
)
from repro.quic.version import family as version_family

#: Families the dissector accepts as "known QUIC".
_KNOWN_FAMILIES = {"v1", "v2", "draft", "mvfst", "gquic", "reserved"}

#: Suites tried (in order) when cryptographically validating a client
#: Initial.  FastProtection first: it is the bulk-simulation default.
VALIDATION_SUITES = (FastProtection, Rfc9001Protection)

_INITIAL = PacketType.INITIAL.value
_HANDSHAKE = PacketType.HANDSHAKE.value
_VERSION_NEGOTIATION = PacketType.VERSION_NEGOTIATION.value


class DissectError(ValueError):
    """Raised when a UDP payload is not valid QUIC."""


@dataclass
class DissectedDatagram:
    """Dissection result for one UDP payload."""

    packets: list[ParsedLongHeader]
    #: True if a client Initial's AEAD tag was checked (crypto-validated).
    crypto_validated: bool = False

    @property
    def coalesced(self) -> bool:
        return len(self.packets) > 1


def dissect_at(
    data: bytes, start: int, end: int, validate_crypto: bool = False
) -> list[tuple]:
    """Dissect the UDP payload ``data[start:end]`` in place.

    Returns the long-header chain as :func:`~repro.quic.packet.scan_datagram`
    located it (one :data:`~repro.quic.packet.SCANNED_FIELDS` tuple per
    packet) once every packet passed the checks above; raises
    :class:`DissectError` if the payload is not QUIC.
    """
    if end - start < 7:  # smallest conceivable long header
        raise DissectError("payload too short for a QUIC long header")
    try:
        packets = scan_datagram(data, start, end)
    except PacketParseError as exc:
        raise DissectError(str(exc)) from exc

    for scanned in packets:
        at, kind, version, _, _, body_at, _, _, packet_length, payload_length = scanned
        if kind == _VERSION_NEGOTIATION:
            if at + packet_length - body_at < 4:
                raise DissectError("version negotiation without versions")
            continue
        if version_family(version) not in _KNOWN_FAMILIES:
            raise DissectError("unknown QUIC version 0x%08x" % version)
        if kind == _INITIAL or kind == _HANDSHAKE:
            # The protected payload must hold a packet number sample and tag.
            if payload_length < 1 + 4 + 16:
                raise DissectError("protected payload implausibly short")

    if validate_crypto and not _validate_client_initial(data, packets):
        raise DissectError("Initial payload fails AEAD validation")
    return packets


def dissect_datagram(payload: bytes, validate_crypto: bool = False) -> DissectedDatagram:
    """Dissect a UDP payload; raise :class:`DissectError` if it is not QUIC.

    The object-building form of :func:`dissect_at`.
    """
    packets = dissect_at(payload, 0, len(payload), validate_crypto)
    return DissectedDatagram(
        packets=[parsed_header(payload, scanned) for scanned in packets],
        crypto_validated=validate_crypto,
    )


def _validate_client_initial(data: bytes, packets: list[tuple]) -> bool:
    """Authenticate the first client Initial under any of the known suites.

    One Initial key schedule serves every suite tried.  Datagrams without
    an Initial (e.g. replayed 0-RTT) cannot be validated cryptographically
    — their keys are not derivable — so they pass on the structural checks
    alone, as in Wireshark.
    """
    for scanned in packets:
        at, kind, version, dcid_len, _, _, _, pn_offset, packet_length, _ = scanned
        if kind != _INITIAL:
            continue
        dcid = data[at + DCID_AT : at + DCID_AT + dcid_len]
        packet = data[at : at + packet_length]
        keys = derive_initial_keys(version, dcid)
        for suite_cls in VALIDATION_SUITES:
            try:
                suite_cls(version, dcid, keys).unprotect(
                    False, packet, pn_offset, decrypt=False
                )
            except ProtectionError:
                continue
            return True
        return False
    return True


def is_quic_datagram(payload: bytes, validate_crypto: bool = False) -> bool:
    """Boolean form of :func:`dissect_datagram`."""
    try:
        dissect_datagram(payload, validate_crypto=validate_crypto)
        return True
    except DissectError:
        return False
