"""Packet protection suites: the RFC 9001 AEAD path and a fast stand-in.

Both suites share the protection *driver*: header-protection masking of the
first byte and packet-number field, nonce construction, and AEAD sealing of
the payload with the header as associated data.  They differ only in the
AEAD and the mask primitive:

* :class:`Rfc9001Protection` — AES-128-GCM payload protection and AES-ECB
  header protection, exactly as RFC 9001 specifies.  Verified against the
  RFC's Appendix-A vectors.
* :class:`FastProtection` — SHA-256 keystream + truncated-HMAC tag and a
  SHA-256 mask.  Structurally identical packets (same lengths, same header
  bits, same failure modes) at ~100x the speed, used for bulk simulation.

A dissector can tell which suite protected a packet only by attempting to
unprotect — the same situation a telescope faces with unknown stacks.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.quic.crypto.gcm import AuthenticationError
from repro.quic.crypto.hkdf import hmac_sha256
from repro.quic.crypto.initial import DirectionKeys, InitialKeys
from repro.quic.crypto.memo import cached_aes, cached_gcm, cached_initial_keys

#: RFC 9001 §5.4.2: at least 4 bytes after the packet-number offset must
#: exist before the 16-byte header-protection sample.
SAMPLE_OFFSET = 4
SAMPLE_LENGTH = 16
TAG_LENGTH = 16


class ProtectionError(ValueError):
    """Raised when a packet cannot be unprotected (not QUIC / wrong keys)."""


class PacketProtection:
    """Base driver for Initial packet protection.

    Subclasses provide ``_seal``, ``_open``, and ``_hp_mask``; the driver
    implements the byte-level header protection dance shared by all suites.
    """

    name = "abstract"

    def __init__(self, version: int, client_dcid: bytes) -> None:
        self.version = version
        self.client_dcid = bytes(client_dcid)
        # Memoized per (version, DCID): scanners and retransmitting
        # clients re-present the same DCID, and dissectors re-derive the
        # same schedule the engine just used (see repro.quic.crypto.memo).
        self.keys: InitialKeys = cached_initial_keys(version, self.client_dcid)

    # -- primitives supplied by subclasses ---------------------------------
    def _seal(self, keys: DirectionKeys, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        raise NotImplementedError

    def _open(self, keys: DirectionKeys, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        raise NotImplementedError

    def _hp_mask(self, keys: DirectionKeys, sample: bytes) -> bytes:
        raise NotImplementedError

    # -- driver -------------------------------------------------------------
    def protect(
        self,
        is_server: bool,
        header: bytes,
        packet_number: int,
        payload: bytes,
    ) -> bytes:
        """Protect one packet.

        ``header`` is the complete unprotected header *including* the encoded
        packet-number field as its trailing bytes; the packet-number length is
        taken from the two low bits of the first header byte (RFC 9000 §17.2).
        Returns header-protected header || sealed payload.
        """
        keys = self.keys.for_sender(is_server)
        pn_length = (header[0] & 0x03) + 1
        pn_offset = len(header) - pn_length
        nonce = keys.nonce(packet_number)
        sealed = self._seal(keys, nonce, payload, header)
        packet = bytearray(header + sealed)
        sample_start = pn_offset + SAMPLE_OFFSET
        sample = bytes(packet[sample_start : sample_start + SAMPLE_LENGTH])
        if len(sample) != SAMPLE_LENGTH:
            raise ProtectionError("packet too short to sample for header protection")
        mask = self._hp_mask(keys, sample)
        packet[0] ^= mask[0] & (0x0F if packet[0] & 0x80 else 0x1F)
        for i in range(pn_length):
            packet[pn_offset + i] ^= mask[1 + i]
        return bytes(packet)

    def unprotect(
        self,
        from_server: bool,
        packet: bytes,
        pn_offset: int,
        largest_pn: int = 0,
    ) -> tuple[bytes, int, int]:
        """Reverse :meth:`protect`.

        ``packet`` must start at the first byte of the QUIC packet and run at
        least to the end of the protected payload (a coalesced datagram tail
        is fine).  Returns ``(plaintext_payload, packet_number, pn_length)``.
        """
        keys = self.keys.for_sender(from_server)
        sample_start = pn_offset + SAMPLE_OFFSET
        sample = packet[sample_start : sample_start + SAMPLE_LENGTH]
        if len(sample) != SAMPLE_LENGTH:
            raise ProtectionError("truncated packet: no header-protection sample")
        mask = self._hp_mask(keys, sample)
        first = packet[0] ^ (mask[0] & (0x0F if packet[0] & 0x80 else 0x1F))
        pn_length = (first & 0x03) + 1
        pn_bytes = bytearray(packet[pn_offset : pn_offset + pn_length])
        for i in range(pn_length):
            pn_bytes[i] ^= mask[1 + i]
        truncated_pn = int.from_bytes(pn_bytes, "big")
        packet_number = decode_packet_number(truncated_pn, pn_length * 8, largest_pn)
        header = bytes([first]) + packet[1:pn_offset] + bytes(pn_bytes)
        sealed = packet[pn_offset + pn_length :]
        nonce = keys.nonce(packet_number)
        try:
            plaintext = self._open(keys, nonce, sealed, header)
        except AuthenticationError as exc:
            raise ProtectionError(str(exc)) from exc
        return plaintext, packet_number, pn_length


def decode_packet_number(truncated: int, bits: int, largest_pn: int) -> int:
    """Recover a full packet number from its truncated encoding (RFC 9000 A.3)."""
    expected = largest_pn + 1
    window = 1 << bits
    half = window // 2
    mask = window - 1
    candidate = (expected & ~mask) | truncated
    if candidate <= expected - half and candidate < (1 << 62) - window:
        return candidate + window
    if candidate > expected + half and candidate >= window:
        return candidate - window
    return candidate


class Rfc9001Protection(PacketProtection):
    """Real RFC 9001 Initial protection: AES-128-GCM + AES-ECB header mask."""

    name = "rfc9001"

    # AES schedules and GHASH tables are memoized process-wide (they are
    # pure functions of the 16-byte key), so two connections sharing a
    # DCID — or a dissector re-opening what the engine sealed — expand
    # each key exactly once.

    def _seal(self, keys: DirectionKeys, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        return cached_gcm(keys.key).seal(nonce, plaintext, aad)

    def _open(self, keys: DirectionKeys, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        return cached_gcm(keys.key).open(nonce, sealed, aad)

    def _hp_mask(self, keys: DirectionKeys, sample: bytes) -> bytes:
        return cached_aes(keys.hp).encrypt_block(sample)[:5]


class FastProtection(PacketProtection):
    """Keystream/HMAC stand-in suite for bulk simulation.

    Same key schedule, same packet layout, same 16-byte tag, same
    tamper-detection behaviour; only the primitives are cheaper.
    """

    name = "fast"

    @staticmethod
    def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
        # SHAKE-256 produces the whole keystream in one native call.
        return hashlib.shake_256(key + nonce).digest(length)

    @staticmethod
    def _xor(data: bytes, stream: bytes) -> bytes:
        # Whole-buffer XOR via big-int arithmetic: one C-level operation
        # instead of a per-byte generator.  Every byte, PADDING included:
        # the reference the fused ``protect`` below is held to.
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(len(data), "big")

    def _seal(self, keys: DirectionKeys, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        stream = self._keystream(keys.key, nonce, len(plaintext))
        ciphertext = self._xor(plaintext, stream)
        tag = hmac_sha256(keys.key, nonce + aad + ciphertext)
        return ciphertext + tag[:TAG_LENGTH]

    def protect(
        self,
        is_server: bool,
        header: bytes,
        packet_number: int,
        payload: bytes,
    ) -> bytes:
        """Fused seal + header protection.

        Byte-identical to the base driver (the suite tests hold it to
        ``PacketProtection.protect``, the reference); it exists to collapse
        the five Python-level calls per packet — for_sender, _seal,
        _keystream, _xor, _hp_mask — into straight-line code, and to XOR
        only up to the payload's last non-zero byte: under the PADDING the
        ciphertext *is* the keystream.
        """
        keys = self.keys.server if is_server else self.keys.client
        key = keys.key
        nonce = (keys.iv_int ^ packet_number).to_bytes(12, "big")
        stream = hashlib.shake_256(key + nonce).digest(len(payload))
        body = len(payload.rstrip(b"\x00"))
        ciphertext = (
            int.from_bytes(payload[:body], "big") ^ int.from_bytes(stream[:body], "big")
        ).to_bytes(body, "big") + stream[body:]
        tag = hmac_sha256(key, nonce + header + ciphertext)[:TAG_LENGTH]
        pn_length = (header[0] & 0x03) + 1
        pn_offset = len(header) - pn_length
        # The sample window opens SAMPLE_OFFSET past the packet-number offset:
        # this far into the ciphertext, and into the tag only when that ends early.
        first = SAMPLE_OFFSET - pn_length
        sample = ciphertext[first : first + SAMPLE_LENGTH]
        if len(sample) != SAMPLE_LENGTH:
            sample = (ciphertext + tag)[first : first + SAMPLE_LENGTH]
        if len(sample) != SAMPLE_LENGTH:
            raise ProtectionError("packet too short to sample for header protection")
        mask = hashlib.sha256(keys.hp + sample).digest()
        masked = bytearray(header)
        masked[0] ^= mask[0] & (0x0F if header[0] & 0x80 else 0x1F)
        for i in range(pn_length):
            masked[pn_offset + i] ^= mask[1 + i]
        return b"".join((masked, ciphertext, tag))

    def _open(self, keys: DirectionKeys, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        if len(sealed) < TAG_LENGTH:
            raise AuthenticationError("ciphertext shorter than tag")
        ciphertext, tag = sealed[:-TAG_LENGTH], sealed[-TAG_LENGTH:]
        expected = hmac_sha256(keys.key, nonce + aad + ciphertext)[:TAG_LENGTH]
        if not hmac.compare_digest(tag, expected):
            raise AuthenticationError("tag mismatch")
        stream = self._keystream(keys.key, nonce, len(ciphertext))
        return self._xor(ciphertext, stream)

    def _hp_mask(self, keys: DirectionKeys, sample: bytes) -> bytes:
        return hashlib.sha256(keys.hp + sample).digest()[:5]


class NullProtection(PacketProtection):
    """Zero-cost suite for bulk active-scan scenarios.

    Packets keep the exact wire layout (16-byte tag, masked header fields —
    the mask is all-zero) but no cryptography runs.  Only used where the
    experiment measures routing/enumeration, never where the sanitization
    pipeline's AEAD check matters.
    """

    name = "null"

    #: Never read (no primitive below takes key material), so its lazy
    #: directions are never expanded: no HKDF runs for this suite.
    _UNUSED_KEYS = InitialKeys(b"\x00" * 32)

    def __init__(self, version: int, client_dcid: bytes) -> None:
        self.version = version
        self.client_dcid = bytes(client_dcid)
        self.keys = self._UNUSED_KEYS

    def _seal(self, keys: DirectionKeys, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        return plaintext + b"\x00" * TAG_LENGTH

    def _open(self, keys: DirectionKeys, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        if len(sealed) < TAG_LENGTH:
            raise AuthenticationError("ciphertext shorter than tag")
        return sealed[:-TAG_LENGTH]

    def _hp_mask(self, keys: DirectionKeys, sample: bytes) -> bytes:
        return b"\x00" * 5

    # The all-zero mask leaves the header untouched, so the whole driver
    # dance collapses; overriding it removes the remaining per-packet cost.
    def protect(self, is_server, header, packet_number, payload):  # noqa: D102
        return header + payload + b"\x00" * TAG_LENGTH

    def unprotect(self, from_server, packet, pn_offset, largest_pn=0):  # noqa: D102
        pn_length = (packet[0] & 0x03) + 1
        if len(packet) < pn_offset + pn_length + TAG_LENGTH:
            raise ProtectionError("truncated packet")
        packet_number = int.from_bytes(
            packet[pn_offset : pn_offset + pn_length], "big"
        )
        return packet[pn_offset + pn_length : -TAG_LENGTH], packet_number, pn_length


#: Suites a dissector should attempt, in order, when classifying traffic.
DEFAULT_SUITES: tuple[type, ...] = (FastProtection, Rfc9001Protection)

_SUITES = {cls.name: cls for cls in (FastProtection, Rfc9001Protection, NullProtection)}


def suite_by_name(name: str) -> type:
    try:
        return _SUITES[name]
    except KeyError:
        raise KeyError("unknown protection suite %r" % name) from None
