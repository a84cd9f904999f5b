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

Every suite's :meth:`~PacketProtection.seal` protects one packet under one
direction's raw key bytes, with no key object.  A suite's ``protect`` runs
the same code on a direction of its connection's schedule; a sender that
seals one Initial and keeps nothing
(``repro.workloads.clients.stateless_initial``) calls ``seal`` on
:func:`~repro.quic.crypto.initial.initial_direction`'s bytes.

A dissector can tell which suite protected a packet only by attempting to
open it — the same situation a telescope faces with unknown stacks.  Its
attempt is :meth:`PacketProtection.unprotect` with ``decrypt=False``: the
header-protection removal and the tag check, without the decryption,
whose plaintext a verdict never reads.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.quic.crypto.gcm import AuthenticationError
from repro.quic.crypto.hkdf import hmac_sha256
from repro.quic.crypto.initial import DirectionKeys, InitialKeys, derive_initial_keys
from repro.quic.crypto.memo import cached_aes, cached_gcm

#: RFC 9001 §5.4.2: at least 4 bytes after the packet-number offset must
#: exist before the 16-byte header-protection sample.
SAMPLE_OFFSET = 4
SAMPLE_LENGTH = 16
TAG_LENGTH = 16


class ProtectionError(ValueError):
    """Raised when a packet cannot be unprotected (not QUIC / wrong keys)."""


class PacketProtection:
    """Base driver for Initial packet protection.

    Subclasses provide ``_seal``, ``_verify``, ``_open`` and ``_hp_mask``,
    each over raw key bytes (the AEAD key, or the header-protection key);
    the driver implements the byte-level header protection dance shared by
    all suites.  A suite writes its tag check once, in ``_verify``, and its
    ``_open`` runs that check before it decrypts.
    """

    name = "abstract"

    def __init__(
        self, version: int, client_dcid: bytes, keys: InitialKeys | None = None
    ) -> None:
        """``keys``, when given, is the schedule of ``(version, client_dcid)``
        a caller derived already: suites that try one packet in turn share
        one derivation, and one expansion of the direction they read."""
        self.version = version
        self.client_dcid = bytes(client_dcid)
        if keys is None:
            keys = derive_initial_keys(version, self.client_dcid)
        self.keys: InitialKeys = keys

    # -- primitives supplied by subclasses ---------------------------------
    @staticmethod
    def _seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        raise NotImplementedError

    @staticmethod
    def _verify(key: bytes, nonce: bytes, sealed: bytes, aad: bytes) -> bool:
        raise NotImplementedError

    @staticmethod
    def _open(key: bytes, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        raise NotImplementedError

    @staticmethod
    def _hp_mask(hp: bytes, sample: bytes) -> bytes:
        raise NotImplementedError

    # -- driver -------------------------------------------------------------
    @classmethod
    def _drive(
        cls,
        key: bytes,
        nonce: bytes,
        hp: bytes,
        header: bytes,
        payload: bytes,
        padding: int = 0,
    ) -> bytes:
        """The generic driver over the suite's primitives (see :meth:`seal`).

        :meth:`protect` calls it by this name, so a suite that overrides
        ``seal`` with a fused form is still held to it by
        ``PacketProtection.protect(suite_instance, …)``.
        """
        pn_length = (header[0] & 0x03) + 1
        pn_offset = len(header) - pn_length
        if padding:
            payload += bytes(padding)
        sealed = cls._seal(key, nonce, payload, header)
        packet = bytearray(header + sealed)
        sample_start = pn_offset + SAMPLE_OFFSET
        sample = bytes(packet[sample_start : sample_start + SAMPLE_LENGTH])
        if len(sample) != SAMPLE_LENGTH:
            raise ProtectionError("packet too short to sample for header protection")
        mask = cls._hp_mask(hp, sample)
        packet[0] ^= mask[0] & (0x0F if packet[0] & 0x80 else 0x1F)
        for i in range(pn_length):
            packet[pn_offset + i] ^= mask[1 + i]
        return bytes(packet)

    #: ``seal(key, nonce, hp, header, payload, padding=0)``: protect one
    #: packet under one direction's AEAD key, nonce (its IV XORed with the
    #: packet number; packet 0's is the IV) and header-protection key.
    #: ``header`` is the complete unprotected header *including* the encoded
    #: packet-number field as its trailing bytes; the packet-number length
    #: is taken from the two low bits of the first header byte (RFC 9000
    #: §17.2).  The plaintext is ``payload`` followed by ``padding`` zero
    #: bytes (PADDING frames), which a caller that knows their count need
    #: not build.  Returns header-protected header || sealed payload.
    seal = _drive

    def protect(
        self,
        is_server: bool,
        header: bytes,
        packet_number: int,
        payload: bytes,
        padding: int = 0,
    ) -> bytes:
        """Protect one packet under this connection's ``is_server`` direction
        (see :meth:`seal` for ``header``, ``payload`` and ``padding``)."""
        keys = self.keys.for_sender(is_server)
        return self._drive(
            keys.key, keys.nonce(packet_number), keys.hp, header, payload, padding
        )

    def unprotect(
        self,
        from_server: bool,
        packet: bytes,
        pn_offset: int,
        largest_pn: int = 0,
        decrypt: bool = True,
    ) -> tuple[bytes | None, int, int]:
        """Reverse :meth:`protect`.

        ``packet`` must start at the first byte of the QUIC packet and run at
        least to the end of the protected payload (a coalesced datagram tail
        is fine).  Returns ``(plaintext_payload, packet_number, pn_length)``;
        raises :class:`ProtectionError` if the packet does not open.

        With ``decrypt=False`` the tag is checked and the payload is not
        decrypted: the plaintext returned is ``None``, and a packet raises
        exactly where it would have raised with ``decrypt=True``.  That is
        a dissector's check, which asks only "does this open?".
        """
        keys, header, sealed, packet_number, pn_length = self._unmask(
            from_server, packet, pn_offset, largest_pn
        )
        nonce = keys.nonce(packet_number)
        if not decrypt:
            if not self._verify(keys.key, nonce, sealed, header):
                raise ProtectionError("AEAD tag mismatch")
            return None, packet_number, pn_length
        try:
            plaintext = self._open(keys.key, nonce, sealed, header)
        except AuthenticationError as exc:
            raise ProtectionError(str(exc)) from exc
        return plaintext, packet_number, pn_length

    def _unmask(
        self, from_server: bool, packet: bytes, pn_offset: int, largest_pn: int
    ) -> tuple[DirectionKeys, bytes, bytes, int, int]:
        """Remove header protection: ``(keys, header, sealed, pn, pn_length)``.

        ``header`` is the unprotected header (the AEAD's associated data)
        and ``sealed`` the ciphertext and tag after it.
        """
        keys = self.keys.for_sender(from_server)
        sample_start = pn_offset + SAMPLE_OFFSET
        sample = packet[sample_start : sample_start + SAMPLE_LENGTH]
        if len(sample) != SAMPLE_LENGTH:
            raise ProtectionError("truncated packet: no header-protection sample")
        mask = self._hp_mask(keys.hp, sample)
        first = packet[0] ^ (mask[0] & (0x0F if packet[0] & 0x80 else 0x1F))
        pn_length = (first & 0x03) + 1
        pn_bytes = bytearray(packet[pn_offset : pn_offset + pn_length])
        for i in range(pn_length):
            pn_bytes[i] ^= mask[1 + i]
        truncated_pn = int.from_bytes(pn_bytes, "big")
        packet_number = decode_packet_number(truncated_pn, pn_length * 8, largest_pn)
        header = bytes([first]) + packet[1:pn_offset] + bytes(pn_bytes)
        sealed = packet[pn_offset + pn_length :]
        return keys, header, sealed, packet_number, pn_length


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

    @staticmethod
    def _seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        return cached_gcm(key).seal(nonce, plaintext, aad)

    @staticmethod
    def _verify(key: bytes, nonce: bytes, sealed: bytes, aad: bytes) -> bool:
        return cached_gcm(key).verify(nonce, sealed, aad)

    @staticmethod
    def _open(key: bytes, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        return cached_gcm(key).open(nonce, sealed, aad)

    @staticmethod
    def _hp_mask(hp: bytes, sample: bytes) -> bytes:
        return cached_aes(hp).encrypt_block(sample)[:5]


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
        # the reference the fused :meth:`seal` is held to.
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(len(data), "big")

    @classmethod
    def _seal(cls, key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        ciphertext = cls._xor(plaintext, cls._keystream(key, nonce, len(plaintext)))
        return ciphertext + hmac_sha256(key, nonce, aad, ciphertext)[:TAG_LENGTH]

    @staticmethod
    def seal(
        key: bytes,
        nonce: bytes,
        hp: bytes,
        header: bytes,
        payload: bytes,
        padding: int = 0,
    ) -> bytes:
        """The driver, fused into straight-line code.

        Byte-identical to ``PacketProtection._drive`` over the suite's
        primitives (the suite tests hold it to ``PacketProtection.protect``,
        the reference); it collapses the driver's calls into one, and XORs
        only ``payload``: under the ``padding`` the ciphertext *is* the
        keystream.
        """
        body = len(payload)
        stream = hashlib.shake_256(key + nonce).digest(body + padding)
        ciphertext = (
            int.from_bytes(payload, "big") ^ int.from_bytes(stream[:body], "big")
        ).to_bytes(body, "big") + stream[body:]
        tag = hmac_sha256(key, nonce, header, ciphertext)[:TAG_LENGTH]
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
        mask = hashlib.sha256(hp + sample).digest()
        masked = bytearray(header)
        masked[0] ^= mask[0] & (0x0F if header[0] & 0x80 else 0x1F)
        for i in range(pn_length):
            masked[pn_offset + i] ^= mask[1 + i]
        return b"".join((masked, ciphertext, tag))

    def protect(
        self,
        is_server: bool,
        header: bytes,
        packet_number: int,
        payload: bytes,
        padding: int = 0,
    ) -> bytes:
        keys = self.keys.server if is_server else self.keys.client
        return self.seal(
            keys.key,
            (keys.iv_int ^ packet_number).to_bytes(12, "big"),
            keys.hp,
            header,
            payload,
            padding,
        )

    @staticmethod
    def _verify(key: bytes, nonce: bytes, sealed: bytes, aad: bytes) -> bool:
        if len(sealed) < TAG_LENGTH:
            return False
        ciphertext, tag = sealed[:-TAG_LENGTH], sealed[-TAG_LENGTH:]
        expected = hmac_sha256(key, nonce + aad + ciphertext)[:TAG_LENGTH]
        return hmac.compare_digest(tag, expected)

    @classmethod
    def _open(cls, key: bytes, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        if not cls._verify(key, nonce, sealed, aad):
            raise AuthenticationError("tag mismatch")
        ciphertext = sealed[:-TAG_LENGTH]
        return cls._xor(ciphertext, cls._keystream(key, nonce, len(ciphertext)))

    @staticmethod
    def _hp_mask(hp: bytes, sample: bytes) -> bytes:
        return hashlib.sha256(hp + sample).digest()[:5]


class NullProtection(PacketProtection):
    """Zero-cost suite for bulk active-scan scenarios.

    Packets keep the exact wire layout (16-byte tag, masked header fields —
    the mask is all-zero) but no cryptography runs.  Only used where the
    experiment measures routing/enumeration, never where the sanitization
    pipeline's AEAD check matters.
    """

    name = "null"

    #: Stands in for a derived schedule, which no primitive below reads:
    #: only :meth:`unprotect` reads a direction of it, for a nonce nothing
    #: uses, so each direction is expanded once per process.
    _UNUSED_KEYS = InitialKeys(b"\x00" * 32)

    def __init__(
        self, version: int, client_dcid: bytes, keys: InitialKeys | None = None
    ) -> None:
        super().__init__(
            version, client_dcid, self._UNUSED_KEYS if keys is None else keys
        )

    @staticmethod
    def _seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        return plaintext + b"\x00" * TAG_LENGTH

    @staticmethod
    def _verify(key: bytes, nonce: bytes, sealed: bytes, aad: bytes) -> bool:
        return len(sealed) >= TAG_LENGTH

    @classmethod
    def _open(cls, key: bytes, nonce: bytes, sealed: bytes, aad: bytes) -> bytes:
        if not cls._verify(key, nonce, sealed, aad):
            raise AuthenticationError("ciphertext shorter than tag")
        return sealed[:-TAG_LENGTH]

    # The all-zero mask leaves the header untouched, so the whole driver
    # dance collapses; overriding it removes the remaining per-packet cost.
    @staticmethod
    def seal(key, nonce, hp, header, payload, padding=0):  # noqa: D102
        return header + payload + bytes(padding + TAG_LENGTH)

    def protect(self, is_server, header, packet_number, payload, padding=0):  # noqa: D102
        return self.seal(b"", b"", b"", header, payload, padding)

    def _unmask(self, from_server, packet, pn_offset, largest_pn):
        # No mask to remove: the header is as sent.
        pn_length = (packet[0] & 0x03) + 1
        pn_end = pn_offset + pn_length
        if len(packet) < pn_end + TAG_LENGTH:
            raise ProtectionError("truncated packet")
        truncated_pn = int.from_bytes(packet[pn_offset:pn_end], "big")
        packet_number = decode_packet_number(truncated_pn, pn_length * 8, largest_pn)
        keys = self.keys.for_sender(from_server)
        return keys, packet[:pn_end], packet[pn_end:], packet_number, pn_length


#: Suites a dissector should attempt, in order, when classifying traffic.
DEFAULT_SUITES: tuple[type, ...] = (FastProtection, Rfc9001Protection)

_SUITES = {cls.name: cls for cls in (FastProtection, Rfc9001Protection, NullProtection)}


def suite_by_name(name: str) -> type:
    try:
        return _SUITES[name]
    except KeyError:
        raise KeyError("unknown protection suite %r" % name) from None
