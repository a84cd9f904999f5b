"""Capture buffer — the write side of the telescope's pcap.

A month of backscatter is hundreds of thousands of packets, so the
telescope keeps no object per packet: :class:`CaptureBuffer` holds the
records still in flight as pcap records in one contiguous ``bytearray``
— one :meth:`CaptureBuffer.append` per record packs the 16-byte record
header and copies the packet behind it, in pieces as the caller has them
(the telescope's IPv4/UDP header and the datagram's payload, see
:func:`repro.netstack.udp.ip_udp_header`) — with parallel key / offset
columns that keep them in capture order: the canonical
:func:`~repro.netstack.pcap.record_sort_key`, microsecond timestamp
then packet bytes.  The order is decided once, as a record is appended,
so every producer — serial ``simulate``, shard workers, sweep cells —
writes the same bytes for the same records.

Once a record is *final* — stamped in a microsecond below a watermark
its producer promises no later arrival will undercut (the telescope's is
the event loop's clock, see :data:`SPOOL_AFTER`) —
:meth:`CaptureBuffer.release` writes it to an anonymous spool
(``tempfile.TemporaryFile``, unlinked at creation, so a killed run
leaves nothing behind).  Memory is therefore bounded by the in-flight
records, not by the capture.  :meth:`CaptureBuffer.write_pcap` is the
global header, a copy of the spool and the short in-memory tail.

:attr:`CaptureBuffer.records` is a read-only sequence view that yields
``PcapRecord`` objects on demand — exactly what
:class:`~repro.netstack.pcap.PcapReader` reads back from the written
pcap, timestamps included — so every existing consumer (the classifier,
shard heartbeats, tests) keeps its interface; records that were spooled
are read back from it.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import weakref
from array import array
from bisect import bisect_left
from itertools import chain, islice
from typing import BinaryIO, Iterator, List, Union

from repro.netstack.pcap import (
    RECORD_HEADER,
    SNAPLEN,
    WALK_CHUNK,
    PcapRecord,
    PcapWriter,
    split_timestamp,
)

#: Pending bytes past which the telescope releases the final records to
#: the spool.  A fixed constant, not a knob: large enough that a release
#: is one big ``write`` every ~1,500 packets, small next to the capture.
SPOOL_AFTER = 1 << 20

_pack_header = RECORD_HEADER.pack
_unpack_header = struct.Struct("<III").unpack_from  # ts_sec, ts_usec, incl_len


def _key(timestamp: float) -> int:
    """``timestamp`` in whole microseconds, as its record header stores it."""
    ts_sec, ts_usec = split_timestamp(timestamp)
    return ts_sec * 1_000_000 + ts_usec


def _record_at(buf, pos: int) -> PcapRecord:
    """The record whose header starts at ``buf[pos]``, as a reader sees it."""
    ts_sec, ts_usec, length = _unpack_header(buf, pos)
    body = pos + RECORD_HEADER.size
    return PcapRecord(
        timestamp=ts_sec + ts_usec / 1_000_000, data=bytes(buf[body : body + length])
    )


def _read_spool(spool: BinaryIO | None, size: int) -> Iterator[bytes]:
    """The first ``size`` bytes of a spool file, :data:`WALK_CHUNK` at a time."""
    if spool is None:
        return
    spool.flush()
    fd = spool.fileno()
    for offset in range(0, size, WALK_CHUNK):
        yield os.pread(fd, min(WALK_CHUNK, size - offset), offset)


class CaptureRecords:
    """Read-only sequence view over a :class:`CaptureBuffer`.

    Materializes one :class:`PcapRecord` per access — a spooled one by a
    pass over the spool, so index and slice it only for small captures or
    tests; iterate it otherwise.  ``append`` is provided for the few call
    sites (tests, synthetic captures) that still push prebuilt records.
    """

    __slots__ = ("_buffer",)

    def __init__(self, buffer: "CaptureBuffer") -> None:
        self._buffer = buffer

    def __len__(self) -> int:
        return len(self._buffer)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[PcapRecord, List[PcapRecord]]:
        if not isinstance(index, slice):
            return self._buffer.record(index)
        positions = range(*index.indices(len(self)))
        if not positions:
            return []
        if positions.step < 0:
            return self[positions[-1] : positions[0] + 1 : -positions.step][::-1]
        return list(
            islice(self._buffer, positions.start, positions.stop, positions.step)
        )

    def __iter__(self) -> Iterator[PcapRecord]:
        return iter(self._buffer)

    def append(self, record: PcapRecord) -> None:
        self._buffer.append(record.timestamp, record.data)


class CaptureBuffer:
    """In-flight pcap records in memory, final ones in an anonymous spool.

    ``data`` holds the pending records, header and packet each, in
    capture order; ``keys`` their timestamps in whole microseconds
    (``ts_sec * 1_000_000 + ts_usec``, ascending) and ``offsets`` where
    each starts, counted from the first byte ever captured — ``data[0]``
    is byte ``released_bytes`` of the capture.
    """

    __slots__ = (
        "keys",
        "offsets",
        "data",
        "records",
        "released_bytes",
        "_released",
        "_spooled",
        "_spool",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.keys = array("q")
        self.offsets = array("Q")
        self.data = bytearray()
        self.records = CaptureRecords(self)
        self.released_bytes = 0
        self._released = float("-inf")  # the highest watermark released
        self._spooled = 0  # records in the spool
        self._spool: BinaryIO | None = None  # pcap records, capture order

    def __len__(self) -> int:
        return self._spooled + len(self.keys)

    def append(self, timestamp: float, data: bytes, payload: bytes = b"") -> None:
        """Append one packet, ``data`` followed by ``payload``.

        A serializing caller hands over its header and the payload as
        they are, so the packet is copied once, into the buffer.  The
        pending records stay in capture order, microsecond key first,
        packet bytes among equal keys: a packet appended after a
        later-stamped one (the telescope is handed arrivals at transmit
        time) goes in front of it, a few records back at most.  A
        timestamp below a watermark already released raises
        ``ValueError`` and leaves the buffer as it was: it would belong
        in front of spooled records.
        """
        length = len(data) + len(payload)
        if length > SNAPLEN:
            raise ValueError(
                "a capture record holds at most %d bytes (got %d)" % (SNAPLEN, length)
            )
        ts_sec, ts_usec = split_timestamp(timestamp)
        key = ts_sec * 1_000_000 + ts_usec
        keys = self.keys
        at = len(keys)
        while at and keys[at - 1] > key:
            at -= 1
        if at and keys[at - 1] == key:
            packet = data + payload
            while at and keys[at - 1] == key and self._packet(at - 1) > packet:
                at -= 1
        if not at and timestamp < self._released:
            raise ValueError(
                "capture timestamp %r is below the released watermark %r"
                % (timestamp, self._released)
            )
        header = _pack_header(ts_sec, ts_usec, length, length)
        buf = self.data
        offsets = self.offsets
        if at == len(keys):
            keys.append(key)
            offsets.append(self.released_bytes + len(buf))
            buf += header
            buf += data
            buf += payload
            return
        record = b"".join((header, data, payload))
        into = offsets[at]
        buf[into - self.released_bytes : into - self.released_bytes] = record
        for later in range(at, len(offsets)):
            offsets[later] += len(record)
        keys.insert(at, key)
        offsets.insert(at, into)

    def release(self, watermark: float) -> None:
        """Spool every pending record keyed below ``watermark``'s microsecond.

        The caller promises that nothing stamped below ``watermark`` will
        be appended any more (:meth:`append` enforces it), and
        :func:`split_timestamp` never decreases, so no later append can
        tie a spooled record's key, let alone sort in front of it.  The
        records released are a prefix of ``data``, so this is one
        ``write``.
        """
        if watermark > self._released:
            self._released = watermark
        keys = self.keys
        count = (
            len(keys) if watermark == math.inf else bisect_left(keys, _key(watermark))
        )
        if not count:
            return
        data = self.data
        end = self.offsets[count] - self.released_bytes if count < len(keys) else len(data)
        if self._spool is None:
            self._spool = tempfile.TemporaryFile()
            # Closed with the buffer, not left to the garbage collector's
            # "unclosed file" warning.
            weakref.finalize(self, self._spool.close)
        self._spool.write(memoryview(data)[:end])
        del data[:end]
        del keys[:count]
        del self.offsets[:count]
        self.released_bytes += end
        self._spooled += count

    # -- reading back ----------------------------------------------------------
    def _packet(self, pending: int) -> bytearray:
        """The packet bytes of pending record ``pending``."""
        start = self.offsets[pending] - self.released_bytes + RECORD_HEADER.size
        return self.data[start : start + _unpack_header(self.data, start - 16)[2]]

    def record(self, index: int) -> PcapRecord:
        """Materialize one packet as a :class:`PcapRecord`."""
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("capture record index out of range")
        pending = index - self._spooled
        if pending < 0:
            return next(islice(self, index, None))
        return _record_at(self.data, self.offsets[pending] - self.released_bytes)

    def __iter__(self) -> Iterator[PcapRecord]:
        carry = b""
        for chunk in chain(
            _read_spool(self._spool, self.released_bytes), (bytes(self.data),)
        ):
            buf = carry + chunk if carry else chunk
            pos, filled = 0, len(buf)
            while filled - pos >= RECORD_HEADER.size:
                stop = pos + RECORD_HEADER.size + _unpack_header(buf, pos)[2]
                if stop > filled:
                    break
                yield _record_at(buf, pos)
                pos = stop
            carry = buf[pos:]

    # -- writing -----------------------------------------------------------------
    def write_pcap(self, fileobj: BinaryIO) -> None:
        """The capture as a pcap, in
        :func:`~repro.netstack.pcap.record_sort_key` order.

        The order was settled at append, so this is the global header and
        a copy of the spool and of the in-memory tail.
        """
        PcapWriter(fileobj)  # the global header
        for chunk in _read_spool(self._spool, self.released_bytes):
            fileobj.write(chunk)
        fileobj.write(self.data)
