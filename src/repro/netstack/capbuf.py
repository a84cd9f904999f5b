"""Capture buffer — the write side of the telescope's pcap.

A month of backscatter is hundreds of thousands of packets, so the
telescope keeps no object per packet: :class:`CaptureBuffer` holds the
records still in flight as pcap records in one contiguous ``bytearray``
— the 16-byte record header is packed at commit, the IPv4/UDP encoder
writes the packet straight behind it (see
:func:`repro.netstack.udp.encode_udp_into`) — with parallel timestamp /
offset columns that keep them in arrival order.

Once a record is *final* — stamped below a watermark its producer
promises no later arrival will undercut (the telescope's is the event
loop's clock, see :data:`SPOOL_AFTER`) — :meth:`CaptureBuffer.release`
writes it to an anonymous spool (``tempfile.TemporaryFile``, unlinked at
creation, so a killed run leaves nothing behind; its float timestamp goes
to a second one).  Memory is therefore bounded by the in-flight records,
not by the capture.  :meth:`CaptureBuffer.write_pcap` is the global
header, a copy of the spool and the short in-memory tail — the bytes the
whole capture held in memory would have written, in the same order.
:meth:`CaptureBuffer.write_canonical` streams the same records in
:func:`~repro.netstack.pcap.record_sort_key` order (shards and sweep
cells), holding one tie group at a time.

:attr:`CaptureBuffer.records` is a read-only sequence view that yields
``PcapRecord`` objects on demand, so every existing consumer (the
classifier, shard heartbeats, tests) keeps its interface; records that
were spooled are read back from it.
"""

from __future__ import annotations

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
    record_sort_key,
    split_timestamp,
)

#: Pending bytes past which the telescope releases the final records to
#: the spool.  A fixed constant, not a knob: large enough that a release
#: is one big ``write`` every ~1,500 packets, small next to the capture.
SPOOL_AFTER = 1 << 20

_HEADER_ROOM = bytes(RECORD_HEADER.size)
_pack_header = RECORD_HEADER.pack_into
_unpack_length = struct.Struct("<I").unpack_from  # incl_len, at header + 8


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
    arrival order; ``times`` their timestamps (ascending) and ``offsets``
    where each starts, counted from the first byte ever captured —
    ``data[0]`` is byte ``released_bytes`` of the capture.
    """

    __slots__ = (
        "times",
        "offsets",
        "data",
        "records",
        "released_bytes",
        "_released",
        "_spooled",
        "_spool",
        "_stamps",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.times = array("d")
        self.offsets = array("Q")
        self.data = bytearray()
        self.records = CaptureRecords(self)
        self.released_bytes = 0
        self._released = float("-inf")  # the highest watermark released
        self._spooled = 0  # records in the spool
        self._spool: BinaryIO | None = None  # pcap records, arrival order
        self._stamps: BinaryIO | None = None  # their float64 timestamps

    def __len__(self) -> int:
        return self._spooled + len(self.times)

    def reserve(self) -> int:
        """Make room for a record header; returns where it starts.

        The packet's bytes go to the end of ``data`` right after, and
        :meth:`commit` then stamps the header in front of them.
        """
        start = len(self.data)
        self.data += _HEADER_ROOM
        return start

    def append(self, timestamp: float, data: bytes) -> None:
        """Append one already-encoded packet."""
        if len(data) > SNAPLEN:
            raise ValueError(
                "a capture record holds at most %d bytes (got %d)" % (SNAPLEN, len(data))
            )
        start = self.reserve()
        self.data += data
        self.commit(timestamp, start)

    def commit(self, timestamp: float, start: int) -> None:
        """Record the packet written behind the header :meth:`reserve` made.

        The pending records stay in timestamp order, equal timestamps in
        commit order: a packet committed ahead of an earlier-stamped one
        (the telescope is handed arrivals at transmit time) is moved in
        front of it, a few records back at most.  A timestamp below a
        watermark already released raises ``ValueError`` and leaves the
        buffer as it was: it would belong in front of spooled records.
        """
        times = self.times
        at = len(times)
        while at and times[at - 1] > timestamp:
            at -= 1
        data = self.data
        if not at and timestamp < self._released:
            del data[start:]
            raise ValueError(
                "capture timestamp %r is below the released watermark %r"
                % (timestamp, self._released)
            )
        length = len(data) - start - RECORD_HEADER.size
        _pack_header(data, start, *split_timestamp(timestamp), length, length)
        offsets = self.offsets
        if at == len(times):
            times.append(timestamp)
            offsets.append(self.released_bytes + start)
            return
        record = data[start:]
        del data[start:]
        into = offsets[at]
        data[into - self.released_bytes : into - self.released_bytes] = record
        for later in range(at, len(offsets)):
            offsets[later] += len(record)
        times.insert(at, timestamp)
        offsets.insert(at, into)

    def release(self, watermark: float) -> None:
        """Spool every pending record stamped below ``watermark``.

        The caller promises that nothing stamped below ``watermark`` will
        be committed any more (:meth:`commit` enforces it).  The records
        released are a prefix of ``data``, so this is one ``write``.
        """
        if watermark > self._released:
            self._released = watermark
        times = self.times
        count = bisect_left(times, watermark)
        if not count:
            return
        data = self.data
        end = self.offsets[count] - self.released_bytes if count < len(times) else len(data)
        if self._spool is None:
            self._spool = tempfile.TemporaryFile()
            self._stamps = tempfile.TemporaryFile()
            # Closed with the buffer, not left to the garbage collector's
            # "unclosed file" warning.
            for spool in (self._spool, self._stamps):
                weakref.finalize(self, spool.close)
        self._spool.write(memoryview(data)[:end])
        self._stamps.write(times[:count].tobytes())
        del data[:end]
        del times[:count]
        del self.offsets[:count]
        self.released_bytes += end
        self._spooled += count

    # -- reading back ----------------------------------------------------------
    def _raw_records(self) -> Iterator[bytes]:
        """Every record, header and packet, in arrival order."""
        carry = b""
        for chunk in chain(
            _read_spool(self._spool, self.released_bytes), (bytes(self.data),)
        ):
            buf = carry + chunk if carry else chunk
            pos, filled = 0, len(buf)
            while filled - pos >= RECORD_HEADER.size:
                stop = pos + RECORD_HEADER.size + _unpack_length(buf, pos + 8)[0]
                if stop > filled:
                    break
                yield buf[pos:stop]
                pos = stop
            carry = buf[pos:]

    def _timestamps(self) -> Iterator[float]:
        """Every record's timestamp, in arrival order."""
        for chunk in _read_spool(self._stamps, 8 * self._spooled):
            yield from array("d", chunk)
        yield from array("d", self.times)

    def record(self, index: int) -> PcapRecord:
        """Materialize one packet as a :class:`PcapRecord`."""
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("capture record index out of range")
        pending = index - self._spooled
        if pending < 0:
            return next(islice(self, index, None))
        start = self.offsets[pending] - self.released_bytes + RECORD_HEADER.size
        length = _unpack_length(self.data, start - 8)[0]
        return PcapRecord(
            timestamp=self.times[pending],
            data=bytes(self.data[start : start + length]),
        )

    def __iter__(self) -> Iterator[PcapRecord]:
        for timestamp, raw in zip(self._timestamps(), self._raw_records()):
            yield PcapRecord(timestamp=timestamp, data=raw[RECORD_HEADER.size :])

    def sorted_records(self) -> List[PcapRecord]:
        """All packets in canonical pcap merge order."""
        return sorted(self, key=record_sort_key)

    # -- writing -----------------------------------------------------------------
    def write_pcap(self, fileobj: BinaryIO) -> None:
        """The capture as a pcap, in arrival order."""
        PcapWriter(fileobj)  # the global header
        for chunk in _read_spool(self._spool, self.released_bytes):
            fileobj.write(chunk)
        fileobj.write(self.data)

    def write_canonical(self, fileobj: BinaryIO) -> int:
        """The capture as a pcap in :func:`record_sort_key` order.

        :func:`split_timestamp` never decreases as the timestamp grows, so
        the arrival order already is the canonical one up to runs of equal
        ``(ts_sec, ts_usec)`` — the first 8 header bytes — each of which
        is sorted by packet bytes here.  Returns the number of records.
        """
        PcapWriter(fileobj)  # the global header
        out: List[bytes] = []
        group: List[bytes] = []
        for raw in chain(self._raw_records(), (b"",)):
            if group and raw[:8] == group[0][:8]:
                group.append(raw)
                continue
            if len(group) > 1:
                group.sort(key=lambda tied: tied[RECORD_HEADER.size :])
            out += group
            group = [raw]
            if len(out) >= 4096:
                fileobj.write(b"".join(out))
                out.clear()
        fileobj.write(b"".join(out))
        return len(self)
