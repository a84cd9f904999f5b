"""Classic libpcap file format reader/writer (raw-IP link type).

Telescope captures are stored as standard pcap so they can be inspected
with external tooling, and so the analysis pipeline can equally consume
real-world raw-IP captures.  :func:`merge_pcap_files` k-way-merges the
time-sorted per-worker captures of ``repro simulate --workers N`` into the
run's one pcap, in capture order, holding only one record per input in
memory.
:class:`PcapWalk` is the index builder's reader: fixed-size chunks, the
records of each handed over in place, no object per record.
"""

from __future__ import annotations

import heapq
import os
import struct
import sys
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from repro.errors import InputFileError, Terminated

MAGIC = 0xA1B2C3D4
MAGIC_SWAPPED = 0xD4C3B2A1
VERSION_MAJOR = 2
VERSION_MINOR = 4
LINKTYPE_RAW = 101  # packets start with the IPv4/IPv6 header

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
#: A record header as this module writes it: ts_sec, ts_usec, incl_len,
#: orig_len, little-endian.
RECORD_HEADER = struct.Struct("<IIII")
#: The snap length every writer here announces; no record is longer.
SNAPLEN = 65535

#: Size of the pcap global header — the first record boundary.  Streaming
#: readers treat a file shorter than this as "not started yet".
GLOBAL_HEADER_SIZE = _GLOBAL_HEADER.size


class PcapError(InputFileError):
    """Raised on malformed pcap files."""


def _byte_order(head: bytes, path: str = "") -> str:
    """The ``struct`` byte-order prefix a global header's magic announces.

    A caller that knows which file ``head`` came from passes ``path``:
    the error then starts with it.
    """
    where = path and path + ": "
    if len(head) < _GLOBAL_HEADER.size:
        raise PcapError(where + "truncated pcap global header")
    magic = struct.unpack("<I", head[:4])[0]
    if magic == MAGIC:
        return "<"
    if magic == MAGIC_SWAPPED:
        return ">"
    raise PcapError(where + "bad pcap magic 0x%08x" % magic)


def split_timestamp(timestamp: float) -> tuple[int, int]:
    """``timestamp`` as a record header's ``(ts_sec, ts_usec)`` pair.

    Rounding the fraction to microseconds can reach a whole second
    (``1.9999996``); it carries, because ``ts_usec = 1000000`` is a
    malformed record to every other pcap reader.
    """
    ts_sec = int(timestamp)
    ts_usec = int(round((timestamp - ts_sec) * 1_000_000))
    if ts_usec == 1_000_000:
        return ts_sec + 1, 0
    return ts_sec, ts_usec


@dataclass(frozen=True)
class PcapRecord:
    """One captured packet: timestamp (float seconds) and raw bytes."""

    timestamp: float
    data: bytes

    @property
    def ts_sec(self) -> int:
        return split_timestamp(self.timestamp)[0]

    @property
    def ts_usec(self) -> int:
        return split_timestamp(self.timestamp)[1]


class PcapWriter:
    """Writes classic pcap records to an open binary file."""

    def __init__(self, fileobj: BinaryIO, linktype: int = LINKTYPE_RAW, snaplen: int = SNAPLEN) -> None:
        self._file = fileobj
        self._file.write(
            _GLOBAL_HEADER.pack(
                MAGIC, VERSION_MAJOR, VERSION_MINOR, 0, 0, snaplen, linktype
            )
        )
        self._snaplen = snaplen

    def write(self, record: PcapRecord) -> None:
        data = record.data
        length = len(data)
        included = data[: self._snaplen] if length > self._snaplen else data
        self._file.write(
            RECORD_HEADER.pack(
                *split_timestamp(record.timestamp), len(included), length
            )
        )
        self._file.write(included)

    def write_all(self, records: Iterable[PcapRecord]) -> None:
        for record in records:
            self.write(record)


class PcapReader:
    """Iterates :class:`PcapRecord` objects from a classic pcap file.

    A record whose ``incl_len`` claims more than :data:`WALK_CHUNK` bytes
    is read only if the file really holds them: a buffered ``read(n)``
    allocates ``n`` bytes up front, so a corrupt length must not reach it.
    """

    def __init__(self, fileobj: BinaryIO) -> None:
        self._file = fileobj
        header = fileobj.read(_GLOBAL_HEADER.size)
        self._endian = _byte_order(header)
        fields = struct.unpack(self._endian + "IHHiIII", header)
        self.linktype = fields[6]
        self.snaplen = fields[5]
        self._record_struct = struct.Struct(self._endian + "IIII")

    def __iter__(self) -> Iterator[PcapRecord]:
        while True:
            header = self._file.read(self._record_struct.size)
            if not header:
                return
            if len(header) < self._record_struct.size:
                raise PcapError("truncated pcap record header")
            ts_sec, ts_usec, incl_len, _orig_len = self._record_struct.unpack(header)
            if incl_len > WALK_CHUNK and incl_len > self._bytes_left():
                raise PcapError("truncated pcap record body")
            data = self._file.read(incl_len)
            if len(data) < incl_len:
                raise PcapError("truncated pcap record body")
            yield PcapRecord(timestamp=ts_sec + ts_usec / 1_000_000, data=data)

    def _bytes_left(self) -> int:
        """Bytes from the read position to the end of the file as it is now."""
        fileobj = self._file
        try:
            size = os.fstat(fileobj.fileno()).st_size
        except (AttributeError, OSError, ValueError):
            # No descriptor (an in-memory buffer): its read(n) allocates
            # only what is there.
            return sys.maxsize
        return size - fileobj.tell()


def write_pcap(path: str, records: Iterable[PcapRecord]) -> None:
    """Convenience: write ``records`` to ``path``."""
    # repro: allow(IO001) -- append log: read while it grows, up to a torn tail
    with open(path, "wb") as fileobj:
        PcapWriter(fileobj).write_all(records)


def iter_pcap(path: str) -> Iterator[PcapRecord]:
    """Stream records from ``path`` without materializing the file.

    Records stream by one at a time, so a multi-GB capture never has to
    fit in memory as a Python list.  A malformed file raises
    :class:`PcapError` starting with ``path``.
    """
    with open(path, "rb") as fileobj:
        try:
            yield from PcapReader(fileobj)
        except PcapError as exc:
            raise PcapError("%s: %s" % (path, exc)) from None


def iter_pcap_range(path: str, offset: int, count: int) -> Iterator[PcapRecord]:
    """Stream ``count`` records starting at byte ``offset``.

    ``offset`` must point at a record header (use
    :func:`scan_pcap_offsets`).
    """
    with open(path, "rb") as fileobj:
        reader = PcapReader(fileobj)  # validates magic, fixes endianness
        fileobj.seek(offset)
        records = iter(reader)
        for _ in range(count):
            try:
                yield next(records)
            except StopIteration:
                raise PcapError(
                    "fewer than %d records from offset %d" % (count, offset)
                ) from None


def read_pcap(path: str) -> list[PcapRecord]:
    """Convenience: read all records from ``path``.

    Prefer :func:`iter_pcap` in hot paths — this helper exists for small
    captures and tests where a list is genuinely wanted.
    """
    return list(iter_pcap(path))


#: Bytes :class:`PcapWalk` asks the file for per step; the telescope's
#: capture buffer reads its spool back in pieces of the same size.
WALK_CHUNK = 1 << 18


class PcapCursor:
    """How far into a pcap a reader has got.

    ``offset`` is one past the last complete record consumed (0: nothing
    yet, not even the global header).  ``digest``, for a reader that
    wants one, is any ``hashlib`` object: it has been fed exactly the
    ``offset`` bytes in front of the cursor, so a later pass over the
    grown file continues it instead of hashing the prefix again.
    """

    __slots__ = ("offset", "digest")

    def __init__(self, offset: int = 0, digest=None) -> None:
        self.offset = offset
        self.digest = digest


class PcapWalk:
    """One forward pass over a pcap's complete records, a chunk at a time.

    Each :meth:`step` reads :data:`WALK_CHUNK` bytes and hands every
    record that is complete in them to ``on_record(timestamp, buf, start,
    end)`` — the record's bytes are ``buf[start:end]``, in place — then
    advances ``cursor`` past them (feeding its digest those bytes).  A
    record torn by the chunk boundary is carried into the next step.

    The file may still be growing.  The pass covers what was there when
    it was opened (``size``) and ends (``done``) in front of the first
    record that is not complete within that: a header cut short, or one
    whose ``incl_len`` runs past ``size`` — which is never buffered on
    the header's say-so, so a corrupt length cannot make the walk hold
    more than one chunk plus one record that really is in the file.
    """

    def __init__(self, path: str, cursor: PcapCursor) -> None:
        self.cursor = cursor
        self.done = False
        self._base = cursor.offset  # file offset of the current chunk
        self._carry = b""
        self._short = 0  # bytes the carried record still lacks
        self._file = open(path, "rb")
        try:
            self.size = os.fstat(self._file.fileno()).st_size
            head = self._file.read(_GLOBAL_HEADER.size)
            self._unpack = struct.Struct(_byte_order(head, path) + "IIII").unpack_from
        except BaseException:
            self._file.close()
            raise
        if cursor.offset:
            self._file.seek(cursor.offset)
        else:
            cursor.offset = len(head)
            if cursor.digest is not None:
                cursor.digest.update(head)
        self._read_to = cursor.offset

    def __enter__(self) -> "PcapWalk":
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.close()

    def step(self, on_record: Callable[[float, bytes, int, int], object]) -> None:
        """Walk one chunk — unless a SIGTERM is pending: then raise it."""
        Terminated.check()
        want = max(0, min(max(WALK_CHUNK, self._short), self.size - self._read_to))
        data = self._file.read(want)
        self._read_to += len(data)
        buf = self._carry + data
        filled = len(buf)
        self._base = self._read_to - filled
        unpack = self._unpack
        pos = short = 0
        while filled - pos >= 16:
            ts_sec, ts_usec, incl_len, _orig_len = unpack(buf, pos)
            stop = pos + 16 + incl_len
            if stop > filled:
                short = stop - filled
                break
            on_record(ts_sec + ts_usec / 1_000_000, buf, pos + 16, stop)
            pos = stop
        cursor = self.cursor
        cursor.offset = self._base + pos
        if cursor.digest is not None:
            cursor.digest.update(memoryview(buf)[:pos])
        self.done = (
            len(data) < want  # the file shrank under the walk
            or self._read_to >= self.size  # nothing left to complete a record
            or self._read_to + short > self.size  # the record runs past size
        )
        self._carry = buf[pos:]
        self._short = short

    def run(self, on_record: Callable[[float, bytes, int, int], object]) -> None:
        """Every remaining step."""
        while not self.done:
            self.step(on_record)


def scan_pcap_tail(path: str, start: int = _GLOBAL_HEADER.size) -> tuple[list[int], int]:
    """Offsets of the *complete* records from byte ``start`` to EOF.

    Returns ``(offsets, end)`` where ``end`` is the byte offset one past
    the last complete record — :class:`PcapWalk`'s rule, so a live capture
    being appended to by another process always has a well-defined
    complete prefix and the next scan resumes at ``end`` once the writer
    has finished the record.  ``start`` must point at a record boundary
    (typically the ``end`` of a previous scan, or the position after the
    global header).
    """
    if os.path.getsize(path) < _GLOBAL_HEADER.size:
        return [], start  # global header itself still being written
    cursor = PcapCursor(max(start, _GLOBAL_HEADER.size))
    offsets: list[int] = []
    with PcapWalk(path, cursor) as walk:
        walk.run(lambda _ts, _buf, at, _end: offsets.append(walk._base + at - 16))
    return offsets, cursor.offset


def scan_pcap_offsets(path: str) -> list[int]:
    """Byte offset of every record header in a finished ``path``.

    The strict form of :func:`scan_pcap_tail`: raises :class:`PcapError`
    unless the file ends on a record boundary.
    """
    offsets, end = scan_pcap_tail(path)
    if end != os.path.getsize(path):
        raise PcapError("truncated pcap: no complete record at byte %d" % end)
    return offsets


def record_sort_key(record: PcapRecord) -> tuple:
    """The canonical capture order: quantized timestamp, then raw bytes.

    Comparing the *quantized* (second, microsecond) pair rather than the
    float timestamp guarantees that the order of records is preserved by
    a write/read round-trip, and the ``data`` tie-break makes the order a
    property of the record multiset alone — independent of how records
    were partitioned across shard files.
    """
    return (*split_timestamp(record.timestamp), record.data)


def merge_pcap_files(paths: Sequence[str], output: str) -> int:
    """K-way-merge time-sorted pcaps into ``output``, in capture order.

    Each input must already be sorted by :func:`record_sort_key` (shard
    workers sort before writing); the merge then holds one pending record
    per input, and the order is a property of the record multiset alone.
    Returns the number of records written.
    """
    merged = heapq.merge(*(iter_pcap(path) for path in paths), key=record_sort_key)
    count = 0
    # repro: allow(IO001) -- append log: `repro live` follows the merge as it lands
    with open(output, "wb") as fileobj:
        writer = PcapWriter(fileobj)
        for record in merged:
            writer.write(record)
            count += 1
    return count
