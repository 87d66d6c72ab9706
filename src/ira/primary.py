"""Primary-side engine: instrumented execution, source annotation, hint
serialization/compression, hint persistence and the state-change digest.

``run_primary`` is the primary's loop. Each block executes, is annotated,
serialized and digested on the caller's thread (``run_primary_block``), and
its raw hint deflates on one worker thread while the next block executes; at
most one block is in flight, and the results come back in block order. The
worker runs only zlib, which releases the GIL while it deflates, so the
overlap needs a second core to pay; while the loop runs, the interpreter's
switch interval is cut to 1 ms, so that the worker gets the GIL back soon
each time zlib returns to Python. Whatever the caller writes, it writes on
its own thread, in block order.

Hint wire format (little-endian), 16-byte header then fixed-width entries:

    magic u16 (0x4948, bytes "HI"), version u8, flags u8,
    block_number u32, storage_count u32, account_count u16, code_count u16
    storage entries: 20-byte address | 32-byte slot | 1 source byte   (53 B)
    account entries: 20-byte address                                  (20 B)
    code entries:    20-byte address                                  (20 B)

The source byte of a storage entry is the store's own as-of rule
(``VersionedTable.locate``) read as a route: CHANGESET when a modification
at or after the block holds the key's pre-image, PLAIN when the plain table
answers, ZERO when the key has neither. Execution reads every storage key
of a block, a written one for its original value, so the primary takes each
key's route from the read that located it, and building the hint seeks
nothing.

Entries are sorted and deduplicated (canonical form), so serialization is
injective and doubles as the backup's prefetch order. Raw size is exactly
``16 + 53*|storage| + 20*(|accounts| + |codes|)``.

Compression wraps zlib (window bits pinned to 15 so the first output byte is
always 0x78, which can never collide with the header magic byte 0x48): the
smaller of the zlib stream and the raw bytes is stored, so the compressed
form never exceeds the raw form.

The primary writes two per-block logs, the hint database (``HintDb``) and the
digest log (``DigestLog``), in one format: a header naming the log's kind,
then append-only, CRC-checked records indexed by block number. ``HintDb``
owns the format, and ``DigestLog`` differs only in its magic and noun, so a
file of one kind is refused when opened as the other. Rereads return exact
bytes, absent blocks read as ``None`` (hints are advisory), and corruption
raises so callers can fall back. A torn tail (a record cut short by a crash
mid-append) is skipped on open, so its block reads as absent. A writer can
roll its appends back, leaving the file as it found it.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import struct
import sys
import threading
import zlib
from enum import IntEnum
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from . import IraError
from .store import (
    ADDRESS_LEN,
    ArchivalStore,
    CostMeter,
    Effects,
    KEY_LEN,
    OrderingError,
    StorageKey,
    StoreView,
    ZERO_WORD,
    pack_account,
)
from .workload import Block, ExecResult, execute_block

HINT_MAGIC = 0x4948
HINT_VERSION = 1
HINT_HEADER = struct.Struct("<HBBIIHH")
assert HINT_HEADER.size == 16

STORAGE_ENTRY_LEN = KEY_LEN + 1  # address + slot + source byte

_SERIALIZE_PAGE = 4096


class SerializationError(Exception):
    """Hint cannot be serialized (non-canonical input or count overflow)."""


class HintConflictError(IraError):
    """A hint database or digest log already holds a record for the block
    being written: one hint and one digest per block."""

    prefix = "run-primary"


class HintIntegrityError(IraError, ValueError):
    """Stored log bytes fail structural or checksum validation: an unreadable
    input, so a caller that catches ``ValueError`` for one catches this too.
    ``kind`` names the kind of log at fault, which prefixes the message."""

    def __init__(self, message: str, kind: str = "hint database"):
        super().__init__(message)
        self.prefix = f"{kind} error"


class Source(IntEnum):
    """Where the backup should read a storage key's value."""

    PLAIN = 0      # current value in the plain state table
    ZERO = 1       # never written; value is the zero word, no I/O
    CHANGESET = 2  # must be read from historical change sets


_SOURCES = (Source.PLAIN, Source.ZERO, Source.CHANGESET)  # indexed by source byte
_PLAIN, _ZERO, _CHANGESET = _SOURCES


def _route(n: Optional[int], value: object) -> Source:
    """The source of a key from what ``VersionedTable.locate`` found for it."""
    if n is not None:
        return _CHANGESET
    return _ZERO if value is None else _PLAIN


class Hint(NamedTuple):
    """Canonical per-block access hint: sorted, deduplicated entry lists."""

    block_number: int
    storage_entries: List[Tuple[StorageKey, Source]]
    accounts: List[bytes]
    codes: List[bytes]

    def entry_count(self) -> int:
        return len(self.storage_entries) + len(self.accounts) + len(self.codes)


class _RouteView(StoreView):
    """The primary's view: a storage read locates its key once, charges what
    ``read_as_of`` charges, and keeps the key's source in ``routes``.

    It makes no head check of its own: ``run_primary_block`` requires the
    store to hold the block, which is stricter than ``read_as_of``'s check.
    Account and code reads are ``StoreView``'s.
    """

    __slots__ = ("routes", "_locate")

    def __init__(self, store: ArchivalStore, block_number: int, meter: CostMeter):
        super().__init__(store, block_number, meter)
        self.routes: Dict[StorageKey, Source] = {}
        self._locate = store.storage.locate

    def get_storage(self, key: StorageKey) -> bytes:
        n, value = self._locate(key, self.block_number)
        self.meter.charge_as_of(n is not None or value is not None)
        self.routes[key] = _route(n, value)
        return ZERO_WORD if value is None else value


def annotate_sources(routes: Dict[StorageKey, Source]) -> List[Tuple[StorageKey, Source]]:
    """The hint's storage entries, sorted: each key with the source that the
    block's read of it found (``_RouteView.routes``)."""
    return sorted(routes.items())


def serialize_hint(hint: Hint) -> bytes:
    """Encode a canonical hint; rejects unsorted/duplicate entries and counts
    that overflow their header fields."""
    s, a, c = hint.storage_entries, hint.accounts, hint.codes
    if len(s) > 0xFFFFFFFF or len(a) > 0xFFFF or len(c) > 0xFFFF:
        raise SerializationError("hint entry count overflows header field")
    if hint.block_number < 0 or hint.block_number > 0xFFFFFFFF:
        raise SerializationError("block number out of range")
    out = bytearray(HINT_HEADER.pack(HINT_MAGIC, HINT_VERSION, 0, hint.block_number, len(s), len(a), len(c)))
    # one test per entry; only a failed one asks which check it broke
    prev = b""
    for key, src in s:
        if len(key) != KEY_LEN or key <= prev or not 0 <= src <= 2:
            if len(key) != KEY_LEN:
                raise SerializationError("bad storage key width")
            if key <= prev:
                raise SerializationError("storage entries must be strictly ascending")
            raise SerializationError(f"invalid source byte {src}")
        out += key
        out.append(src)
        prev = key
    for name, addrs in (("account", a), ("code", c)):
        prev = b""
        for addr in addrs:
            if len(addr) != ADDRESS_LEN:
                raise SerializationError(f"bad {name} address width")
            if addr <= prev:
                raise SerializationError(f"{name} entries must be strictly ascending")
            out += addr
            prev = addr
    return bytes(out)


def raw_hint_size(n_storage: int, n_accounts: int, n_codes: int) -> int:
    return HINT_HEADER.size + STORAGE_ENTRY_LEN * n_storage + ADDRESS_LEN * (n_accounts + n_codes)


def parse_hint(raw: bytes) -> Hint:
    """Decode and structurally validate hint bytes (exact length, canonical order)."""
    if len(raw) < HINT_HEADER.size:
        raise HintIntegrityError("hint shorter than header")
    magic, version, _flags, block_number, ns, na, nc = HINT_HEADER.unpack_from(raw, 0)
    if magic != HINT_MAGIC:
        raise HintIntegrityError(f"bad hint magic 0x{magic:04x}")
    if version != HINT_VERSION:
        raise HintIntegrityError(f"unsupported hint version {version}")
    expect = raw_hint_size(ns, na, nc)
    if len(raw) != expect:
        raise HintIntegrityError(f"hint length {len(raw)} != expected {expect}")
    # the exact length proves every slice below has its full width
    off = HINT_HEADER.size
    end = off + STORAGE_ENTRY_LEN * ns
    keys = [raw[i : i + KEY_LEN] for i in range(off, end, STORAGE_ENTRY_LEN)]
    srcs = raw[off + KEY_LEN : end : STORAGE_ENTRY_LEN]
    if srcs and max(srcs) > 2:
        raise HintIntegrityError(f"invalid source byte {max(srcs)}")
    if not all(map(operator.lt, keys, keys[1:])):
        raise HintIntegrityError("storage entries not strictly ascending")
    storage: List[Tuple[StorageKey, Source]] = list(zip(keys, map(_SOURCES.__getitem__, srcs)))
    off = end
    lists: List[List[bytes]] = []
    for count in (na, nc):
        end = off + ADDRESS_LEN * count
        addrs = [raw[i : i + ADDRESS_LEN] for i in range(off, end, ADDRESS_LEN)]
        if not all(map(operator.lt, addrs, addrs[1:])):
            raise HintIntegrityError("address entries not strictly ascending")
        lists.append(addrs)
        off = end
    return Hint(block_number, storage, lists[0], lists[1])


def compress_hint(raw: bytes) -> bytes:
    """Byte-stream compression that never expands: stores whichever of the
    zlib stream or the raw bytes is shorter. Raw hints start with 0x48, zlib
    streams with 0x78, so decoding is unambiguous."""
    return _deflate(raw)


def _deflate(raw: bytes) -> bytes:
    # compress_hint's rule, under a name of its own for run_primary's worker
    # thread: bench/launch.py wraps compress_hint in a span, and its Tracer
    # keeps one span stack for every thread, so no wrapped name may run there
    comp = zlib.compressobj(level=6, wbits=15)
    z = comp.compress(raw) + comp.flush()
    return z if len(z) < len(raw) else raw


def decompress_hint(data: bytes) -> bytes:
    if not data:
        raise HintIntegrityError("empty hint record")
    if data[0] == 0x78:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise HintIntegrityError(f"zlib decode failed: {exc}") from None
    if data[0] == HINT_MAGIC & 0xFF:
        return data
    raise HintIntegrityError(f"unrecognized hint envelope byte 0x{data[0]:02x}")


# -- state-change digest ---------------------------------------------------------


def state_change_hash(effects: Effects) -> bytes:
    """256-bit digest over effects, domain-tagged and sorted by key, so the
    result is independent of iteration order. Empty effects hash to the
    digest of the empty byte string."""
    h = hashlib.sha256()
    for addr in sorted(effects.accounts):
        h.update(b"A")
        h.update(addr)
        h.update(pack_account(effects.accounts[addr]))
    for key in sorted(effects.storage):
        h.update(b"S")
        h.update(key)
        h.update(effects.storage[key])
    return h.digest()


# -- primary block run -----------------------------------------------------------


class PrimaryBlockResult(NamedTuple):
    block_number: int
    effects: Effects
    hint: Hint
    raw_bytes: bytes
    compressed_bytes: Optional[bytes]  # None until run_primary deflates the hint
    digest: bytes
    exec_cost: int
    serialize_cost: int


def run_primary_block(block: Block, store: ArchivalStore) -> PrimaryBlockResult:
    """Execute one block with access instrumentation and produce its raw
    hint; ``run_primary`` compresses it.

    The store must already hold the block (head at or past it): the primary
    replays history, and the hint's sources say where each value lives then.
    Execution reads through a view that keeps the source of every storage
    key it reads, and it reads every storage key of the block, so the hint
    costs nothing to build: ``serialize_cost`` is all that it charges.
    """
    if store.head_block < block.number:
        raise OrderingError(f"primary needs store head >= {block.number}, have {store.head_block}")

    model = store.cost_model
    exec_meter = CostMeter(model)
    view = _RouteView(store, block.number, exec_meter)
    result: ExecResult = execute_block(block, view, exec_meter)
    hint = Hint(block.number, annotate_sources(view.routes), sorted(result.account_memo), sorted(result.code_memo))

    raw = serialize_hint(hint)
    serialize_cost = model.c_random_seek + math.ceil(len(raw) / _SERIALIZE_PAGE) * model.c_sequential_step

    return PrimaryBlockResult(
        block_number=block.number,
        effects=result.effects,
        hint=hint,
        raw_bytes=raw,
        compressed_bytes=None,
        digest=state_change_hash(result.effects),
        exec_cost=exec_meter.total,
        serialize_cost=serialize_cost,
    )


# A thread that waits for the GIL takes it from a busy thread only after the
# switch interval (5 ms by default). The worker needs the GIL a few times per
# hint (to start, to grow zlib's output buffer, to return), and a block
# executes in a few milliseconds, so at the default most of each deflate
# waits for the main thread instead of overlapping it.
_SWITCH_INTERVAL_S = 0.001


class _Deflate(threading.Thread):
    """A block's raw hint deflating off the caller's thread, started when
    built."""

    def __init__(self, result: PrimaryBlockResult):
        super().__init__(name="ira-deflate", daemon=True)
        self.partial = result
        self.out: Optional[bytes] = None
        self.error: Optional[BaseException] = None
        self.start()

    def run(self) -> None:
        try:
            self.out = _deflate(self.partial.raw_bytes)
        except BaseException as exc:  # finish raises it on the caller's thread
            self.error = exc

    def finish(self) -> PrimaryBlockResult:
        """Join the worker and fill in ``compressed_bytes``; an error on the
        worker is raised here, on the caller's thread."""
        self.join()
        if self.error is not None:
            raise self.error
        return self.partial._replace(compressed_bytes=self.out)


def run_primary(blocks: Iterable[Block], store: ArchivalStore) -> Iterator[PrimaryBlockResult]:
    """Run ``run_primary_block`` on each block and yield the results in block
    order, ``compressed_bytes`` filled in. Block ``b``'s hint deflates on a
    worker thread while block ``b + 1`` executes on this one, and the caller
    gets block ``b`` while block ``b + 1``'s hint deflates. At most one block
    is in flight, and the worker is joined when the loop ends, fails or is
    closed. Until then the interpreter's switch interval is at most
    ``_SWITCH_INTERVAL_S``."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(min(interval, _SWITCH_INTERVAL_S))
    pending: Optional[_Deflate] = None
    try:
        for block in blocks:
            result = run_primary_block(block, store)
            done = pending.finish() if pending is not None else None
            pending = _Deflate(result)
            if done is not None:
                yield done
        if pending is not None:
            yield pending.finish()
    finally:
        if pending is not None:
            pending.join()
        sys.setswitchinterval(interval)


# -- per-block logs --------------------------------------------------------------

_LOG_VERSION = struct.pack("<HH", 1, 0)  # u16 version, u16 reserved
_LOG_REC = struct.Struct("<QII")  # block, payload length, crc32


class HintDb:
    """Append-only block_number -> compressed-hint log in a single file: the
    one per-block log, which ``DigestLog`` reuses for the primary's digests.

    A log is its kind's 8-byte header (``MAGIC``, then version and reserved
    fields), then records of ``u64 block | u32 length | u32 crc32 |
    payload``. A file without its kind's header, a log of the other kind
    among them, is refused on opening, naming its path. One record per
    block: writing a block the log holds raises ``HintConflictError`` and
    writes nothing. Reads return the exact stored bytes, ``None`` for absent
    blocks, and raise on checksum failure.

    A record cut short at the end of the file (a crash mid-append) is a torn
    tail: opening keeps every whole record before it and sets ``torn_bytes``,
    so the torn block reads as absent. A reader (``create=False``) never
    writes to the file; a writer creates the file if it is missing, cuts the
    torn tail off before it appends, and can ``rollback`` every append.
    """

    MAGIC = b"HDB1"
    NOUN = "hint"  # what a record holds
    KIND = "hint database"  # what the file is

    def __init__(self, path: Path, create: bool = True):
        self.path = Path(path)
        self._index: Dict[int, Tuple[int, int]] = {}
        self._created = not self.path.exists()
        if self._created:
            if not create:
                raise FileNotFoundError(self.path)
            self.path.write_bytes(self.MAGIC + _LOG_VERSION)
        self._file = open(self.path, "r+b" if create else "rb")
        try:
            self._scan()
        except HintIntegrityError:
            self._file.close()
            raise
        # a writer's rollback cuts the file back to _start and writes _tail
        self._start = self._end
        self._file.seek(self._end)
        self._tail = self._file.read() if create else b""

    def _scan(self) -> None:
        f = self._file
        size = os.fstat(f.fileno()).st_size
        header = self.MAGIC + _LOG_VERSION
        if f.read(len(header)) != header:
            raise HintIntegrityError(f"bad {self.KIND} header in {self.path}", self.KIND)
        pos = len(header)
        while pos + _LOG_REC.size <= size:
            f.seek(pos)
            block, length, _crc = _LOG_REC.unpack(f.read(_LOG_REC.size))
            end = pos + _LOG_REC.size + length
            if end > size:
                break
            if block in self._index:
                raise HintIntegrityError(f"duplicate record for block {block} in {self.path}", self.KIND)
            self._index[block] = (pos, length)
            pos = end
        self._end = pos  # end of the last whole record
        self.torn_bytes = size - pos  # bytes after it, until a writer cuts them off

    def write_hint(self, block_number: int, data: bytes) -> None:
        if block_number in self._index:
            raise HintConflictError(f"{self.path} already holds a {self.NOUN} for block {block_number}")
        f = self._file
        if self.torn_bytes:
            f.truncate(self._end)
            self.torn_bytes = 0
        f.seek(self._end)
        f.write(_LOG_REC.pack(block_number, len(data), zlib.crc32(data)))
        f.write(data)
        f.flush()
        self._index[block_number] = (self._end, len(data))
        self._end = f.tell()

    def read_hint(self, block_number: int) -> Optional[bytes]:
        entry = self._index.get(block_number)
        if entry is None:
            return None
        pos, length = entry
        f = self._file
        f.seek(pos)
        block, stored_len, crc = _LOG_REC.unpack(f.read(_LOG_REC.size))
        payload = f.read(stored_len)
        if block != block_number or stored_len != length or zlib.crc32(payload) != crc:
            raise HintIntegrityError(f"{self.NOUN} record for block {block_number} in {self.path} is corrupt", self.KIND)
        return payload

    def blocks(self) -> List[int]:
        return sorted(self._index)

    def rollback(self) -> None:
        """Close the log and put its file back as this writer opened it:
        deleted if the writer created it, else cut back to its last whole
        record with its torn tail written back."""
        self._file.close()
        if self._created:
            self.path.unlink(missing_ok=True)
            return
        with open(self.path, "r+b") as f:
            f.truncate(self._start)
            f.seek(self._start)
            f.write(self._tail)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "HintDb":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DigestLog(HintDb):
    """Append-only block_number -> 32-byte state-change digest log (the
    primary's fingerprints): a ``HintDb`` of its own kind. It opens as a
    reader unless ``create`` is set, so ``DigestLog(path).read_all()`` of a
    missing file raises FileNotFoundError and writes nothing."""

    MAGIC = b"DLG1"
    NOUN = "digest"
    KIND = "digest log"

    def __init__(self, path: Path, create: bool = False):
        super().__init__(path, create)

    def write(self, block_number: int, digest: bytes) -> None:
        self.write_hint(block_number, digest)

    def read_all(self) -> Dict[int, bytes]:
        return {b: self.read_hint(b) for b in self.blocks()}
