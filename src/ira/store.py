"""Versioned archival key-value store with a deterministic simulated I/O cost model.

The store holds two versioned tables, one for storage slots and one for
accounts, plus the bytecode table. Each :class:`VersionedTable` keeps:

* a plain table: the current value of every key as of ``head_block``
* change sets: per-block records of the value each modified key had
  *before* the block ran (a block that changed no key has none)
* a history index: per-key ascending block numbers of modifications, which
  is the change sets' keys by block, so it is never stored on its own

A historical read ("value at the start of block b") finds the first
modification at or after ``b`` and returns its recorded pre-image; if no such
modification exists the plain table answers, and a key with no plain entry
is absent (storage reads it as the zero word). :meth:`VersionedTable.locate`
is the one place this rule is written; every as-of read, the primary's source
annotation and the backup's prefetch go through it. By the same rule the
state at the start of block ``head_block + 1`` is the plain tables alone, so
:class:`HeadView`, which a store builder reads through, answers each read
with one dict lookup and no history consult.

I/O is simulated, never real: table accesses charge a :class:`CostMeter`
according to a :class:`CostModel`. The charging rules are fixed:

* ``read_as_of`` / ``account_as_of``: one random seek for the history index,
  plus one random seek when a value is actually fetched from a table
  (absent keys touch no table beyond the index); :meth:`CostMeter.charge_as_of`
  is the one place this rule is written, and the primary's view charges
  its storage reads through it too
* ``walk_wall``: a cursor walk over sorted keys costs one random seek for the
  first key and one sequential step per subsequent key; the keys are split
  into contiguous, count-balanced ranges over ``min(lanes, io_lanes)`` lanes,
  each range one walk, and the wall cost is the walk over the longest range

Identical access sequences always produce identical totals (all costs are
integers).

On-disk layout (``save`` / ``load``): one little-endian binary file per table
with records in native key order, plus ``manifest.json`` carrying the head
block and cost-model snapshot. Each versioned table is two files, its plain
table and its change sets; ``_TABLES`` is the one list of the files, their
record shapes, key widths and value codecs, and both ``save`` and ``load``
walk it. ``save`` packs each distinct variable-width record once per
table, through a memo, and writes a plain table in one buffered call and a
change set in one call per block, streaming from the sorted keys. ``load``
accepts a file only if the records it reads match the file's count and end
exactly at its last byte; it rebuilds the history index
from the change sets and rejects a file whose records repeat a (block, key)
pair or list a key's blocks out of order. The two storage tables have
fixed-width records, so ``load`` checks their length first and then slices
every key and word in bulk. A storage key is plain ``bytes``
(``StorageKey`` is only its annotation name), so each key ``load`` keeps is
the slice it cut, and the exact length proves its width. Account records
are decoded through a memo that lives for one load, so identical records
share one ``Account``: a genesis gives thousands of accounts the same
record. See the README for the byte layout of each file.
"""

from __future__ import annotations

import bisect
import json
import struct
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from . import IraError, finished, fresh_parts

ADDRESS_LEN = 20
SLOT_LEN = 32
KEY_LEN = ADDRESS_LEN + SLOT_LEN
WORD_LEN = 32
HASH_LEN = 32
ZERO_WORD = b"\x00" * WORD_LEN

STORE_FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class StoreError(IraError):
    """Base class for store failures."""

    prefix = "store error"


class OrderingError(StoreError):
    """Blocks applied out of order, or a historical read past the head."""


class MalformedEffectsError(StoreError):
    """Effects violate their shape contract (bad key or address widths)."""


# A storage key: a 20-byte address followed by a 32-byte slot, as plain
# ``bytes``, so the natural sort order is lexicographic over address then
# slot, and a decoder keeps the slice it cut.
StorageKey = bytes


def storage_key(address: bytes, slot: bytes) -> StorageKey:
    """The key of ``slot`` in the storage of ``address``."""
    if len(address) != ADDRESS_LEN:
        raise ValueError(f"address must be {ADDRESS_LEN} bytes, got {len(address)}")
    if len(slot) != SLOT_LEN:
        raise ValueError(f"slot must be {SLOT_LEN} bytes, got {len(slot)}")
    return address + slot


def check_word(word: bytes) -> bytes:
    if len(word) != WORD_LEN:
        raise ValueError(f"word must be {WORD_LEN} bytes, got {len(word)}")
    return word


class Account(NamedTuple):
    """Account record: balance, nonce and an optional bytecode hash.

    ``code_hash is None`` means the account carries no bytecode.
    """

    balance: int = 0
    nonce: int = 0
    code_hash: Optional[bytes] = None


def pack_account(acc: Account) -> bytes:
    """Canonical binary form of an account (used by persistence and digests)."""
    flag = 1 if acc.code_hash is not None else 0
    out = acc.balance.to_bytes(32, "big", signed=True) + _U64.pack(acc.nonce) + bytes((flag,))
    if flag:
        out += acc.code_hash
    return out


def _pack_prior_account(prior: Optional[Account]) -> bytes:
    """An account change-set value: a presence flag, then the record."""
    return b"\x00" if prior is None else b"\x01" + pack_account(prior)


def _unpack_account(buf: bytes, off: int, memo: Dict[bytes, Account]) -> Tuple[Account, int]:
    """Decode the account record at ``off``. ``memo`` maps record bytes to
    the records decoded so far, so identical records share one ``Account``
    (a genesis gives thousands of accounts the same balance and nonce)."""
    end = off + (41 + HASH_LEN if buf[off + 40] else 41)
    raw = buf[off:end]
    acc = memo.get(raw)
    if acc is None:
        balance = int.from_bytes(raw[:32], "big", signed=True)
        code_hash = raw[41:] if raw[40] else None
        # tuple.__new__ skips the argument handling of Account(...)
        acc = memo[raw] = tuple.__new__(Account, (balance, _U64.unpack_from(raw, 32)[0], code_hash))
    return acc, end


def _unpack_prior_account(buf: bytes, off: int, memo: Dict[bytes, Account]) -> Tuple[Optional[Account], int]:
    if buf[off]:
        return _unpack_account(buf, off + 1, memo)
    return None, off + 1


def _pack_code(code: bytes) -> bytes:
    return _U32.pack(len(code)) + code


def _unpack_code(buf: bytes, off: int, _memo: dict) -> Tuple[bytes, int]:
    (n,) = _U32.unpack_from(buf, off)
    off += 4
    return buf[off : off + n], off + n


class _Table(NamedTuple):
    """One table file: a u64 record count, then records in key order (a
    change-set file orders them by block, then key)."""

    name: str
    changes: bool  # records are ``u64 block | key | value``, else ``key | value``
    part: Callable[[ArchivalStore], Any]  # the plain dict, or the versioned table
    key_len: int
    # the bytes of a variable-width value, and (value, offset after it) of
    # one read back; both None for a WORD_LEN word, which save writes as it
    # is and load slices in bulk
    pack: Optional[Callable[[Any], bytes]]
    unpack: Optional[Callable[[bytes, int, dict], Tuple[Any, int]]]


_TABLES = (
    _Table("plain_storage.bin", False, attrgetter("storage.plain"), KEY_LEN, None, None),
    _Table("plain_accounts.bin", False, attrgetter("accounts.plain"), ADDRESS_LEN, pack_account, _unpack_account),
    _Table("bytecodes.bin", False, attrgetter("bytecodes"), HASH_LEN, _pack_code, _unpack_code),
    _Table("storage_changesets.bin", True, attrgetter("storage"), KEY_LEN, None, None),
    _Table("account_changesets.bin", True, attrgetter("accounts"), ADDRESS_LEN, _pack_prior_account, _unpack_prior_account),
)


class _Packed(dict):
    """The bytes of each distinct value seen so far, packed on first sight."""

    __slots__ = ("pack",)

    def __init__(self, pack: Callable[[Any], bytes]):
        super().__init__()
        self.pack = pack

    def __missing__(self, value: Any) -> bytes:
        out = self[value] = self.pack(value)
        return out


def _records(
    part: Dict[bytes, Any], packed: Optional[Callable[[Any], bytes]], prefix: Optional[bytes] = None
) -> Iterator[bytes]:
    """The pieces of ``part``'s records in key order: the ``prefix`` if one
    is given, the key, then the value through ``packed`` (as it is when
    ``packed`` is None)."""
    keys = sorted(part)
    values = map(part.__getitem__, keys)
    if packed is not None:
        values = map(packed, values)
    return chain.from_iterable(zip(keys, values) if prefix is None else zip(repeat(prefix), keys, values))


@finished
class CostModel(NamedTuple):
    """Integer cost units for the simulated storage stack.

    ``io_lanes`` caps how many simulated I/Os can be in flight at once: a
    :func:`walk_wall` split over more lanes than this costs the same as one
    over ``io_lanes``.
    """

    c_random_seek: int = 100
    c_sequential_step: int = 2
    c_hit: int = 1
    c_compute: int = 1
    io_lanes: int = 16

    def _finish(self) -> "CostModel":
        if not (self.c_random_seek > self.c_sequential_step >= self.c_hit >= 0):
            raise ValueError("cost model requires c_random_seek > c_sequential_step >= c_hit >= 0")
        if self.c_compute < 0:
            raise ValueError("c_compute must be >= 0")
        if self.io_lanes < 1:
            raise ValueError("io_lanes must be >= 1")
        return self


DEFAULT_COST_MODEL = CostModel()


class CostMeter:
    """Accumulates simulated cost, split into I/O, cache-hit and compute parts."""

    __slots__ = ("model", "io", "hit", "compute")

    def __init__(self, model: CostModel = DEFAULT_COST_MODEL):
        self.model = model
        self.io = 0
        self.hit = 0
        self.compute = 0

    @property
    def total(self) -> int:
        return self.io + self.hit + self.compute

    def charge_seek(self, n: int = 1) -> None:
        self.io += n * self.model.c_random_seek

    def charge_as_of(self, found: bool) -> None:
        """One as-of read: a seek for the history index consult, and one more
        for the change-set or plain entry when the key has one."""
        self.io += (2 if found else 1) * self.model.c_random_seek

    def charge_hit(self, n: int = 1) -> None:
        self.hit += n * self.model.c_hit

    def charge_compute(self, n: int = 1) -> None:
        self.compute += n * self.model.c_compute

    def __repr__(self) -> str:
        return f"CostMeter(io={self.io}, hit={self.hit}, compute={self.compute})"


class ShardedIndex:
    """Per-key ascending block numbers, one sorted list per key.

    Blocks must be added in strictly increasing order per key.
    """

    def __init__(self) -> None:
        self._map: Dict[bytes, List[int]] = {}

    def add(self, key: bytes, block: int) -> None:
        entries = self._map.get(key)
        if entries is None:
            self._map[key] = [block]
            return
        if block <= entries[-1]:
            raise OrderingError(f"history entries must be strictly increasing (got {block})")
        entries.append(block)

    def first_at_or_after(self, key: bytes, block: int) -> Optional[int]:
        entries = self._map.get(key)
        if not entries or entries[-1] < block:
            return None
        return entries[bisect.bisect_left(entries, block)]


@finished
class Effects(NamedTuple):
    """Net state updates of one block: last written value per key."""

    storage: Dict[StorageKey, bytes] = None
    accounts: Dict[bytes, Account] = None

    _finish = fresh_parts


class VersionedTable:
    """One versioned key family: the plain table, the per-block pre-image
    change sets and the history index.

    ``absent`` is the pre-image recorded for a key that had no plain entry
    (the zero word for storage, ``None`` for accounts).
    """

    __slots__ = ("plain", "changesets", "history", "absent")

    def __init__(self, absent: Any):
        self.plain: Dict[bytes, Any] = {}
        self.changesets: Dict[int, Dict[bytes, Any]] = {}
        self.history = ShardedIndex()
        self.absent = absent

    def apply(self, block: int, updates: Dict[bytes, Any]) -> None:
        """Record each key's pre-image, new value and history entry; a block
        that changed no key records no change set."""
        plain, history, absent = self.plain, self.history, self.absent
        prior: Dict[bytes, Any] = {}
        for key, value in updates.items():
            prior[key] = plain.get(key, absent)
            plain[key] = value
            history.add(key, block)
        if prior:
            self.changesets[block] = prior

    def locate(self, key: bytes, block: int) -> Tuple[Optional[int], Any]:
        """Where the value of ``key`` at the start of ``block`` lives.

        ``(n, pre-image)`` for the first modification ``n`` at or after the
        block; otherwise ``(None, plain value)``, or ``(None, None)`` when the
        key has no plain entry.
        """
        n = self.history.first_at_or_after(key, block)
        if n is not None:
            return n, self.changesets[n][key]
        return None, self.plain.get(key)


class ArchivalStore:
    """Archival state store: a versioned table for storage and one for
    accounts, plus the immutable bytecode table, which genesis seeds.

    Writers call :meth:`apply_block` with strictly consecutive block numbers;
    reads are safe under any concurrency once building is done. Cost
    accounting is per-meter, so independent readers never share state.
    """

    def __init__(self, cost_model: CostModel = DEFAULT_COST_MODEL):
        self.cost_model = cost_model
        self.storage = VersionedTable(ZERO_WORD)
        self.accounts = VersionedTable(None)
        self.bytecodes: Dict[bytes, bytes] = {}
        self.head_block = 0

    # -- building ------------------------------------------------------------

    def seed_genesis(
        self,
        storage: Optional[Dict[StorageKey, bytes]] = None,
        accounts: Optional[Dict[bytes, Account]] = None,
        codes: Optional[Dict[bytes, bytes]] = None,
    ) -> None:
        """Install a snapshot as the pre-history base state.

        Seeded entries have no change sets and no history, so they read as
        plain state at any block. Only legal on a fresh store.
        """
        if self.head_block != 0 or self.storage.plain or self.accounts.plain:
            raise OrderingError("genesis can only be seeded into an empty store")
        if storage:
            for key, value in storage.items():
                self.storage.plain[key] = check_word(value)
        if accounts:
            self.accounts.plain.update(accounts)
        if codes:
            self.bytecodes.update(codes)

    def apply_block(self, block_number: int, effects: Effects) -> None:
        """Apply one block's effects, recording pre-images and history.

        The whole block is checked first, so a malformed block changes nothing.
        """
        if block_number != self.head_block + 1:
            raise OrderingError(
                f"expected block {self.head_block + 1}, got {block_number}"
            )
        self._check(effects)
        self.storage.apply(block_number, effects.storage)
        self.accounts.apply(block_number, effects.accounts)
        self.head_block = block_number

    def _check(self, effects: Effects) -> None:
        for key, value in effects.storage.items():
            if len(key) != KEY_LEN:
                raise MalformedEffectsError(f"bad storage key width: {len(key)}")
            check_word(value)
        for addr in effects.accounts:
            if len(addr) != ADDRESS_LEN:
                raise MalformedEffectsError(f"bad address width: {len(addr)}")

    # -- reads ---------------------------------------------------------------

    def read_as_of(self, key: StorageKey, block_number: int, meter: Optional[CostMeter] = None) -> bytes:
        """Storage value visible at the *start* of ``block_number``; an absent
        key reads as the zero word."""
        if block_number > self.head_block + 1:
            raise OrderingError(f"read_as_of({block_number}) past head {self.head_block}")
        n, value = self.storage.locate(key, block_number)
        if meter is not None:
            meter.charge_as_of(n is not None or value is not None)
        return ZERO_WORD if value is None else value

    def account_as_of(self, address: bytes, block_number: int, meter: Optional[CostMeter] = None) -> Optional[Account]:
        """Account record visible at the start of ``block_number`` (None = absent)."""
        if block_number > self.head_block + 1:
            raise OrderingError(f"account_as_of({block_number}) past head {self.head_block}")
        n, acc = self.accounts.locate(address, block_number)
        if meter is not None:
            meter.charge_as_of(n is not None or acc is not None)
        return acc

    def code_as_of(self, address: bytes, block_number: int, meter: Optional[CostMeter] = None) -> Optional[bytes]:
        """Bytecode of ``address`` at the start of ``block_number`` (None = no code)."""
        acc = self.account_as_of(address, block_number, meter)
        if acc is None or acc.code_hash is None:
            return None
        code = self.bytecodes.get(acc.code_hash)
        if meter is not None and code is not None:
            meter.charge_seek()
        return code

    # -- persistence ----------------------------------------------------------

    def save(self, directory: Path) -> None:
        """Write the store to ``directory`` in the layout ``load`` reads.

        A plain table's records go to its file in one buffered
        ``writelines`` call, and a change-set file's in one call per block.
        Each call streams the pieces of the records from the sorted keys, so
        no second copy of a table is built. Variable-width values are packed
        through a memo that lives for one table, so each distinct record is
        packed once: a genesis gives thousands of accounts the same record.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for table in _TABLES:
            part = table.part(self)
            packed = None if table.pack is None else _Packed(table.pack).__getitem__
            with open(directory / table.name, "wb") as f:
                if table.changes:
                    changesets = part.changesets
                    f.write(_U64.pack(sum(map(len, changesets.values()))))
                    for block in sorted(changesets):
                        f.writelines(_records(changesets[block], packed, _U64.pack(block)))
                else:
                    f.write(_U64.pack(len(part)))
                    f.writelines(_records(part, packed))

        manifest = {
            "format": STORE_FORMAT_VERSION,
            "head_block": self.head_block,
            "cost_model": self.cost_model._asdict(),
        }
        with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, directory: Path) -> "ArchivalStore":
        directory = Path(directory)
        with open(directory / MANIFEST_NAME, "r", encoding="utf-8") as f:
            try:
                manifest = json.load(f)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise StoreError(f"{MANIFEST_NAME}: not valid JSON ({exc})") from None
        if not isinstance(manifest, dict):
            raise StoreError(f"{MANIFEST_NAME}: not a JSON object")
        if manifest.get("format") != STORE_FORMAT_VERSION:
            raise StoreError(f"unsupported store format: {manifest.get('format')}")
        if "cost_model" not in manifest:
            raise StoreError(f"{MANIFEST_NAME}: no cost_model")
        try:
            cost_model = CostModel(**manifest["cost_model"])
        except (TypeError, ValueError) as exc:
            raise StoreError(f"{MANIFEST_NAME}: bad cost_model ({exc})") from None
        if type(manifest.get("head_block")) is not int:  # a bool is no block number
            raise StoreError(f"{MANIFEST_NAME}: no integer head_block")
        store = cls(cost_model)

        # A walk over variable-width records stops at the end of the file,
        # whatever its count says; a word table's record count follows from
        # the file's length, and its records are sliced in bulk. The history
        # index is rebuilt from the change-set records: they are sorted by
        # block, so each key's blocks arrive ascending, and the index's add
        # refuses a repeated or out-of-order record.
        memo: Dict[bytes, Account] = {}  # identical account records share one Account
        for table in _TABLES:
            buf = (directory / table.name).read_bytes()
            part, key_len, unpack = table.part(store), table.key_len, table.unpack
            n, off, end = 0, 8, len(buf)
            try:
                (count,) = _U64.unpack_from(buf)
                if unpack is None:
                    width = 8 * table.changes + key_len + WORD_LEN
                    n = -(-(end - off) // width)  # the last record may be cut short
                    off += n * width
                    if n == count and off == end:
                        at = range(8 + 8 * table.changes, end, width)
                        keys = [buf[o : o + key_len] for o in at]
                        words = [buf[o + key_len : o + key_len + WORD_LEN] for o in at]
                        if table.changes:
                            blocks = [_U64.unpack_from(buf, o)[0] for o in range(8, end, width)]
                            changesets, add = part.changesets, part.history.add
                            for block, key, word in zip(blocks, keys, words):
                                cs = changesets.get(block)
                                if cs is None:
                                    cs = changesets[block] = {}
                                cs[key] = word
                                add(key, block)
                        else:
                            part.update(zip(keys, words))
                elif table.changes:
                    changesets, add, block_at = part.changesets, part.history.add, _U64.unpack_from
                    while off < end:
                        (block,) = block_at(buf, off)
                        key = buf[off + 8 : off + 8 + key_len]
                        changesets.setdefault(block, {})[key], off = unpack(buf, off + 8 + key_len, memo)
                        add(key, block)
                        n += 1
                else:
                    while off < end:
                        key = buf[off : off + key_len]
                        part[key], off = unpack(buf, off + key_len, memo)
                        n += 1
            except (struct.error, IndexError, ValueError) as exc:
                raise StoreError(f"{table.name}: record cut short ({exc})") from None
            except OrderingError as exc:
                raise StoreError(f"{table.name}: {exc}") from None
            if n != count or off != end:
                raise StoreError(f"{table.name}: {n} records end at byte {off} of {end}, count says {count}")

        store.head_block = manifest["head_block"]
        return store


class StoreView:
    """Read-only view of the store as of the start of one block.

    Passed to block execution; charges the given meter for every store access.
    """

    __slots__ = ("store", "block_number", "meter")

    def __init__(self, store: ArchivalStore, block_number: int, meter: Optional[CostMeter] = None):
        self.store = store
        self.block_number = block_number
        self.meter = meter

    def get_storage(self, key: StorageKey) -> bytes:
        return self.store.read_as_of(key, self.block_number, self.meter)

    def get_account(self, address: bytes) -> Optional[Account]:
        return self.store.account_as_of(address, self.block_number, self.meter)

    def get_code(self, address: bytes) -> Optional[bytes]:
        return self.store.code_as_of(address, self.block_number, self.meter)


class HeadView:
    """Read-only view of the store's head state: the state at the start of
    block ``head_block + 1``, the block a builder applies next.

    No modification lies at or after that block, so by the as-of rule the
    state there is the plain tables, and each read is one dict lookup with
    no history consult; :class:`StoreView` at ``head_block + 1`` gives the
    same answers through ``locate``. Nothing is charged. The view follows
    the head, so one view serves every block of a build.
    """

    __slots__ = ("store", "_storage", "_accounts", "_codes")

    def __init__(self, store: ArchivalStore):
        self.store = store
        self._storage = store.storage.plain
        self._accounts = store.accounts.plain
        self._codes = store.bytecodes

    @property
    def block_number(self) -> int:
        return self.store.head_block + 1

    def get_storage(self, key: StorageKey) -> bytes:
        return self._storage.get(key, ZERO_WORD)

    def get_account(self, address: bytes) -> Optional[Account]:
        return self._accounts.get(address)

    def get_code(self, address: bytes) -> Optional[bytes]:
        acc = self._accounts.get(address)
        if acc is None or acc.code_hash is None:
            return None
        return self._codes.get(acc.code_hash)


def walk_wall(n_keys: int, lanes: int, cost_model: CostModel) -> int:
    """Simulated wall cost of a cursor walk over ``n_keys`` sorted keys.

    The keys are split into contiguous, count-balanced ranges over
    ``min(lanes, io_lanes, n_keys)`` lanes: range sizes differ by at most
    one key, and the first ranges take the extra keys. Each range is one
    walk: a random seek for its first key and a sequential step for each
    further key. The first range is the longest, so it sets the wall cost.
    """
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    if n_keys <= 0:
        return 0
    j = min(lanes, cost_model.io_lanes, n_keys)
    return cost_model.c_random_seek + ((n_keys + j - 1) // j - 1) * cost_model.c_sequential_step
