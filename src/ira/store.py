"""Versioned archival key-value store with a deterministic simulated I/O cost model.

The store keeps three table families:

* plain tables: the current value of every storage slot / account / bytecode
  as of ``head_block``
* change sets: per-block records of the value each modified entry had
  *before* the block ran
* history indexes: per-key ascending block numbers of modifications

A historical read ("value at the start of block b") finds the first
modification at or after ``b`` and returns its recorded pre-image; if no such
modification exists the plain table answers, and a key with no plain entry
reads as the zero word.

I/O is simulated, never real: table accesses charge a :class:`CostMeter`
according to a :class:`CostModel`. The charging rules are fixed:

* ``read_as_of`` / ``account_as_of``: one random seek for the history index,
  plus one random seek when a value is actually fetched from a table
  (zero reads touch no table beyond the index)
* ``charge_parallel``: contiguous, count-balanced split of per-item costs over
  ``min(lanes, io_lanes)`` lanes, wall cost = the heaviest lane
* ``walk_wall``: a cursor walk over sorted keys costs one random seek for the
  first key and one sequential step per subsequent key; split over lanes by
  the same rule, its wall cost is the walk over the longest range

Identical access sequences always produce identical totals (all costs are
integers).

On-disk layout (``save`` / ``load``): one little-endian binary file per table
with records in native key order, plus ``manifest.json`` carrying the head
block, prune horizon and cost-model snapshot. See the README for the byte
layout of each file.
"""

from __future__ import annotations

import bisect
import functools
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

ADDRESS_LEN = 20
SLOT_LEN = 32
KEY_LEN = ADDRESS_LEN + SLOT_LEN
WORD_LEN = 32
ZERO_WORD = b"\x00" * WORD_LEN

STORE_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class StoreError(Exception):
    """Base class for store failures."""


class OrderingError(StoreError):
    """Blocks applied out of order, or a historical read past the head."""


class MalformedEffectsError(StoreError):
    """Effects violate their shape contract (duplicate keys, bad widths)."""


class StorageKey(bytes):
    """52-byte composite key: 20-byte address followed by a 32-byte slot.

    Ordering, hashing and equality are inherited from ``bytes``, so the
    natural sort order is lexicographic over the address-then-slot
    concatenation.
    """

    __slots__ = ()

    def __new__(cls, raw: bytes) -> "StorageKey":
        if len(raw) != KEY_LEN:
            raise ValueError(f"storage key must be {KEY_LEN} bytes, got {len(raw)}")
        return super().__new__(cls, raw)

    @classmethod
    def make(cls, address: bytes, slot: bytes) -> "StorageKey":
        if len(address) != ADDRESS_LEN:
            raise ValueError(f"address must be {ADDRESS_LEN} bytes, got {len(address)}")
        if len(slot) != SLOT_LEN:
            raise ValueError(f"slot must be {SLOT_LEN} bytes, got {len(slot)}")
        return super().__new__(cls, address + slot)

    @property
    def address(self) -> bytes:
        return bytes(self[:ADDRESS_LEN])

    @property
    def slot(self) -> bytes:
        return bytes(self[ADDRESS_LEN:])

    def __repr__(self) -> str:  # short form: full 104 hex chars is unreadable
        return f"StorageKey({self[:6].hex()}..{self[-4:].hex()})"


# Builds a StorageKey without the width check. Only for decoders that have
# already proven every key slice is KEY_LEN bytes, by an exact record length.
unchecked_storage_key = functools.partial(bytes.__new__, StorageKey)


def word_from_int(value: int) -> bytes:
    """Encode an unsigned integer as a 32-byte big-endian word."""
    return value.to_bytes(WORD_LEN, "big")


def check_word(word: bytes) -> bytes:
    if len(word) != WORD_LEN:
        raise ValueError(f"word must be {WORD_LEN} bytes, got {len(word)}")
    return word


@dataclass(frozen=True)
class Account:
    """Account record: balance, nonce and an optional bytecode hash.

    ``code_hash is None`` means the account carries no bytecode.
    """

    balance: int = 0
    nonce: int = 0
    code_hash: Optional[bytes] = None


_EMPTY_ACCOUNT = Account()


def _pack_account(acc: Account) -> bytes:
    flag = 1 if acc.code_hash is not None else 0
    out = acc.balance.to_bytes(32, "big", signed=True) + _U64.pack(acc.nonce) + bytes((flag,))
    if flag:
        out += acc.code_hash
    return out


def pack_account(acc: Account) -> bytes:
    """Canonical binary form of an account (used by persistence and digests)."""
    return _pack_account(acc)


def _unpack_account(buf: bytes, off: int) -> Tuple[Account, int]:
    balance = int.from_bytes(buf[off : off + 32], "big", signed=True)
    nonce = _U64.unpack_from(buf, off + 32)[0]
    flag = buf[off + 40]
    off += 41
    code_hash = None
    if flag:
        code_hash = bytes(buf[off : off + 32])
        off += 32
    return Account(balance, nonce, code_hash), off


@dataclass(frozen=True)
class CostModel:
    """Integer cost units for the simulated storage stack.

    ``io_lanes`` caps how many simulated I/Os can be in flight at once; it is
    the saturation point of :func:`charge_parallel`.
    """

    c_random_seek: int = 100
    c_sequential_step: int = 2
    c_hit: int = 1
    c_compute: int = 1
    io_lanes: int = 16

    def __post_init__(self) -> None:
        if not (self.c_random_seek > self.c_sequential_step >= self.c_hit >= 0):
            raise ValueError("cost model requires c_random_seek > c_sequential_step >= c_hit >= 0")
        if self.c_compute < 0:
            raise ValueError("c_compute must be >= 0")
        if self.io_lanes < 1:
            raise ValueError("io_lanes must be >= 1")

    def as_dict(self) -> Dict[str, int]:
        return {
            "c_random_seek": self.c_random_seek,
            "c_sequential_step": self.c_sequential_step,
            "c_hit": self.c_hit,
            "c_compute": self.c_compute,
            "io_lanes": self.io_lanes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "CostModel":
        return cls(**{k: int(v) for k, v in data.items()})


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

    def charge_step(self, n: int = 1) -> None:
        self.io += n * self.model.c_sequential_step

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

    def __contains__(self, key: bytes) -> bool:
        return key in self._map

    def entries(self, key: bytes) -> List[int]:
        return list(self._map.get(key, ()))

    def prune_before(self, horizon: int) -> None:
        """Drop all entries with block < horizon; empty keys disappear."""
        for key, entries in list(self._map.items()):
            kept = entries[bisect.bisect_left(entries, horizon) :]
            if kept:
                self._map[key] = kept
            else:
                del self._map[key]

    def items(self) -> Iterator[Tuple[bytes, List[int]]]:
        for key in sorted(self._map):
            yield key, self._map[key]

    def key_count(self) -> int:
        return len(self._map)


@dataclass
class Effects:
    """Net state updates of one block: last written value per key."""

    storage: Dict[StorageKey, bytes] = field(default_factory=dict)
    accounts: Dict[bytes, Account] = field(default_factory=dict)
    codes: Dict[bytes, bytes] = field(default_factory=dict)  # code hash -> bytecode

    @classmethod
    def from_storage_pairs(cls, pairs: Iterable[Tuple[StorageKey, bytes]]) -> "Effects":
        storage: Dict[StorageKey, bytes] = {}
        for key, value in pairs:
            if key in storage:
                raise MalformedEffectsError(f"duplicate key in effects: {key!r}")
            storage[key] = check_word(value)
        return cls(storage=storage)

    def is_empty(self) -> bool:
        return not (self.storage or self.accounts or self.codes)


class ArchivalStore:
    """Archival state store: plain tables + change sets + history indexes.

    Writers call :meth:`apply_block` with strictly consecutive block numbers;
    reads are safe under any concurrency once building is done. Cost
    accounting is per-meter, so independent readers never share state.
    """

    def __init__(self, cost_model: CostModel = DEFAULT_COST_MODEL):
        self.cost_model = cost_model
        self.plain_storage: Dict[StorageKey, bytes] = {}
        self.plain_accounts: Dict[bytes, Account] = {}
        self.bytecodes: Dict[bytes, bytes] = {}
        self.storage_changesets: Dict[int, Dict[StorageKey, bytes]] = {}
        self.account_changesets: Dict[int, Dict[bytes, Optional[Account]]] = {}
        self.storage_history = ShardedIndex()
        self.account_history = ShardedIndex()
        self.head_block = 0
        self.prune_horizon: Optional[int] = None

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
        if self.head_block != 0 or self.plain_storage or self.plain_accounts:
            raise OrderingError("genesis can only be seeded into an empty store")
        if storage:
            for key, value in storage.items():
                self.plain_storage[key] = check_word(value)
        if accounts:
            self.plain_accounts.update(accounts)
        if codes:
            self.bytecodes.update(codes)

    def apply_block(self, block_number: int, effects: Effects) -> None:
        """Apply one block's effects, recording pre-images and history."""
        if block_number != self.head_block + 1:
            raise OrderingError(
                f"expected block {self.head_block + 1}, got {block_number}"
            )
        s_prior: Dict[StorageKey, bytes] = {}
        for key, value in effects.storage.items():
            if len(key) != KEY_LEN:
                raise MalformedEffectsError(f"bad storage key width: {len(key)}")
            s_prior[key] = self.plain_storage.get(key, ZERO_WORD)
            self.plain_storage[key] = check_word(value)
            self.storage_history.add(key, block_number)
        a_prior: Dict[bytes, Optional[Account]] = {}
        for addr, acc in effects.accounts.items():
            if len(addr) != ADDRESS_LEN:
                raise MalformedEffectsError(f"bad address width: {len(addr)}")
            a_prior[addr] = self.plain_accounts.get(addr)
            self.plain_accounts[addr] = acc
            self.account_history.add(addr, block_number)
        for code_hash, code in effects.codes.items():
            existing = self.bytecodes.get(code_hash)
            if existing is not None and existing != code:
                raise MalformedEffectsError("conflicting bytecode for one code hash")
            self.bytecodes[code_hash] = code
        self.storage_changesets[block_number] = s_prior
        self.account_changesets[block_number] = a_prior
        self.head_block = block_number

    def prune(self, horizon: int) -> None:
        """Drop change sets and history entries for blocks before ``horizon``.

        Keys whose whole history falls before the horizon then read (and
        classify) as plain state.
        """
        for block in list(self.storage_changesets):
            if block < horizon:
                del self.storage_changesets[block]
        for block in list(self.account_changesets):
            if block < horizon:
                del self.account_changesets[block]
        self.storage_history.prune_before(horizon)
        self.account_history.prune_before(horizon)
        self.prune_horizon = horizon

    # -- reads ---------------------------------------------------------------

    def read_as_of(self, key: StorageKey, block_number: int, meter: Optional[CostMeter] = None) -> bytes:
        """Storage value visible at the *start* of ``block_number``.

        Resolution: pre-image of the first modification at or after the block,
        else the plain table, else the zero word.
        """
        if block_number > self.head_block + 1:
            raise OrderingError(f"read_as_of({block_number}) past head {self.head_block}")
        if meter is not None:
            meter.charge_seek()  # history index consult
        n = self.storage_history.first_at_or_after(key, block_number)
        if n is not None:
            if meter is not None:
                meter.charge_seek()
            return self.storage_changesets[n][key]
        value = self.plain_storage.get(key)
        if value is None:
            return ZERO_WORD
        if meter is not None:
            meter.charge_seek()
        return value

    def account_as_of(self, address: bytes, block_number: int, meter: Optional[CostMeter] = None) -> Optional[Account]:
        """Account record visible at the start of ``block_number`` (None = absent)."""
        if block_number > self.head_block + 1:
            raise OrderingError(f"account_as_of({block_number}) past head {self.head_block}")
        if meter is not None:
            meter.charge_seek()
        n = self.account_history.first_at_or_after(address, block_number)
        if n is not None:
            if meter is not None:
                meter.charge_seek()
            return self.account_changesets[n][address]
        acc = self.plain_accounts.get(address)
        if acc is None:
            return None
        if meter is not None:
            meter.charge_seek()
        return acc

    def code_as_of(self, address: bytes, block_number: int, meter: Optional[CostMeter] = None) -> Optional[bytes]:
        """Bytecode of ``address`` at the start of ``block_number`` (None = no code)."""
        acc = self.account_as_of(address, block_number, meter)
        if acc is None or acc.code_hash is None:
            return None
        return self.bytecode_by_hash(acc.code_hash, meter)

    def bytecode_by_hash(self, code_hash: bytes, meter: Optional[CostMeter] = None) -> Optional[bytes]:
        code = self.bytecodes.get(code_hash)
        if meter is not None and code is not None:
            meter.charge_seek()
        return code

    # -- persistence ----------------------------------------------------------

    def save(self, directory: Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)

        with open(directory / "plain_storage.bin", "wb") as f:
            f.write(_U64.pack(len(self.plain_storage)))
            for key in sorted(self.plain_storage):
                f.write(key)
                f.write(self.plain_storage[key])

        with open(directory / "plain_accounts.bin", "wb") as f:
            f.write(_U64.pack(len(self.plain_accounts)))
            for addr in sorted(self.plain_accounts):
                f.write(addr)
                f.write(_pack_account(self.plain_accounts[addr]))

        with open(directory / "bytecodes.bin", "wb") as f:
            f.write(_U64.pack(len(self.bytecodes)))
            for code_hash in sorted(self.bytecodes):
                code = self.bytecodes[code_hash]
                f.write(code_hash)
                f.write(_U32.pack(len(code)))
                f.write(code)

        with open(directory / "storage_changesets.bin", "wb") as f:
            total = sum(len(cs) for cs in self.storage_changesets.values())
            f.write(_U64.pack(total))
            for block in sorted(self.storage_changesets):
                cs = self.storage_changesets[block]
                for key in sorted(cs):
                    f.write(_U64.pack(block))
                    f.write(key)
                    f.write(cs[key])

        with open(directory / "account_changesets.bin", "wb") as f:
            total = sum(len(cs) for cs in self.account_changesets.values())
            f.write(_U64.pack(total))
            for block in sorted(self.account_changesets):
                cs = self.account_changesets[block]
                for addr in sorted(cs):
                    prior = cs[addr]
                    f.write(_U64.pack(block))
                    f.write(addr)
                    if prior is None:
                        f.write(b"\x00")
                    else:
                        f.write(b"\x01")
                        f.write(_pack_account(prior))

        for name, index, klen in (
            ("storage_history.bin", self.storage_history, KEY_LEN),
            ("account_history.bin", self.account_history, ADDRESS_LEN),
        ):
            with open(directory / name, "wb") as f:
                f.write(_U64.pack(index.key_count()))
                for key, blocks in index.items():
                    assert len(key) == klen
                    f.write(key)
                    f.write(_U32.pack(len(blocks)))
                    for b in blocks:
                        f.write(_U64.pack(b))

        manifest = {
            "format": STORE_FORMAT_VERSION,
            "head_block": self.head_block,
            "prune_horizon": self.prune_horizon,
            "cost_model": self.cost_model.as_dict(),
            "counts": {
                "plain_storage": len(self.plain_storage),
                "plain_accounts": len(self.plain_accounts),
                "bytecodes": len(self.bytecodes),
                "storage_history_keys": self.storage_history.key_count(),
                "account_history_keys": self.account_history.key_count(),
            },
        }
        with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, directory: Path) -> "ArchivalStore":
        directory = Path(directory)
        with open(directory / MANIFEST_NAME, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        if manifest.get("format") != STORE_FORMAT_VERSION:
            raise StoreError(f"unsupported store format: {manifest.get('format')}")
        store = cls(CostModel.from_dict(manifest["cost_model"]))

        # Fixed-width tables are checked against their record count up front;
        # the other tables must end exactly where their last record does.
        path = directory / "plain_storage.bin"
        try:
            width = KEY_LEN + WORD_LEN
            buf, count = _read_table(path, width)
            for off in range(8, 8 + count * width, width):
                key = unchecked_storage_key(buf[off : off + KEY_LEN])
                store.plain_storage[key] = buf[off + KEY_LEN : off + width]

            path = directory / "plain_accounts.bin"
            buf, count = _read_table(path)
            off = 8
            for _ in range(count):
                addr = bytes(buf[off : off + ADDRESS_LEN])
                off += ADDRESS_LEN
                acc, off = _unpack_account(buf, off)
                store.plain_accounts[addr] = acc
            _check_end(path, buf, off)

            path = directory / "bytecodes.bin"
            buf, count = _read_table(path)
            off = 8
            for _ in range(count):
                code_hash = bytes(buf[off : off + 32])
                off += 32
                (clen,) = _U32.unpack_from(buf, off)
                off += 4
                store.bytecodes[code_hash] = bytes(buf[off : off + clen])
                off += clen
            _check_end(path, buf, off)

            path = directory / "storage_changesets.bin"
            width = 8 + KEY_LEN + WORD_LEN
            buf, count = _read_table(path, width)
            for off in range(8, 8 + count * width, width):
                (block,) = _U64.unpack_from(buf, off)
                key = unchecked_storage_key(buf[off + 8 : off + 8 + KEY_LEN])
                store.storage_changesets.setdefault(block, {})[key] = buf[off + 8 + KEY_LEN : off + width]

            path = directory / "account_changesets.bin"
            buf, count = _read_table(path)
            off = 8
            for _ in range(count):
                (block,) = _U64.unpack_from(buf, off)
                off += 8
                addr = bytes(buf[off : off + ADDRESS_LEN])
                off += ADDRESS_LEN
                flag = buf[off]
                off += 1
                prior: Optional[Account] = None
                if flag:
                    prior, off = _unpack_account(buf, off)
                store.account_changesets.setdefault(block, {})[addr] = prior
            _check_end(path, buf, off)

            for name, index, make_key, klen in (
                ("storage_history.bin", store.storage_history, StorageKey, KEY_LEN),
                ("account_history.bin", store.account_history, bytes, ADDRESS_LEN),
            ):
                path = directory / name
                buf, count = _read_table(path)
                off = 8
                for _ in range(count):
                    key = make_key(buf[off : off + klen])
                    off += klen
                    (n,) = _U32.unpack_from(buf, off)
                    off += 4
                    for _ in range(n):
                        (b,) = _U64.unpack_from(buf, off)
                        off += 8
                        index.add(key, b)
                _check_end(path, buf, off)
        except (struct.error, IndexError, ValueError) as exc:
            raise StoreError(f"{path.name}: record cut short ({exc})") from None

        store.head_block = manifest["head_block"]
        store.prune_horizon = manifest.get("prune_horizon")
        # apply_block records a (possibly empty) change set per applied block
        first = store.prune_horizon if store.prune_horizon is not None else 1
        for b in range(first, store.head_block + 1):
            store.storage_changesets.setdefault(b, {})
            store.account_changesets.setdefault(b, {})
        return store


def _read_table(path: Path, width: int = 0) -> Tuple[bytes, int]:
    """A table file's bytes and its record count; for fixed-width records
    (``width`` > 0) the file length must match the count exactly."""
    buf = path.read_bytes()
    (count,) = _U64.unpack_from(buf, 0)
    if width and len(buf) != 8 + count * width:
        raise StoreError(f"{path.name}: {len(buf)} bytes, expected {8 + count * width} for {count} records")
    return buf, count


def _check_end(path: Path, buf: bytes, off: int) -> None:
    if off != len(buf):
        raise StoreError(f"{path.name}: records end at byte {off}, file has {len(buf)}")


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


def charge_parallel(costs: Iterable[int], lanes: int, cost_model: CostModel = DEFAULT_COST_MODEL) -> int:
    """Simulated wall cost of running independent I/O items on ``lanes`` lanes.

    Items are split into contiguous, count-balanced chunks over
    ``min(lanes, io_lanes)`` lanes (items are atomic: a lane runs whole items).
    The wall cost is the heaviest lane. One lane degenerates to the plain sum;
    lane counts beyond ``io_lanes`` change nothing.
    """
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    items = list(costs)
    if not items:
        return 0
    j = min(lanes, cost_model.io_lanes, len(items))
    if j <= 1:
        return sum(items)
    n = len(items)
    base, extra = divmod(n, j)
    wall = 0
    idx = 0
    for i in range(j):
        cnt = base + (1 if i < extra else 0)
        lane = sum(items[idx : idx + cnt])
        idx += cnt
        if lane > wall:
            wall = lane
    return wall


def walk_wall(n_keys: int, lanes: int, cost_model: CostModel) -> int:
    """Simulated wall cost of a cursor walk over ``n_keys`` sorted keys.

    The keys are split as in :func:`charge_parallel`, into contiguous,
    count-balanced ranges over ``min(lanes, io_lanes)`` lanes. Each range is
    one walk: a random seek for its first key and a sequential step for each
    further key. The first range is the longest, so it sets the wall cost.
    """
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    if n_keys <= 0:
        return 0
    j = min(lanes, cost_model.io_lanes, n_keys)
    return cost_model.c_random_seek + ((n_keys + j - 1) // j - 1) * cost_model.c_sequential_step
