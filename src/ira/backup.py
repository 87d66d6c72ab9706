"""Backup-side engine: hint decoding, source-routed sorted batch prefetching,
pipelined replay from a crash-on-miss cache, and the cross-block-LRU baseline.

Prefetching merges the hints of a batch of blocks into sorted fetch lists and
routes each entry by its source byte:

* plain keys: one forward cursor walk over the plain storage table
* zero keys: filled with the zero word, no I/O
* change-set keys and accounts, by one rule: resolved as of each block via
  three sorted walks (history index over the unique keys, change-set fetches
  ordered by (n, key) where n is the first modification at or after the
  block, plain fetches for keys no later block modified); blocks that
  resolve to the same n share one fetch. Account values change from block
  to block, so plain-table shortcuts would corrupt replay
* codes: sorted walks over the account and bytecode tables (bytecode is
  immutable, so the plain tables are authoritative at any block)

Change-set keys and accounts are resolved by the store's one as-of rule,
``VersionedTable.locate``, which names the change set ``n`` or the plain
table that holds each value; this module prices the walks but never reads a
change set or history index itself.

The plan splits each hint's sorted storage entries into per-block runs, one
per source. Its merged lists are the concatenated runs, deduplicated, so
``sorted`` merges runs instead of sorting from scratch. ``prefetch`` fills
each block's cache straight from that block's runs and prices the walks from
the merged lists' counts.

Each sorted fetch list is priced by ``store.walk_wall``: with ``workers = k``
it is split into ``min(k, io_lanes)`` contiguous ranges, each one cursor walk,
and the list's wall cost is its longest range. The batch wall cost is the sum
of the walls, which ``PrefetchResult.route_walls`` keeps one by one.

The pipeline runs on a virtual integer clock, so results are independent of
host scheduling: one producer prefetches batches and one executor replays
blocks, connected by a channel that holds at most ``channel_capacity`` steady
blocks not yet started. A block starts when both the executor and its
batch's prefetch are done, and a steady batch's prefetch starts when the
producer is free and the channel has room for the batch, that is, once an
earlier steady block has started. No clock value depends on a later batch,
so ``pipeline_run`` times and replays each batch as soon as it is prefetched,
in one pass. It takes the blocks from their iterator one batch at a time and
holds one batch of decoded blocks, hints and caches at most. Leading warm-up
batches bypass the channel, bounded by a block count and a buffer entry
budget; the first batch that does not fit ends warm-up for good. Like steady
batches, each is prefetched on every lane, one after another, and its blocks
are ready when its own prefetch ends.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain, islice
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import IraError
from .config import BaselineCacheConfig, PipelineConfig
from .store import (
    Account,
    ArchivalStore,
    CostMeter,
    CostModel,
    Effects,
    StorageKey,
    StoreView,
    VersionedTable,
    ZERO_WORD,
    walk_wall,
)
from .primary import (
    Hint,
    HintDb,
    HintIntegrityError,
    decompress_hint,
    parse_hint,
    state_change_hash,
)
from .workload import Block, execute_block


class CacheMissError(IraError):
    """Replay touched a key its hint did not cover; execution halts."""

    prefix = "completeness violation"
    exit_code = 3

    def __init__(self, domain: str, key: bytes, block_number: int):
        self.domain = domain
        self.key = bytes(key)
        self.block_number = block_number
        super().__init__(f"block {block_number}: uncovered {domain} key {self.key.hex()}")


class PrefetchError(Exception):
    """The store could not serve a prefetch plan. ``blocks`` are the blocks
    whose hints asked for what is missing; they fall back, and the rest of
    the batch is planned again."""

    def __init__(self, message: str, blocks: List[int]):
        self.blocks = blocks
        super().__init__(f"{message} (blocks {blocks})")


class BlockCache:
    """Per-block replay cache. Any lookup outside the prefetched key set
    halts replay naming the key; the cache is discarded once its block has
    executed."""

    __slots__ = ("block_number", "storage", "accounts", "codes")

    def __init__(self, block_number: int):
        self.block_number = block_number
        self.storage: Dict[StorageKey, bytes] = {}
        self.accounts: Dict[bytes, Optional[Account]] = {}
        self.codes: Dict[bytes, Optional[bytes]] = {}

    def get_storage(self, key: StorageKey) -> bytes:
        try:
            return self.storage[key]
        except KeyError:
            raise CacheMissError("storage", key, self.block_number) from None

    def get_account(self, address: bytes) -> Optional[Account]:
        try:
            return self.accounts[address]
        except KeyError:
            raise CacheMissError("account", address, self.block_number) from None

    def get_code(self, address: bytes) -> Optional[bytes]:
        try:
            return self.codes[address]
        except KeyError:
            raise CacheMissError("code", address, self.block_number) from None


class StorageRuns(NamedTuple):
    """One hint's storage keys split by route, each run in the hint's
    (ascending) key order. The fields follow the ``Source`` values, so a
    source indexes its run."""

    plain: List[StorageKey]
    zero: List[StorageKey]
    changeset: List[StorageKey]


class PrefetchPlan(NamedTuple):
    """Merged, deduplicated fetch lists for one batch of hints.

    Every (key, source) entry of every hint lands in exactly one per-block
    run of ``runs``, from which ``prefetch`` fills that block's cache. The
    merged lists are what the walks cover: change-set and account entries
    keep their block number because their values are block-dependent. Zero
    keys are deduplicated but not sorted, since no walk reads them.
    """

    blocks: List[int]
    per_block: Dict[int, Hint]
    runs: Dict[int, StorageRuns]
    plain_keys: List[StorageKey]
    zero_keys: List[StorageKey]
    changeset_pairs: List[Tuple[StorageKey, int]]
    account_pairs: List[Tuple[bytes, int]]
    code_addrs: List[bytes]


def plan_prefetch(hints: Sequence[Hint]) -> PrefetchPlan:
    """Merge a batch of decoded hints into sorted, routed fetch lists.

    Each list is the concatenation of the blocks' sorted runs, so ``sorted``
    merges runs rather than sorting from scratch."""
    per_block: Dict[int, Hint] = {}
    runs: Dict[int, StorageRuns] = {}
    for hint in hints:
        b = hint.block_number
        per_block[b] = hint
        runs[b] = split = StorageRuns([], [], [])
        for key, src in hint.storage_entries:
            split[src].append(key)
    blocks = sorted(per_block)
    return PrefetchPlan(
        blocks=blocks,
        per_block=per_block,
        runs=runs,
        plain_keys=sorted(dict.fromkeys(chain.from_iterable(runs[b].plain for b in blocks))),
        zero_keys=list(dict.fromkeys(chain.from_iterable(runs[b].zero for b in blocks))),
        changeset_pairs=sorted(dict.fromkeys((key, b) for b in blocks for key in runs[b].changeset)),
        account_pairs=sorted(dict.fromkeys((addr, b) for b in blocks for addr in per_block[b].accounts)),
        code_addrs=sorted(dict.fromkeys(chain.from_iterable(per_block[b].codes for b in blocks))),
    )


# prefetch walks, in the order ``prefetch`` prices them
ROUTES = (
    "plain",
    "changeset_consult",
    "changeset_fetch",
    "changeset_plain",
    "account_consult",
    "account_fetch",
    "account_plain",
    "code",
    "bytecode",
)


class PrefetchResult(NamedTuple):
    caches: Dict[int, BlockCache]
    wall_cost: int
    per_block_cost: Dict[int, int]
    route_walls: Dict[str, int]  # one wall per name in ROUTES; they sum to wall_cost


def _resolve(
    table: VersionedTable,
    per_block: Iterable[Tuple[int, Sequence[bytes], Dict[bytes, Any]]],
    workers: int,
    model: CostModel,
) -> Tuple[int, int, int]:
    """Resolve each block's keys as of that block with ``table.locate``.

    ``per_block`` yields ``(block, keys, values)``; the value of each key
    goes in ``values`` (``table.absent`` for an absent key). Returns the
    three walls: the history consult over the unique keys, the change-set
    fetches over the unique ``(n, key)`` pairs (blocks that resolve to the
    same ``n`` share one) and the plain reads over the unique keys that no
    later block modified.
    """
    locate, absent = table.locate, table.absent
    consult: Set[bytes] = set()
    fetches: Set[Tuple[int, bytes]] = set()
    plain_keys: Set[bytes] = set()
    for block, keys, values in per_block:
        consult.update(keys)
        for key in keys:
            n, value = locate(key, block)
            if n is not None:
                fetches.add((n, key))
            elif value is not None:
                plain_keys.add(key)
            values[key] = absent if value is None else value
    return tuple(walk_wall(len(part), workers, model) for part in (consult, fetches, plain_keys))


def prefetch(plan: PrefetchPlan, store: ArchivalStore, *, workers: int) -> PrefetchResult:
    """Fetch everything a batch needs and assemble one cache per block.

    Each block's cache receives exactly the keys its own hint listed, with
    values routed per that hint's sources, straight from the block's runs.
    """
    model = store.cost_model
    plain = store.storage.plain
    caches: Dict[int, BlockCache] = {b: BlockCache(b) for b in plan.blocks}

    walls: Dict[str, int] = {}
    walls["plain"] = walk_wall(len(plan.plain_keys), workers, model)
    try:
        for b, cache in caches.items():
            runs = plan.runs[b]
            cache.storage = dict.fromkeys(runs.zero, ZERO_WORD)
            cache.storage.update(zip(runs.plain, map(plain.__getitem__, runs.plain)))
    except KeyError:
        key = next(k for k in plan.plain_keys if k not in plain)
        blocks = [b for b in plan.blocks if key in plan.runs[b].plain]
        raise PrefetchError(f"plain-routed key missing from plain storage: {key.hex()}", blocks) from None

    # change-set keys and accounts: block-dependent values, by one rule
    walls["changeset_consult"], walls["changeset_fetch"], walls["changeset_plain"] = _resolve(
        store.storage, ((b, plan.runs[b].changeset, cache.storage) for b, cache in caches.items()), workers, model
    )
    walls["account_consult"], walls["account_fetch"], walls["account_plain"] = _resolve(
        store.accounts, ((b, plan.per_block[b].accounts, cache.accounts) for b, cache in caches.items()), workers, model
    )

    # codes: bytecode is immutable, so plain account and bytecode tables are
    # authoritative for any block
    code_vals: Dict[bytes, Optional[bytes]] = {}
    hashes: Set[bytes] = set()
    for addr in plan.code_addrs:
        acc = store.accounts.plain.get(addr)
        if acc is None or acc.code_hash is None:
            code_vals[addr] = None
            continue
        code = store.bytecodes.get(acc.code_hash)
        if code is None:
            blocks = [b for b in plan.blocks if addr in plan.per_block[b].codes]
            raise PrefetchError(f"bytecode missing for hash {acc.code_hash.hex()}", blocks)
        code_vals[addr] = code
        hashes.add(acc.code_hash)
    walls["code"] = walk_wall(len(plan.code_addrs), workers, model)
    walls["bytecode"] = walk_wall(len(hashes), workers, model)
    wall = sum(walls.values())

    per_block_cost: Dict[int, int] = {}
    total_entries = sum(hint.entry_count() for hint in plan.per_block.values()) or 1
    remainder = wall
    for i, (b, cache) in enumerate(caches.items()):
        hint = plan.per_block[b]
        cache.codes = {addr: code_vals[addr] for addr in hint.codes}
        if i == len(plan.blocks) - 1:
            share = remainder
        else:
            share = wall * hint.entry_count() // total_entries
        per_block_cost[b] = share
        remainder -= share
    return PrefetchResult(caches=caches, wall_cost=wall, per_block_cost=per_block_cost, route_walls=walls)


class ReplayBlockResult(NamedTuple):
    block_number: int
    effects: Effects
    digest: bytes
    t_exec: int


def replay_block(block: Block, cache: BlockCache, cost_model: CostModel) -> ReplayBlockResult:
    """Execute a block entirely from its prefetched cache.

    All reads are served at hit cost; a miss halts immediately (the cache
    refuses to fall back to the store)."""
    meter = CostMeter(cost_model)
    result = execute_block(block, cache, meter)
    return ReplayBlockResult(
        block_number=block.number,
        effects=result.effects,
        digest=state_change_hash(result.effects),
        t_exec=meter.total,
    )


# -- pipeline ---------------------------------------------------------------------


class BlockMetrics(NamedTuple):
    block: int
    t_wait: int
    t_exec: int
    prefetch_cost: int
    hint_raw_bytes: int
    hint_compressed_bytes: int
    fallback: bool
    digest: bytes


class ReplayMetrics(NamedTuple):
    rows: List[BlockMetrics]
    wall_cost: int
    prefetch_total: int
    prefetch_by_route: Dict[str, int]  # prefetch_total split by ROUTES
    exec_total: int
    wait_total: int
    fallback_blocks: int
    corrupt_hints: int

    def digests(self) -> Dict[int, bytes]:
        return {r.block: r.digest for r in self.rows}


class _Batch(NamedTuple):
    """One batch of blocks with the prefetch plan of its decoded hints.

    ``fallback`` holds the blocks replayed against the store: their hint is
    missing, corrupt, misfiled or unservable; ``corrupt`` counts all of those
    but the missing ones."""

    blocks: List[Block]
    plan: PrefetchPlan
    fallback: Set[int]
    raw_sizes: Dict[int, int]
    comp_sizes: Dict[int, int]
    corrupt: int


def _decode_batch(batch: List[Block], hint_db: Optional[HintDb]) -> _Batch:
    """Decode and plan the batch's hints; blocks with missing or corrupt hints
    are marked for the unhinted fallback path."""
    hints: List[Hint] = []
    fallback: Set[int] = set()
    raw_sizes: Dict[int, int] = {}
    comp_sizes: Dict[int, int] = {}
    corrupt = 0
    for block in batch:
        data = None
        if hint_db is not None:
            try:
                data = hint_db.read_hint(block.number)
            except HintIntegrityError:
                corrupt += 1
                data = None
        if data is None:
            fallback.add(block.number)
            continue
        try:
            raw = decompress_hint(data)
            hint = parse_hint(raw)
            if hint.block_number != block.number:
                raise HintIntegrityError(f"hint for block {hint.block_number} filed under {block.number}")
        except HintIntegrityError:
            corrupt += 1
            fallback.add(block.number)
            continue
        raw_sizes[block.number] = len(raw)
        comp_sizes[block.number] = len(data)
        hints.append(hint)
    return _Batch(batch, plan_prefetch(hints), fallback, raw_sizes, comp_sizes, corrupt)


def _prefetch_batch(batch: _Batch, store: ArchivalStore, workers: int) -> Tuple[PrefetchResult, _Batch]:
    """Prefetch a decoded batch, and return the batch as prefetched. Blocks
    whose hints the store cannot serve go to the fallback, counted as
    corrupt, and the rest is planned again; each retry drops at least one
    block, so the loop ends."""
    while True:
        try:
            return prefetch(batch.plan, store, workers=workers), batch
        except PrefetchError as exc:
            refused = set(exc.blocks)
            batch = batch._replace(
                plan=plan_prefetch([h for b, h in batch.plan.per_block.items() if b not in refused]),
                fallback=batch.fallback | refused,
                corrupt=batch.corrupt + len(refused),
            )


def pipeline_run(
    blocks: Iterable[Block],
    store: ArchivalStore,
    hint_db: Optional[HintDb],
    config: Optional[PipelineConfig] = None,
) -> ReplayMetrics:
    """Replay a block range through the prefetcher/executor pipeline on a
    simulated clock.

    Per block, ``t_wait`` is how long the executor stalled before the block's
    cache was ready (a stalled batch charges its wait to the batch's first
    block; later blocks of the batch are already ready when the executor gets
    to them). Missing or corrupt hints, and hints the store cannot serve,
    degrade that block to direct execution against the store, flagged in its
    row.

    ``blocks`` is consumed one batch at a time, and every reference to a
    batch is dropped before the next one is taken, so a trace streamed from
    a file is never held whole.
    """
    config = config or PipelineConfig()
    model = store.cost_model
    it = iter(blocks)
    by_route = dict.fromkeys(ROUTES, 0)
    corrupt = 0
    rows: List[BlockMetrics] = []
    steady_starts: List[int] = []  # execution start of each steady block
    exec_free = 0

    # Warm-up batches bypass the bounded channel. Warm-up is bounded by block
    # count and, past the first batch, the buffer entry budget; the first
    # batch over either bound ends it for good. A steady batch may enter the
    # channel once at most channel_capacity steady blocks would be in it, not
    # yet started, so the producer starts when both it and the channel are
    # free. The blocks that must start first are all in earlier batches, so
    # each batch is replayed as soon as it is prefetched.
    warm = True
    prod_free = warm_blocks = warm_entries = 0
    while True:
        batch = _decode_batch(list(islice(it, config.batch_size)), hint_db)
        if not batch.blocks:
            break
        room = 0
        if warm:
            entries = sum(hint.entry_count() for hint in batch.plan.per_block.values())
            warm = warm_blocks + len(batch.blocks) <= config.warmup_blocks and not (
                warm_blocks and warm_entries + entries > config.warmup_buffer_entries
            )
            warm_blocks += len(batch.blocks)
            warm_entries += entries
        if not warm:
            need = len(steady_starts) + len(batch.blocks) - config.channel_capacity
            if need > 0:
                room = steady_starts[need - 1]
        pf, batch = _prefetch_batch(batch, store, config.workers)
        prod_free = max(prod_free, room) + pf.wall_cost
        for route, wall in pf.route_walls.items():
            by_route[route] += wall
        corrupt += batch.corrupt
        for block in batch.blocks:
            b = block.number
            start = max(exec_free, prod_free)
            if not warm:
                steady_starts.append(start)
            if b in batch.fallback:
                meter = CostMeter(model)
                result = execute_block(block, StoreView(store, b, meter), meter)
                t_exec, digest = meter.total, state_change_hash(result.effects)
                cost = raw = comp = 0
            else:
                # popped, so the cache dies as soon as its block has executed
                rb = replay_block(block, pf.caches.pop(b), model)
                t_exec, digest = rb.t_exec, rb.digest
                cost, raw, comp = pf.per_block_cost[b], batch.raw_sizes[b], batch.comp_sizes[b]
            rows.append(BlockMetrics(b, start - exec_free, t_exec, cost, raw, comp, b in batch.fallback, digest))
            exec_free = start + t_exec
        # nothing of this batch may be alive while the next one is decoded
        batch = pf = block = result = rb = None

    return ReplayMetrics(
        rows=rows,
        wall_cost=exec_free,
        prefetch_total=sum(by_route.values()),
        prefetch_by_route=by_route,
        exec_total=sum(r.t_exec for r in rows),
        wait_total=sum(r.t_wait for r in rows),
        fallback_blocks=sum(r.fallback for r in rows),
        corrupt_hints=corrupt,
    )


# -- baseline ---------------------------------------------------------------------


class _LruMap:
    __slots__ = ("capacity", "_data")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        data = self._data
        if key in data:
            data.move_to_end(key)
            return data[key]
        return None

    def put(self, key, value) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.capacity:
            data.popitem(last=False)


_ABSENT = object()


class BaselineView:
    """Read-through view for the unhinted baseline: misses fall from the
    cross-block LRU to the store's full historical lookup and are inserted
    back into the LRU."""

    __slots__ = ("store", "block_number", "meter", "lru_storage", "lru_accounts", "lru_codes")

    def __init__(self, store, block_number, meter, lru_storage, lru_accounts, lru_codes):
        self.store = store
        self.block_number = block_number
        self.meter = meter
        self.lru_storage = lru_storage
        self.lru_accounts = lru_accounts
        self.lru_codes = lru_codes

    def get_storage(self, key: StorageKey) -> bytes:
        value = self.lru_storage.get(key)
        if value is None:
            value = self.store.read_as_of(key, self.block_number, self.meter)
            self.lru_storage.put(key, value)
        return value

    def get_account(self, address: bytes) -> Optional[Account]:
        acc = self.lru_accounts.get(address)
        if acc is None:
            acc = self.store.account_as_of(address, self.block_number, self.meter)
            self.lru_accounts.put(address, acc if acc is not None else _ABSENT)
        elif acc is _ABSENT:
            return None
        return acc

    def get_code(self, address: bytes) -> Optional[bytes]:
        code = self.lru_codes.get(address)
        if code is None:
            code = self.store.code_as_of(address, self.block_number, self.meter)
            self.lru_codes.put(address, code if code is not None else _ABSENT)
        elif code is _ABSENT:
            return None
        return code


class BaselineBlockMetrics(NamedTuple):
    block: int
    t_baseline: int
    ops: int
    reads: int
    io_cost: int
    digest: bytes


class BaselineMetrics(NamedTuple):
    rows: List[BaselineBlockMetrics]
    total_cost: int
    io: int

    @property
    def io_fraction(self) -> float:
        return self.io / self.total_cost if self.total_cost else 0.0

    def digests(self) -> Dict[int, bytes]:
        return {r.block: r.digest for r in self.rows}


def run_baseline(
    blocks: Iterable[Block],
    store: ArchivalStore,
    cache_config: Optional[BaselineCacheConfig] = None,
) -> BaselineMetrics:
    """Sequentially execute blocks through a per-block cache backed by a
    cross-block LRU; after each block the touched state is in the LRU (reads
    are inserted on fetch, writes merged from the block's effects)."""
    cfg = cache_config or BaselineCacheConfig()
    model = store.cost_model
    lru_s = _LruMap(cfg.storage)
    lru_a = _LruMap(cfg.accounts)
    lru_c = _LruMap(cfg.codes)
    rows: List[BaselineBlockMetrics] = []
    total_io = total_cost = 0
    for block in blocks:
        meter = CostMeter(model)
        view = BaselineView(store, block.number, meter, lru_s, lru_a, lru_c)
        result = execute_block(block, view, meter)
        for key, value in result.effects.storage.items():
            lru_s.put(key, value)
        for addr, acc in result.effects.accounts.items():
            lru_a.put(addr, acc)
        rows.append(
            BaselineBlockMetrics(
                block=block.number,
                t_baseline=meter.total,
                ops=result.op_count,
                reads=result.read_count,
                io_cost=meter.io,
                digest=state_change_hash(result.effects),
            )
        )
        total_io += meter.io
        total_cost += meter.total
    return BaselineMetrics(rows=rows, total_cost=total_cost, io=total_io)
