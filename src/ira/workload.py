"""Deterministic block/transaction/operation model and a synthetic trace generator.

Operations are value-explicit: a storage write carries its 32-byte word in the
op itself, so a block's storage effects are a pure function of the op list.
Account effects are not: every transaction charges its sender a fee of
``len(ops) + 1``, credits the block beneficiary, and bumps the sender nonce,
all computed from the account values visible at that point. Replaying a block
therefore requires correct historical account state, which is what makes
digest comparison between engines meaningful.

An op is a plain ``(kind, key, value)`` tuple (``Op``), and every walk over
ops unpacks it in its ``for`` statement. Decode, execution and analysis
touch every op of a trace (about 78,000 in 16 default blocks), and a tuple
literal is cheaper to build and to read than an object with named fields.

The generator is driven entirely by explicit config values. Targets such as
the ephemeral-key fraction and the intra-block reuse factor are constructed
directly (fresh single-appearance keys vs. scheduled pair reappearances vs. a
small hot set), so measured statistics land close to the configured numbers.
All randomness flows through ``random.Random`` primitives with stable
cross-version behavior (``random()``, ``getrandbits``, ``sample``), so a
seed fully determines the trace bytes. Shuffles go through ``_shuffle``,
which draws from ``getrandbits`` exactly as ``Random.shuffle`` does.

Trace file format (``save_trace`` / ``iter_trace_file``), little-endian:

    header: magic b"TRC1", u16 version, u32 params_json_len, params_json,
            u64 block_count
    per block: u32 payload_len, then payload:
            u64 number, 20-byte beneficiary, u32 tx_count,
            per tx: 20-byte sender, 20-byte recipient, u32 op_count,
                per op: u8 kind, then key bytes (52 for storage, 20 for
                address kinds), then 32-byte value for storage writes
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from bisect import bisect_right
from enum import IntEnum
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import IraError, finished, fresh_parts
from .store import (
    ADDRESS_LEN,
    Account,
    ArchivalStore,
    CostMeter,
    CostModel,
    DEFAULT_COST_MODEL,
    Effects,
    KEY_LEN,
    StorageKey,
    StoreView,
    WORD_LEN,
    storage_key,
)

TRACE_MAGIC = b"TRC1"
TRACE_VERSION = 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class ParameterError(ValueError):
    """Generator parameters are out of range or jointly infeasible."""


class TraceFormatError(IraError):
    """Trace file is malformed or has an unsupported version."""

    prefix = "trace error"


class OpKind(IntEnum):
    STORAGE_READ = 0
    STORAGE_WRITE = 1
    ACCOUNT_READ = 2
    CODE_LOAD = 3


# One state operation, a plain ``(kind, key, value)`` tuple: ``key`` is a
# 52-byte storage key (plain ``bytes``, see ``store.StorageKey``) for storage
# kinds and a 20-byte address for account/code kinds;
# ``value`` is the 32-byte word of a storage write and None otherwise.
Op = Tuple[int, bytes, Optional[bytes]]


class Transaction(NamedTuple):
    sender: bytes
    recipient: bytes
    ops: List[Op]


class Block(NamedTuple):
    number: int
    beneficiary: bytes
    txs: List[Transaction]


# -- deterministic identities --------------------------------------------------


def account_address(i: int) -> bytes:
    return hashlib.sha256(b"account:%d" % i).digest()[:ADDRESS_LEN]


def contract_address(i: int) -> bytes:
    return hashlib.sha256(b"contract:%d" % i).digest()[:ADDRESS_LEN]


def contract_code(i: int) -> bytes:
    seedb = hashlib.sha256(b"code:%d" % i).digest()
    size = 256 + (i * 97) % 2048
    return (seedb * (size // len(seedb) + 1))[:size]


def code_hash_of(code: bytes) -> bytes:
    return hashlib.sha256(code).digest()


def _sub_seed(seed: int, label: str) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:8], "big")


# -- stable distribution helpers (built on rng.random only) --------------------


def _gauss(rng: random.Random) -> float:
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _lognormal(rng: random.Random, median: float, sigma: float) -> float:
    return median * math.exp(sigma * _gauss(rng))


def _count_around(rng: random.Random, mean: float) -> int:
    if mean <= 0:
        return 0
    return max(1, int(round(mean + math.sqrt(mean) * _gauss(rng))))


def _zipf_cdf(n: int, exponent: float) -> List[float]:
    weights = [1.0 / (i + 1) ** exponent for i in range(n)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def _draw_cdf(rng: random.Random, cdf: List[float]) -> int:
    return bisect_right(cdf, rng.random())


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` does: the same
    Fisher-Yates swaps from the same ``getrandbits(k)`` rejection draws, so
    the list and the generator's state afterwards are the same, but with no
    ``_randbelow`` call per element."""
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


# -- generator -----------------------------------------------------------------


@finished
class GeneratorParams(NamedTuple):
    """Knobs for the synthetic trace generator.

    Every statistical target here is an explicit configuration value with a
    tolerance, not a measured ground truth; defaults are chosen to give a
    desk-scale workload with a bounded per-block working set, heavy key
    ephemerality and read-dominated storage traffic.
    """

    blocks: int = 1000
    txs_per_block_mean: float = 238.0
    unique_keys_median: int = 1900
    unique_keys_sigma: float = 0.25
    hot_contract_zipf_exponent: float = 1.1
    ephemeral_key_fraction: float = 0.90
    intra_block_reuse_factor: float = 2.7
    read_write_ratio: float = 7.0
    reads_only: bool = False
    accounts_per_block: float = 48.0
    codes_per_block: float = 24.0
    n_contracts: int = 1000
    n_code_contracts: int = 300
    n_accounts: int = 20000
    hot_keys: int = 3000
    hot_key_share: float = 0.06
    pair_gap_mean: float = 8.0
    seed_trace_keys: bool = False
    seed: int = 1

    def _finish(self) -> "GeneratorParams":
        if self.blocks < 1:
            raise ParameterError("blocks must be >= 1")
        for name in ("ephemeral_key_fraction", "hot_key_share"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ParameterError(f"{name} must be in [0, 1]")
        if self.intra_block_reuse_factor < 1.0:
            raise ParameterError("intra_block_reuse_factor must be >= 1 (every key is accessed at least once)")
        if self.read_write_ratio <= 0 and not self.reads_only:
            raise ParameterError("read_write_ratio must be positive")
        if self.unique_keys_median < 1 or self.unique_keys_sigma < 0:
            raise ParameterError("unique key distribution is degenerate")
        if self.n_accounts < 1 or self.n_contracts < 1:
            raise ParameterError("need at least one account and one contract")
        if self.n_code_contracts > self.n_contracts:
            raise ParameterError("n_code_contracts cannot exceed n_contracts")
        if self.hot_key_share > 0 and self.hot_keys < 1:
            raise ParameterError("hot_key_share > 0 requires hot_keys >= 1")
        return self


def plain_read_params(blocks: int = 1000, seed: int = 7) -> GeneratorParams:
    """Read-only profile over pre-seeded keys: every storage read resolves
    from the plain table, which isolates the I/O-elimination ceiling.

    The reuse factor is tuned together with the default cost model so the
    baseline's I/O share of total cost sits near 0.96.
    """
    return GeneratorParams(
        blocks=blocks,
        intra_block_reuse_factor=4.0,
        ephemeral_key_fraction=1.0,
        hot_key_share=0.0,
        reads_only=True,
        accounts_per_block=0.0,
        codes_per_block=0.0,
        seed_trace_keys=True,
        seed=seed,
    )


def iter_trace(params: GeneratorParams) -> Iterator[Block]:
    """Yield the deterministic block sequence for ``params``."""
    rng = random.Random(params.seed)
    hot_rng = random.Random(_sub_seed(params.seed, "hot"))

    contract_cdf = _zipf_cdf(params.n_contracts, params.hot_contract_zipf_exponent)
    # one sha256 per contract for the whole trace, not one per drawn key
    contracts = [contract_address(c) for c in range(params.n_contracts)]
    hot_pool: List[StorageKey] = []
    if params.hot_key_share > 0:
        for _ in range(params.hot_keys):
            c = _draw_cdf(hot_rng, contract_cdf)
            slot = hot_rng.getrandbits(256).to_bytes(32, "big")
            hot_pool.append(storage_key(contracts[c], slot))
        hot_cdf = _zipf_cdf(len(hot_pool), params.hot_contract_zipf_exponent)
    else:
        hot_cdf = []

    write_p = 0.0 if params.reads_only else 1.0 / (1.0 + params.read_write_ratio)
    ephem = params.ephemeral_key_fraction
    due: Dict[int, List[StorageKey]] = {}

    def fresh_key() -> StorageKey:
        c = _draw_cdf(rng, contract_cdf)
        slot = rng.getrandbits(256).to_bytes(32, "big")
        return storage_key(contracts[c], slot)

    for number in range(1, params.blocks + 1):
        u = max(8, int(_lognormal(rng, params.unique_keys_median, params.unique_keys_sigma)))
        hot_n = min(int(round(u * params.hot_key_share)), len(hot_pool))
        due_keys = due.pop(number, [])
        if len(due_keys) > u - hot_n:
            overflow = due_keys[u - hot_n :]
            due_keys = due_keys[: u - hot_n]
            if number + 1 <= params.blocks:
                due.setdefault(number + 1, []).extend(overflow)
        remaining = u - hot_n - len(due_keys)
        n_fresh = int(round(remaining * ephem))
        n_pair = remaining - n_fresh

        keys: List[StorageKey] = list(due_keys)
        for _ in range(n_fresh):
            keys.append(fresh_key())
        for _ in range(n_pair):
            key = fresh_key()
            keys.append(key)
            gap = 1 + int(-math.log(1.0 - rng.random()) * params.pair_gap_mean)
            target = number + gap
            if target <= params.blocks:
                due.setdefault(target, []).append(key)
        if hot_n:
            chosen: Set[StorageKey] = set()
            while len(chosen) < hot_n:
                chosen.add(hot_pool[_draw_cdf(rng, hot_cdf)])
            keys.extend(sorted(chosen))
        _shuffle(rng, keys)

        n_ops = max(len(keys), int(round(params.intra_block_reuse_factor * len(keys))))
        accesses: List[StorageKey] = list(keys)
        n_keys = len(keys)
        for _ in range(n_ops - n_keys):
            accesses.append(keys[int(rng.random() * n_keys)])
        _shuffle(rng, accesses)

        ops: List[Op] = []
        for key in accesses:
            if write_p and rng.random() < write_p:
                ops.append((1, key, rng.getrandbits(256).to_bytes(32, "big")))  # STORAGE_WRITE
            else:
                ops.append((0, key, None))  # STORAGE_READ
        for _ in range(_count_around(rng, params.accounts_per_block) if params.accounts_per_block > 0 else 0):
            ops.append((2, account_address(int(rng.random() * params.n_accounts)), None))  # ACCOUNT_READ
        for _ in range(_count_around(rng, params.codes_per_block) if params.codes_per_block > 0 else 0):
            ops.append((3, contracts[int(rng.random() * params.n_code_contracts)], None))  # CODE_LOAD
        _shuffle(rng, ops)

        n_txs = min(_count_around(rng, params.txs_per_block_mean), len(ops))
        n_txs = max(1, n_txs)
        if n_txs > 1:
            cuts = sorted(rng.sample(range(1, len(ops)), n_txs - 1))
        else:
            cuts = []
        bounds = [0] + cuts + [len(ops)]
        txs: List[Transaction] = []
        for i in range(n_txs):
            sender = account_address(int(rng.random() * params.n_accounts))
            recipient = account_address(int(rng.random() * params.n_accounts))
            txs.append(Transaction(sender, recipient, ops[bounds[i] : bounds[i + 1]]))
        beneficiary = account_address(int(rng.random() * params.n_accounts))
        yield Block(number, beneficiary, txs)


# -- genesis -------------------------------------------------------------------


@finished
class GenesisState(NamedTuple):
    storage: Dict[StorageKey, bytes] = None
    accounts: Dict[bytes, Account] = None
    codes: Dict[bytes, bytes] = None

    _finish = fresh_parts


def seed_word_for(key: StorageKey) -> bytes:
    """Deterministic nonzero word used when pre-seeding storage keys."""
    return hashlib.sha256(b"seed:" + key).digest()


def derive_genesis(params: GeneratorParams, storage_keys: Optional[Iterable[StorageKey]] = None) -> GenesisState:
    """Base state implied by the params: the account universe, contract
    accounts with bytecode, and (optionally) pre-seeded storage keys."""
    genesis = GenesisState()
    start_balance = 10**24
    for i in range(params.n_accounts):
        genesis.accounts[account_address(i)] = Account(balance=start_balance, nonce=0)
    for i in range(params.n_contracts):
        if i < params.n_code_contracts:
            code = contract_code(i)
            ch = code_hash_of(code)
            genesis.codes[ch] = code
            genesis.accounts[contract_address(i)] = Account(balance=0, nonce=1, code_hash=ch)
        else:
            genesis.accounts[contract_address(i)] = Account(balance=0, nonce=1)
    if storage_keys is not None:
        for key in storage_keys:
            genesis.storage[key] = seed_word_for(key)
    return genesis


def collect_storage_keys(blocks: Iterable[Block]) -> Set[StorageKey]:
    keys: Set[StorageKey] = set()
    for block in blocks:
        for tx in block.txs:
            for kind, key, _ in tx.ops:
                if kind <= 1:  # a storage kind
                    keys.add(key)  # type: ignore[arg-type]
    return keys


# -- execution -------------------------------------------------------------------


_EMPTY = Account()
_LOG_TAGS = ("S", "S", "A", "C")  # access-log tag of each op kind


class ExecResult(NamedTuple):
    """Outcome of executing one block against a state view."""

    effects: Effects
    op_count: int
    read_count: int
    account_memo: Dict[bytes, Optional[Account]]  # each account read, in first-fetch order
    code_memo: Dict[bytes, Optional[bytes]]  # each code read, in first-fetch order
    access_log: Optional[List[Tuple[str, bytes]]]


def execute_block(
    block: Block,
    view,
    meter: Optional[CostMeter] = None,
    collect_log: bool = False,
) -> ExecResult:
    """Run a block's operations in order over a write-through overlay.

    Reads observe all earlier writes in the block; effects keep the last
    written value per key. Every transaction also charges its sender a fee of
    ``len(ops) + 1`` (credited to the beneficiary) and bumps the sender nonce,
    which touches the sender, recipient and beneficiary accounts.

    A write to a storage key the block has not seen first reads the key's
    original value through the view, as ``SSTORE`` does (EIP-2200). The
    meter is charged one compute unit per op and one hit unit per read
    access (explicit read ops, those original-value reads and the implicit
    per-tx account touches); any I/O the view performs lands on the same
    meter via the view itself.

    The loop keeps no per-op bookkeeping. The view is asked for every key of
    the block at its first access, and for a storage key again only while
    its answer is ``None`` and no write has covered it. The read count is
    ``ops - writes + write_first + 3 * txs``, where ``write_first`` counts the
    keys first accessed by a write. The account and code memos come back as
    they are, in first-fetch order (every account the overlay holds was read
    first). ``collect_log`` adds the block's ``access_log``.
    """
    storage_overlay: Dict[StorageKey, bytes] = {}
    seen: Dict[StorageKey, Optional[bytes]] = {}  # each storage key's value as last read or written
    account_overlay: Dict[bytes, Account] = {}
    account_memo: Dict[bytes, Optional[Account]] = {}
    code_memo: Dict[bytes, Optional[bytes]] = {}
    get_storage, get_account, get_code = view.get_storage, view.get_account, view.get_code
    beneficiary = block.beneficiary
    ops = writes = write_first = 0

    for sender, recipient, tx_ops in block.txs:
        for kind, key, value in tx_ops:
            if kind == 0:  # STORAGE_READ
                if seen.get(key) is None:
                    seen[key] = get_storage(key)
            elif kind == 1:  # STORAGE_WRITE
                if key not in seen:  # the original value, read once
                    get_storage(key)
                    write_first += 1
                storage_overlay[key] = seen[key] = value
                writes += 1
            elif kind == 2:  # ACCOUNT_READ
                if key not in account_memo:
                    account_memo[key] = get_account(key)
            elif key not in code_memo:  # CODE_LOAD
                code_memo[key] = get_code(key)

        ops += len(tx_ops)
        fee = len(tx_ops) + 1
        if sender not in account_memo:
            account_memo[sender] = get_account(sender)
        acc = account_overlay.get(sender) or account_memo[sender] or _EMPTY
        # tuple.__new__ skips the argument handling of Account(...)
        account_overlay[sender] = tuple.__new__(Account, (acc[0] - fee, acc[1] + 1, acc[2]))
        if recipient not in account_memo:
            account_memo[recipient] = get_account(recipient)
        if beneficiary not in account_memo:
            account_memo[beneficiary] = get_account(beneficiary)
        acc = account_overlay.get(beneficiary) or account_memo[beneficiary] or _EMPTY
        account_overlay[beneficiary] = tuple.__new__(Account, (acc[0] + fee, acc[1], acc[2]))

    reads = ops - writes + write_first + 3 * len(block.txs)
    if meter is not None:
        meter.charge_compute(ops)
        meter.charge_hit(reads)

    return ExecResult(
        effects=Effects(storage=storage_overlay, accounts=account_overlay),
        op_count=ops,
        read_count=reads,
        account_memo=account_memo,
        code_memo=code_memo,
        access_log=access_log(block) if collect_log else None,
    )


def access_log(block: Block) -> List[Tuple[str, bytes]]:
    """Every access of the block's execution in op order, tagged ``S``
    (storage), ``A`` (account) or ``C`` (code), each transaction's implicit
    sender, recipient and beneficiary reads last. The op stream alone fixes
    it, whatever the state."""
    log: List[Tuple[str, bytes]] = []
    for tx in block.txs:
        log += [(_LOG_TAGS[kind], key) for kind, key, _ in tx.ops]
        log += (("A", tx.sender), ("A", tx.recipient), ("A", block.beneficiary))
    return log


def build_store(
    blocks: Iterable[Block],
    genesis: GenesisState,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ArchivalStore:
    """Build a full archival store: seed genesis, then execute and apply every
    block in order (each block runs against the state its predecessors left)."""
    store = ArchivalStore(cost_model)
    store.seed_genesis(genesis.storage, genesis.accounts, genesis.codes)
    for block in blocks:
        view = StoreView(store, block.number)
        result = execute_block(block, view)
        store.apply_block(block.number, result.effects)
    return store


# -- analysis -------------------------------------------------------------------


class WorkloadReport(NamedTuple):
    blocks: int
    txs: int
    storage_ops: int
    storage_reads: int
    storage_writes: int
    account_ops: int
    code_ops: int
    unique_keys_global: int
    intra_block_reuse: float
    global_reuse: float
    ephemeral_fraction: float
    unique_keys_p50: float
    unique_keys_p90: float
    unique_keys_p95: float
    unique_keys_max: int
    consecutive_overlap_mean: float
    read_write_ratio: float
    concentration: List[Tuple[int, float]]

    def to_flat(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for name, value in self._asdict().items():
            if name == "concentration":
                for rank, share in value:
                    out[f"concentration_top_{rank}"] = round(share, 6)
            elif isinstance(value, float):
                out[name] = round(value, 6)
            else:
                out[name] = value
        return out


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, int(math.ceil(q * len(sorted_values))) - 1))
    return float(sorted_values[idx])


def analyze_trace(blocks: Iterable[Block], per_block_out: Optional[List[Dict[str, int]]] = None) -> WorkloadReport:
    """Measure the workload statistics the generator aims at."""
    key_blocks: Dict[StorageKey, int] = {}
    contract_ops: Dict[bytes, int] = {}
    per_block_unique: List[int] = []
    overlaps: List[float] = []
    prev_keys: Optional[Set[StorageKey]] = None

    n_blocks = 0
    n_txs = 0
    storage_ops = 0
    storage_reads = 0
    storage_writes = 0
    account_ops = 0
    code_ops = 0

    for block in blocks:
        n_blocks += 1
        n_txs += len(block.txs)
        block_storage_ops = 0
        block_keys: Set[StorageKey] = set()
        for tx in block.txs:
            for kind, key, _ in tx.ops:
                if kind <= 1:
                    storage_ops += 1
                    block_storage_ops += 1
                    if kind == 0:
                        storage_reads += 1
                    else:
                        storage_writes += 1
                    block_keys.add(key)  # type: ignore[arg-type]
                    addr = key[:ADDRESS_LEN]
                    contract_ops[addr] = contract_ops.get(addr, 0) + 1
                elif kind == 2:
                    account_ops += 1
                else:
                    code_ops += 1
        per_block_unique.append(len(block_keys))
        for key in block_keys:
            key_blocks[key] = key_blocks.get(key, 0) + 1
        if prev_keys is not None and block_keys:
            overlaps.append(len(block_keys & prev_keys) / len(block_keys))
        prev_keys = block_keys
        if per_block_out is not None:
            per_block_out.append(
                {
                    "block": block.number,
                    "txs": len(block.txs),
                    "storage_ops": block_storage_ops,
                    "unique_keys": len(block_keys),
                }
            )

    if n_blocks == 0:
        raise ParameterError("cannot analyze an empty trace")

    unique_global = len(key_blocks)
    single = sum(1 for c in key_blocks.values() if c == 1)
    block_key_pairs = sum(per_block_unique)
    sorted_unique = sorted(per_block_unique)

    shares: List[Tuple[int, float]] = []
    if contract_ops:
        ranked = sorted(contract_ops.values(), reverse=True)
        total_ops = sum(ranked)
        cum = 0
        marks = {1, 2, 3, 10, 20, 100, 1000, len(ranked)}
        for rank, count in enumerate(ranked, start=1):
            cum += count
            if rank in marks:
                shares.append((rank, cum / total_ops))

    return WorkloadReport(
        blocks=n_blocks,
        txs=n_txs,
        storage_ops=storage_ops,
        storage_reads=storage_reads,
        storage_writes=storage_writes,
        account_ops=account_ops,
        code_ops=code_ops,
        unique_keys_global=unique_global,
        intra_block_reuse=(storage_ops / block_key_pairs) if block_key_pairs else 0.0,
        global_reuse=(storage_ops / unique_global) if unique_global else 0.0,
        ephemeral_fraction=(single / unique_global) if unique_global else 0.0,
        unique_keys_p50=_percentile(sorted_unique, 0.50),
        unique_keys_p90=_percentile(sorted_unique, 0.90),
        unique_keys_p95=_percentile(sorted_unique, 0.95),
        unique_keys_max=max(per_block_unique) if per_block_unique else 0,
        consecutive_overlap_mean=(sum(overlaps) / len(overlaps)) if overlaps else 0.0,
        read_write_ratio=(storage_reads / storage_writes) if storage_writes else float("inf"),
        concentration=shares,
    )


# -- trace files ------------------------------------------------------------------


def _encode_block(block: Block) -> bytes:
    out = bytearray()
    out += _U64.pack(block.number)
    out += block.beneficiary
    out += _U32.pack(len(block.txs))
    for tx in block.txs:
        out += tx.sender
        out += tx.recipient
        out += _U32.pack(len(tx.ops))
        for kind, key, value in tx.ops:
            out.append(kind)
            out += key
            if kind == 1:  # STORAGE_WRITE
                out += value  # type: ignore[operator]
    return bytes(out)


def _decode_block(payload: bytes, keys: Dict[bytes, bytes]) -> Block:
    """Decode one trace record; ``keys`` interns storage keys and addresses.

    Slices are taken without width checks. Instead the walk must end exactly
    at the end of the record: ``off`` only grows, so a short slice anywhere
    would leave it past the end.
    """
    intern = keys.setdefault
    new = tuple.__new__  # skips the argument handling of Transaction(...) and Block(...)
    # plain ints compare faster than the enum members
    write, code = int(OpKind.STORAGE_WRITE), int(OpKind.CODE_LOAD)
    try:
        (number,) = _U64.unpack_from(payload, 0)
        off = 8 + ADDRESS_LEN
        raw = payload[8:off]
        beneficiary = intern(raw, raw)
        (n_txs,) = _U32.unpack_from(payload, off)
        off += 4
        txs: List[Transaction] = []
        for _ in range(n_txs):
            raw = payload[off : off + ADDRESS_LEN]
            sender = intern(raw, raw)
            off += ADDRESS_LEN
            raw = payload[off : off + ADDRESS_LEN]
            recipient = intern(raw, raw)
            off += ADDRESS_LEN
            (n_ops,) = _U32.unpack_from(payload, off)
            off += 4
            ops: List[Op] = []
            for _ in range(n_ops):
                kind = payload[off]
                off += 1
                if kind <= write:
                    raw = payload[off : off + KEY_LEN]
                    off += KEY_LEN
                    key = intern(raw, raw)
                    if kind == write:
                        ops.append((kind, key, payload[off : off + WORD_LEN]))
                        off += WORD_LEN
                        continue
                elif kind <= code:
                    raw = payload[off : off + ADDRESS_LEN]
                    off += ADDRESS_LEN
                    key = intern(raw, raw)
                else:
                    raise TraceFormatError(f"unknown op kind {kind} at byte {off - 1}")
                ops.append((kind, key, None))
            txs.append(new(Transaction, (sender, recipient, ops)))
    except (IndexError, struct.error):
        raise TraceFormatError("truncated trace record") from None
    if off != len(payload):
        raise TraceFormatError(f"trace record of block {number} has {len(payload)} bytes, its ops {off}")
    return new(Block, (number, beneficiary, txs))


def save_trace(path: Path, params: GeneratorParams, blocks: Iterable[Block]) -> int:
    """Write a trace file; returns the number of blocks written."""
    params_json = json.dumps(params._asdict(), sort_keys=True, separators=(",", ":")).encode()
    count = 0
    with open(path, "wb") as f:
        f.write(TRACE_MAGIC)
        f.write(_U16.pack(TRACE_VERSION))
        f.write(_U32.pack(len(params_json)))
        f.write(params_json)
        count_pos = f.tell()
        f.write(_U64.pack(0))
        for block in blocks:
            payload = _encode_block(block)
            f.write(_U32.pack(len(payload)))
            f.write(payload)
            count += 1
        f.seek(count_pos)
        f.write(_U64.pack(count))
    return count


def read_trace_header(f) -> Tuple[GeneratorParams, int]:
    """Check a trace file's magic, version and generator params; return the
    params and the block count, leaving ``f`` at the first record."""
    magic = f.read(4)
    if magic != TRACE_MAGIC:
        raise TraceFormatError(f"bad trace magic: {magic!r}")
    try:
        (version,) = _U16.unpack(f.read(2))
        if version != TRACE_VERSION:
            raise TraceFormatError(f"unsupported trace version {version}")
        (plen,) = _U32.unpack(f.read(4))
        params_json = f.read(plen)
        (count,) = _U64.unpack(f.read(8))
    except struct.error:
        raise TraceFormatError("truncated trace header") from None
    try:
        return GeneratorParams(**json.loads(params_json.decode())), count
    except (ValueError, TypeError) as exc:
        raise TraceFormatError(f"bad trace params: {exc}") from None


def _iter_records(f, count: int) -> Iterator[bytes]:
    for _ in range(count):
        raw = f.read(4)
        if len(raw) < 4:
            raise TraceFormatError("truncated trace file")
        (size,) = _U32.unpack(raw)
        payload = f.read(size)
        if len(payload) < size:
            raise TraceFormatError("truncated trace record")
        yield payload


def iter_trace_file(path: Path) -> Iterator[Block]:
    with open(path, "rb") as f:
        _, count = read_trace_header(f)
        keys: Dict[bytes, bytes] = {}  # interned across the file's blocks
        for payload in _iter_records(f, count):
            yield _decode_block(payload, keys)
