from __future__ import annotations

import gc
import hashlib
import random
import weakref
from functools import lru_cache
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import pytest

from ira.backup import BaselineCacheConfig, PipelineConfig, pipeline_run, run_baseline
from ira.cachesim import _check_capacity
from ira.primary import Hint, HintDb, Source, compress_hint, decompress_hint, parse_hint, run_primary, serialize_hint
from ira.protocol import DecodedHint, Op as GenericOp
from ira.store import WORD_LEN, ArchivalStore, ShardedIndex, StorageKey, check_word, storage_key
from ira.workload import (
    Block,
    GeneratorParams,
    Op,
    OpKind,
    build_store,
    derive_genesis,
    iter_trace,
    iter_trace_file,
    save_trace,
)

DEFAULT_SEED = 1


def mk_key(i: int, contract: int = 0) -> StorageKey:
    return storage_key(bytes([contract]) * 20, i.to_bytes(32, "big"))


def word_from_int(value: int) -> bytes:
    """Encode an unsigned integer as a 32-byte big-endian word."""
    return value.to_bytes(WORD_LEN, "big")


def mk_word(i: int) -> bytes:
    return word_from_int(i)


def mk_addr(i: int) -> bytes:
    return bytes([i % 251 + 1]) * 20


def storage_read(key: StorageKey) -> Op:
    return (OpKind.STORAGE_READ, key, None)


def storage_write(key: StorageKey, value: bytes) -> Op:
    return (OpKind.STORAGE_WRITE, key, check_word(value))


def demo_params(blocks: int = 3, seed: int = 42) -> GeneratorParams:
    """Tiny fixture profile for CLI and unit tests."""
    return GeneratorParams(
        blocks=blocks,
        txs_per_block_mean=2.0,
        unique_keys_median=8,
        unique_keys_sigma=0.0,
        accounts_per_block=2.0,
        codes_per_block=1.0,
        n_accounts=16,
        n_contracts=8,
        n_code_contracts=4,
        hot_keys=4,
        seed=seed,
    )


def generate_trace(params: GeneratorParams) -> List[Block]:
    return list(iter_trace(params))


class _WeakTxs(list):
    """A block's transaction list that takes weak references, as a plain list
    or a tuple does not."""


def watched(block: Block, refs: List[weakref.ref]) -> Block:
    """``block`` with its transactions in a list that ``refs`` gets a weak
    reference to, so a test can tell when the block has died."""
    txs = _WeakTxs(block.txs)
    refs.append(weakref.ref(txs))
    return block._replace(txs=txs)


def trace_file_hash(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


BRUTE_FORCE_MAX_LEN = 14


def brute_force_optimal(
    trace: Sequence[Hashable],
    capacity: int,
    init: Optional[Iterable[Hashable]] = None,
) -> int:
    """Exact minimum miss count over all demand eviction schedules.

    Explores every eviction choice with memoization on (position, cache
    contents). Refuses traces longer than ``BRUTE_FORCE_MAX_LEN``.
    """
    _check_capacity(capacity)
    if len(trace) > BRUTE_FORCE_MAX_LEN:
        raise ValueError(f"brute force limited to traces of length <= {BRUTE_FORCE_MAX_LEN}")
    start = frozenset(init or ())
    if len(start) > capacity:
        raise ValueError("initial contents exceed capacity")
    trace = tuple(trace)

    @lru_cache(maxsize=None)
    def best(i: int, cache: frozenset) -> int:
        if i == len(trace):
            return 0
        key = trace[i]
        if key in cache:
            return best(i + 1, cache)
        if len(cache) < capacity:
            return 1 + best(i + 1, cache | {key})
        return 1 + min(best(i + 1, (cache - {victim}) | {key}) for victim in cache)

    try:
        return best(0, start)
    finally:
        best.cache_clear()


def execute_direct(batch: Sequence[GenericOp], store: Dict[bytes, bytes]) -> None:
    """Run a generic batch straight against the state, with no hint."""
    for kind, key, value in batch:
        if kind == "write":
            store[key] = value  # type: ignore[assignment]


def hint_member(hint: DecodedHint, key: bytes) -> bool:
    """Whether a decoded hint holds ``key``: in its key set, or by its
    membership test."""
    if hint.keys is not None:
        return key in hint.keys
    return hint.member(key)  # type: ignore[misc]


def history_entries(index: ShardedIndex, key: bytes) -> list:
    """The blocks that modified ``key``, ascending."""
    return list(index._map.get(key, ()))


def history_key_count(index: ShardedIndex) -> int:
    return len(index._map)


def hint_from_sets(
    block_number: int,
    storage_entries: Sequence[Tuple[StorageKey, Source]],
    accounts: Iterable[bytes],
    codes: Iterable[bytes],
) -> Hint:
    """Build a canonical hint (sorted, deduplicated) from raw collections."""
    dedup: Dict[StorageKey, Source] = dict(storage_entries)
    return Hint(block_number, [(k, dedup[k]) for k in sorted(dedup)], sorted(set(accounts)), sorted(set(codes)))


def locate_sources(keys: Iterable[StorageKey], store: ArchivalStore, block_number: int) -> List[Tuple[StorageKey, Source]]:
    """Each key's source at the start of ``block_number``, located afresh
    with ``store.storage.locate`` (one history-index seek per key), sorted
    and unique: the oracle for the routes the primary takes from its reads."""
    out = []
    for key in sorted(set(keys)):
        n, value = store.storage.locate(key, block_number)
        out.append((key, Source.CHANGESET if n is not None else Source.ZERO if value is None else Source.PLAIN))
    return out


def reroute_zero_key_to_plain(src: HintDb, dst_path: Path, from_block: int) -> int:
    """Copy ``src`` to ``dst_path`` with one zero-routed key of the first
    block at or after ``from_block`` that has one routed as plain instead.
    A never-written key has no plain value, so prefetch cannot serve that
    hint. Returns the altered block's number."""
    dst = HintDb(dst_path)
    altered = None
    for b in src.blocks():
        data = src.read_hint(b)
        if altered is None and b >= from_block:
            hint = parse_hint(decompress_hint(data))
            zero = [k for k, s in hint.storage_entries if s == Source.ZERO]
            if zero:
                entries = [(k, Source.PLAIN if k == zero[0] else s) for k, s in hint.storage_entries]
                data = compress_hint(serialize_hint(Hint(b, entries, hint.accounts, hint.codes)))
                altered = b
        dst.write_hint(b, data)
    dst.close()
    assert altered is not None, "fixture hints must route a key as zero"
    return altered


@pytest.fixture(scope="session")
def default_params() -> GeneratorParams:
    return GeneratorParams(blocks=1000, seed=DEFAULT_SEED)


@pytest.fixture(scope="session")
def default_trace_path(default_params, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("trace") / "default.trace"
    save_trace(path, default_params, iter_trace(default_params))
    return path


@pytest.fixture(scope="session")
def default_store(default_params, default_trace_path):
    genesis = derive_genesis(default_params)
    store = build_store(iter_trace_file(default_trace_path), genesis)
    # the store is a multi-million-object heap that lives for the whole
    # session; excluding it from gc keeps later collections cheap
    gc.collect()
    gc.freeze()
    return store


@pytest.fixture(scope="session")
def primary_run(default_trace_path, default_store, tmp_path_factory):
    """Primary pass over the whole default trace. Keeps only the hint database
    and the per-block digests; per-block results are too large to retain."""
    hint_path = tmp_path_factory.mktemp("hints") / "hints.db"
    hint_db = HintDb(hint_path)
    digests = {}
    for r in run_primary(iter_trace_file(default_trace_path), default_store):
        hint_db.write_hint(r.block_number, r.compressed_bytes)
        digests[r.block_number] = r.digest
    gc.collect()
    gc.freeze()
    yield {"hint_db": hint_db, "path": hint_path, "digests": digests}
    hint_db.close()


@pytest.fixture(scope="session")
def baseline_run(default_trace_path, default_store):
    return run_baseline(iter_trace_file(default_trace_path), default_store, BaselineCacheConfig())


@pytest.fixture(scope="session")
def backup_run(default_trace_path, default_store, primary_run):
    cfg = PipelineConfig(batch_size=32, channel_capacity=100, warmup_blocks=32, workers=1)
    return pipeline_run(iter_trace_file(default_trace_path), default_store, primary_run["hint_db"], cfg)


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)
