"""``execute_block`` against a reference copy of its earlier loop.

The reference keeps per-op counters, reads a written key's original value
op by op, and builds the access log inside the loop. The loop under test
derives the read count and the log after the fact, so the two must agree on
every ``ExecResult`` field, on the meter totals, and on the exact sequence of
view calls (the baseline's cross-block LRU depends on that order).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest

from ira.backup import BaselineView, _LruMap
from ira.store import Account, CostMeter, Effects, StorageKey, StoreView
from ira.workload import (
    Block,
    ExecResult,
    GeneratorParams,
    OpKind,
    Transaction,
    build_store,
    collect_storage_keys,
    derive_genesis,
    execute_block,
    plain_read_params,
)

from conftest import generate_trace, mk_addr, mk_key, mk_word, storage_read, storage_write
from test_workload import DictView

_UNSET = object()
_EMPTY = Account()


def reference_execute_block(block: Block, view, meter: Optional[CostMeter] = None, collect_log: bool = False) -> ExecResult:
    """The execution loop as it was before the read count and the access log
    moved out of it, with ``SSTORE``'s original-value read."""
    storage_overlay: Dict[StorageKey, bytes] = {}
    storage_memo: Dict[StorageKey, bytes] = {}
    account_overlay: Dict[bytes, Account] = {}
    account_memo: Dict[bytes, Optional[Account]] = {}
    code_memo: Dict[bytes, Optional[bytes]] = {}
    log: Optional[List[Tuple[str, bytes]]] = [] if collect_log else None

    ops = 0
    reads = 0

    def read_account(addr: bytes) -> Optional[Account]:
        nonlocal reads
        reads += 1
        if log is not None:
            log.append(("A", addr))
        acc = account_overlay.get(addr, _UNSET)
        if acc is not _UNSET:
            return acc  # type: ignore[return-value]
        acc = account_memo.get(addr, _UNSET)
        if acc is _UNSET:
            acc = view.get_account(addr)
            account_memo[addr] = acc
        return acc  # type: ignore[return-value]

    for tx in block.txs:
        for kind, key, value in tx.ops:
            ops += 1
            if kind == 0:  # STORAGE_READ
                reads += 1
                if log is not None:
                    log.append(("S", key))
                v = storage_overlay.get(key)
                if v is None:
                    v = storage_memo.get(key)
                    if v is None:
                        v = view.get_storage(key)
                        storage_memo[key] = v
            elif kind == 1:  # STORAGE_WRITE
                if log is not None:
                    log.append(("S", key))
                if key not in storage_overlay and key not in storage_memo:
                    reads += 1  # SSTORE reads the slot's original value
                    storage_memo[key] = view.get_storage(key)
                storage_overlay[key] = value
            elif kind == 2:  # ACCOUNT_READ
                read_account(key)
            else:  # CODE_LOAD
                reads += 1
                if log is not None:
                    log.append(("C", key))
                c = code_memo.get(key, _UNSET)
                if c is _UNSET:
                    c = view.get_code(key)
                    code_memo[key] = c

        fee = len(tx.ops) + 1
        sender_acc = read_account(tx.sender) or _EMPTY
        account_overlay[tx.sender] = Account(
            balance=sender_acc.balance - fee,
            nonce=sender_acc.nonce + 1,
            code_hash=sender_acc.code_hash,
        )
        read_account(tx.recipient)
        ben_acc = read_account(block.beneficiary) or _EMPTY
        account_overlay[block.beneficiary] = Account(
            balance=ben_acc.balance + fee,
            nonce=ben_acc.nonce,
            code_hash=ben_acc.code_hash,
        )

    if meter is not None:
        meter.charge_compute(ops)
        meter.charge_hit(reads)

    effects = Effects(storage=storage_overlay, accounts=account_overlay)
    return ExecResult(
        effects=effects,
        op_count=ops,
        read_count=reads,
        account_memo=account_memo,
        code_memo=code_memo,
        access_log=log,
    )


class RecordingView:
    """Passes each call to ``base`` and records it, in order."""

    def __init__(self, base):
        self.base = base
        self.calls: List[Tuple[str, bytes]] = []

    def get_storage(self, key):
        self.calls.append(("storage", key))
        return self.base.get_storage(key)

    def get_account(self, addr):
        self.calls.append(("account", addr))
        return self.base.get_account(addr)

    def get_code(self, addr):
        self.calls.append(("code", addr))
        return self.base.get_code(addr)


class NoneView:
    """A view with nothing in it: every lookup answers None, storage too."""

    def get_storage(self, key):
        return None

    def get_account(self, addr):
        return None

    def get_code(self, addr):
        return None


def assert_same_as_reference(block: Block, make_view) -> None:
    """Run ``block`` through both loops, each over a fresh view from
    ``make_view(meter)``, with and without the access log."""
    for collect_log in (False, True):
        outcomes = []
        for run in (reference_execute_block, execute_block):
            meter = CostMeter()
            view = RecordingView(make_view(meter))
            result = run(block, view, meter, collect_log=collect_log)
            outcomes.append((tuple(result), (meter.io, meter.hit, meter.compute), view.calls))
        (ref, ref_meter, ref_calls), (new, new_meter, new_calls) = outcomes
        assert new == ref, (block.number, collect_log)
        assert new_meter == ref_meter, (block.number, collect_log)
        assert new_calls == ref_calls, (block.number, collect_log)


def _hot_write_params(blocks: int, seed: int) -> GeneratorParams:
    # the hot_write shape of the benchmark: writes beside reads on hot keys
    return GeneratorParams(
        blocks=blocks, ephemeral_key_fraction=0.2, hot_key_share=0.5, read_write_ratio=1.0, pair_gap_mean=2.0, seed=seed
    )


@pytest.mark.parametrize(
    "params",
    [GeneratorParams(blocks=3, seed=61), plain_read_params(blocks=3, seed=62), _hot_write_params(3, 63)],
    ids=["default", "plain_read", "hot_write"],
)
def test_generated_blocks_match_reference(params):
    trace = generate_trace(params)
    seeded = collect_storage_keys(trace) if params.seed_trace_keys else None
    store = build_store(trace, derive_genesis(params, seeded))
    for block in trace:
        assert_same_as_reference(block, lambda meter, b=block.number: StoreView(store, b, meter))
    # the baseline's view reads through a cross-block LRU, so a block's calls
    # depend on the calls of the blocks before it; each loop gets its own LRUs
    lrus = {run: (_LruMap(64), _LruMap(16), _LruMap(4)) for run in (reference_execute_block, execute_block)}
    for block in trace:
        outcomes = []
        for run, (lru_s, lru_a, lru_c) in lrus.items():
            meter = CostMeter()
            view = RecordingView(BaselineView(store, block.number, meter, lru_s, lru_a, lru_c))
            result = run(block, view, meter)
            outcomes.append((tuple(result), (meter.io, meter.hit, meter.compute), view.calls))
        assert outcomes[0] == outcomes[1], block.number


def test_read_after_write_matches_reference():
    k, j = mk_key(1), mk_key(2)
    ops = [storage_read(k), storage_write(k, mk_word(5)), storage_read(k), storage_write(j, mk_word(6)), storage_read(j)]
    txs = [Transaction(mk_addr(1), mk_addr(2), ops), Transaction(mk_addr(3), mk_addr(4), [storage_read(j), storage_read(k)])]
    block = Block(7, mk_addr(5), txs)
    assert_same_as_reference(block, lambda meter: DictView(storage={k: mk_word(3)}))


def test_view_answering_none_matches_reference():
    # a storage key the view answers None for is asked again at each read
    # until a write covers it; accounts and codes are asked once
    k, a, c = mk_key(1), mk_addr(9), mk_addr(10)
    ops = [
        storage_read(k),
        storage_read(k),
        (OpKind.ACCOUNT_READ, a, None),
        (OpKind.ACCOUNT_READ, a, None),
        (OpKind.CODE_LOAD, c, None),
        storage_write(k, mk_word(1)),
        storage_read(k),
    ]
    txs = [Transaction(a, mk_addr(2), ops), Transaction(mk_addr(2), a, [storage_read(mk_key(3)), storage_read(mk_key(3))])]
    block = Block(1, a, txs)
    assert_same_as_reference(block, lambda meter: NoneView())
    calls = RecordingView(NoneView())
    execute_block(block, calls)
    assert calls.calls.count(("storage", k)) == 2
    assert calls.calls.count(("account", a)) == 1


def test_repeated_code_loads_match_reference():
    with_code, without = mk_addr(11), mk_addr(12)
    loads = [(OpKind.CODE_LOAD, addr, None) for addr in (with_code, without, with_code, without, with_code)]
    txs = [Transaction(mk_addr(1), mk_addr(1), loads[:3]), Transaction(mk_addr(2), with_code, loads[3:])]
    block = Block(4, mk_addr(2), txs)
    view = DictView(codes={with_code: b"\x60\x00"}, accounts={mk_addr(1): Account(balance=50, nonce=2)})
    assert_same_as_reference(block, lambda meter: view)


def test_sender_as_beneficiary_matches_reference():
    # the beneficiary's read sees the sender's debit from the same tx
    a = mk_addr(1)
    txs = [Transaction(a, a, [storage_read(mk_key(1))]), Transaction(mk_addr(2), a, [])]
    block = Block(2, a, txs)
    view = DictView(accounts={a: Account(balance=10, nonce=1, code_hash=b"\x22" * 32)})
    assert_same_as_reference(block, lambda meter: view)
    assert execute_block(block, view).effects.accounts[a] == Account(balance=10 - 2 + 2 + 1, nonce=2, code_hash=b"\x22" * 32)


def test_empty_block_matches_reference():
    assert_same_as_reference(Block(1, mk_addr(1), []), lambda meter: NoneView())
