from __future__ import annotations

import random

import pytest

from ira.store import (
    Account,
    ArchivalStore,
    CostMeter,
    CostModel,
    Effects,
    KEY_LEN,
    MalformedEffectsError,
    OrderingError,
    ShardedIndex,
    ZERO_WORD,
    storage_key,
    walk_wall,
)

from conftest import history_entries, history_key_count, mk_addr, mk_key, mk_word


# -- oracle: brute-force replay of effects from genesis ---------------------------


def oracle_read_as_of(applied: list[tuple[int, dict]], key, block_number: int) -> bytes:
    """Re-apply every block strictly below block_number and read the result."""
    state: dict = {}
    for number, storage in applied:
        if number < block_number:
            state.update(storage)
    return state.get(key, ZERO_WORD)


def test_read_as_of_matches_brute_force_replay_oracle():
    rng = random.Random(7)
    keys = [mk_key(i) for i in range(200)]
    store = ArchivalStore()
    applied: list[tuple[int, dict]] = []
    for number in range(1, 51):
        writes = {}
        for _ in range(rng.randrange(0, 12)):
            writes[keys[rng.randrange(len(keys))]] = mk_word(rng.randrange(1, 1 << 32))
        store.apply_block(number, Effects(storage=writes))
        applied.append((number, writes))
    for key in keys[:60]:
        for block in (1, 2, 17, 25, 50, 51):
            assert store.read_as_of(key, block) == oracle_read_as_of(applied, key, block)


def test_as_of_reads_match_per_block_snapshots():
    """An oracle that shares no code with the store: the full state after
    every block. At every block, each read returns the state before the
    block and charges one seek for a key that was never seeded or written,
    two for any other key."""
    keys = [mk_key(i) for i in range(10)]
    addrs = [mk_addr(i) for i in range(6)]
    seek = CostModel().c_random_seek
    for seed in range(60):
        rng = random.Random(seed)
        storage = {k: mk_word(rng.randrange(1, 100)) for k in keys if rng.random() < 0.3}
        accounts = {a: Account(balance=rng.randrange(100)) for a in addrs if rng.random() < 0.3}
        store = ArchivalStore()
        store.seed_genesis(dict(storage), dict(accounts))
        snapshots = [(storage, accounts)]  # snapshots[b - 1]: the state at the start of block b
        present = set(storage) | set(accounts)
        for number in range(1, rng.randrange(2, 40)):
            effects = Effects()
            for key in rng.sample(keys, rng.randrange(0, 4)):
                effects.storage[key] = ZERO_WORD if rng.random() < 0.2 else mk_word(rng.randrange(1, 100))
            for addr in rng.sample(addrs, rng.randrange(0, 3)):
                effects.accounts[addr] = Account(balance=rng.randrange(100), nonce=number)
            store.apply_block(number, effects)
            storage = {**storage, **effects.storage}
            accounts = {**accounts, **effects.accounts}
            snapshots.append((storage, accounts))
            present |= set(effects.storage) | set(effects.accounts)
        for b in range(1, store.head_block + 2):
            state_storage, state_accounts = snapshots[b - 1]
            for key in keys:
                meter = CostMeter()
                assert store.read_as_of(key, b, meter) == state_storage.get(key, ZERO_WORD), (seed, b)
                assert meter.total == (2 if key in present else 1) * seek, (seed, b)
            for addr in addrs:
                meter = CostMeter()
                assert store.account_as_of(addr, b, meter) == state_accounts.get(addr), (seed, b)
                assert meter.total == (2 if addr in present else 1) * seek, (seed, b)


# -- apply_block -------------------------------------------------------------------


def test_first_write_records_zero_pre_image():
    store = ArchivalStore()
    k = mk_key(1)
    store.apply_block(1, Effects(storage={k: mk_word(7)}))
    assert store.storage.plain[k] == mk_word(7)
    assert store.storage.changesets[1][k] == ZERO_WORD
    assert history_entries(store.storage.history, k) == [1]


def test_second_write_records_prior_value():
    store = ArchivalStore()
    k = mk_key(1)
    store.apply_block(1, Effects(storage={k: mk_word(7)}))
    store.apply_block(2, Effects(storage={k: mk_word(9)}))
    assert store.storage.changesets[1][k] == ZERO_WORD
    assert store.storage.changesets[2][k] == mk_word(7)
    assert store.storage.plain[k] == mk_word(9)
    assert history_entries(store.storage.history, k) == [1, 2]


def test_non_consecutive_block_rejected():
    store = ArchivalStore()
    with pytest.raises(OrderingError):
        store.apply_block(2, Effects())


def test_malformed_block_changes_nothing():
    store = ArchivalStore()
    store.apply_block(1, Effects(storage={mk_key(1): mk_word(1)}))
    bad = Effects(storage={mk_key(2): mk_word(2)}, accounts={b"\x01" * 19: Account()})
    with pytest.raises(MalformedEffectsError):
        store.apply_block(2, bad)
    assert store.head_block == 1
    assert store.read_as_of(mk_key(2), 2) == ZERO_WORD
    assert history_entries(store.storage.history, mk_key(2)) == []
    store.apply_block(2, Effects())


def test_history_shards_bounded_at_2000():
    index = ShardedIndex()
    k = mk_key(9)
    for b in range(1, 2002):
        index.add(k, b)
    assert history_entries(index, k) == list(range(1, 2002))
    assert index.first_at_or_after(k, 1) == 1
    assert index.first_at_or_after(k, 2000) == 2000
    assert index.first_at_or_after(k, 2001) == 2001
    assert index.first_at_or_after(k, 2002) is None


# -- read_as_of --------------------------------------------------------------------


def test_read_pre_image_of_modifying_block():
    store = ArchivalStore()
    k = mk_key(1)
    store.apply_block(1, Effects(storage={k: mk_word(7)}))
    store.apply_block(2, Effects(storage={k: mk_word(9)}))
    assert store.read_as_of(k, 2) == mk_word(7)
    assert store.read_as_of(k, 1) == ZERO_WORD


def test_read_never_written_key_is_zero():
    store = ArchivalStore()
    store.apply_block(1, Effects())
    assert store.read_as_of(mk_key(99), 1) == ZERO_WORD
    assert store.read_as_of(mk_key(99), 2) == ZERO_WORD


def test_read_falls_to_plain_when_no_later_modification():
    store = ArchivalStore()
    k = mk_key(1)
    store.apply_block(1, Effects(storage={k: mk_word(5)}))
    store.apply_block(2, Effects())
    assert store.read_as_of(k, store.head_block + 1) == mk_word(5)


def test_read_past_head_rejected():
    store = ArchivalStore()
    with pytest.raises(OrderingError):
        store.read_as_of(mk_key(1), 2)


def test_read_costs_two_seeks_for_present_key_one_for_zero():
    model = CostModel()
    store = ArchivalStore(model)
    k = mk_key(1)
    store.apply_block(1, Effects(storage={k: mk_word(5)}))
    meter = CostMeter(model)
    store.read_as_of(k, 2, meter)
    assert meter.io == 2 * model.c_random_seek
    meter = CostMeter(model)
    store.read_as_of(mk_key(50), 2, meter)
    assert meter.io == model.c_random_seek


def test_account_as_of_round_trip():
    store = ArchivalStore()
    a = mk_addr(1)
    store.apply_block(1, Effects(accounts={a: Account(balance=10, nonce=1)}))
    store.apply_block(2, Effects(accounts={a: Account(balance=20, nonce=2)}))
    assert store.account_as_of(a, 1) is None  # created at block 1
    assert store.account_as_of(a, 2) == Account(balance=10, nonce=1)
    assert store.account_as_of(a, 3) == Account(balance=20, nonce=2)


# -- walk_wall ---------------------------------------------------------------------


def _reference_chunks(items, lanes):
    """Contiguous, count-balanced split of ``items`` over ``lanes`` lanes, the
    first lanes taking the extra items; the test oracle for walk_wall."""
    if not items:
        return []
    j = min(lanes, len(items))
    base, extra = divmod(len(items), j)
    out = []
    idx = 0
    for i in range(j):
        cnt = base + (1 if i < extra else 0)
        out.append(items[idx : idx + cnt])
        idx += cnt
    return out


def _reference_walk_cost(n, model):
    if n <= 0:
        return 0
    return model.c_random_seek + (n - 1) * model.c_sequential_step


def test_walk_wall_matches_reference_chunked_walks():
    rng = random.Random(29)
    for _ in range(2500):
        n = rng.randrange(0, 301)
        lanes = rng.randrange(1, 41)
        model = CostModel(
            c_random_seek=rng.randrange(3, 500),
            c_sequential_step=2,
            io_lanes=rng.randrange(1, 21),
        )
        chunks = _reference_chunks(list(range(n)), min(lanes, model.io_lanes))
        expect = max((_reference_walk_cost(len(c), model) for c in chunks), default=0)
        assert walk_wall(n, lanes, model) == expect, (n, lanes, model)


def test_walk_wall_rejects_zero_lanes():
    with pytest.raises(ValueError):
        walk_wall(10, 0, CostModel())
    with pytest.raises(ValueError):
        walk_wall(0, 0, CostModel())


def test_walk_wall_cost_model():
    model = CostModel()
    assert walk_wall(1000, 1, model) == model.c_random_seek + 999 * model.c_sequential_step


def test_walk_wall_single_key_costs_one_seek():
    model = CostModel()
    assert walk_wall(1, 1, model) == walk_wall(1, 64, model) == model.c_random_seek
    assert walk_wall(0, 1, model) == 0


def test_point_reads_cost_ratio_vs_scan():
    model = CostModel()
    store = ArchivalStore(model)
    keys = sorted(mk_key(i) for i in range(1000))
    store.apply_block(1, Effects(storage={k: mk_word(2) for k in keys}))
    point_meter = CostMeter(model)
    for k in keys:
        store.read_as_of(k, 2, point_meter)
    assert point_meter.io == 1000 * 2 * model.c_random_seek
    assert point_meter.io > walk_wall(len(keys), 1, model)


# -- cost model / determinism -------------------------------------------------------


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(c_random_seek=1, c_sequential_step=2)
    with pytest.raises(ValueError):
        CostModel(io_lanes=0)
    with pytest.raises(ValueError):
        CostModel(c_compute=-1)


def test_cost_accounting_is_deterministic():
    def run() -> int:
        model = CostModel()
        store = ArchivalStore(model)
        rng = random.Random(5)
        keys = [mk_key(i) for i in range(50)]
        for b in range(1, 11):
            writes = {keys[rng.randrange(50)]: mk_word(rng.randrange(1, 99)) for _ in range(6)}
            store.apply_block(b, Effects(storage=writes))
        meter = CostMeter(model)
        for key in keys:
            for b in (1, 5, 11):
                store.read_as_of(key, b, meter)
        return meter.total

    assert run() == run()


# -- persistence --------------------------------------------------------------------


def test_store_save_load_round_trip(tmp_path):
    store = ArchivalStore()
    a = mk_addr(4)
    code = b"\xfe\xed" * 40
    from ira.workload import code_hash_of

    ch = code_hash_of(code)
    store.seed_genesis(
        storage={mk_key(7): mk_word(7)},
        accounts={a: Account(balance=5, nonce=0, code_hash=ch)},
        codes={ch: code},
    )
    store.apply_block(1, Effects(storage={mk_key(1): mk_word(1)}, accounts={a: Account(balance=9, nonce=1, code_hash=ch)}))
    store.apply_block(2, Effects(storage={mk_key(1): mk_word(2), mk_key(7): mk_word(8)}))

    store.save(tmp_path / "store")
    loaded = ArchivalStore.load(tmp_path / "store")

    assert loaded.head_block == store.head_block
    assert loaded.storage.plain == store.storage.plain
    assert loaded.accounts.plain == store.accounts.plain
    assert loaded.bytecodes == store.bytecodes
    assert loaded.storage.changesets == store.storage.changesets
    assert loaded.accounts.changesets == store.accounts.changesets
    _assert_same_history(loaded, store)
    for key in (mk_key(1), mk_key(7)):
        for b in (1, 2, 3):
            assert loaded.read_as_of(key, b) == store.read_as_of(key, b)


def test_loaded_accounts_are_account_records_equal_to_the_saved_ones(tmp_path):
    store = ArchivalStore()
    with_code, plain, gone = mk_addr(1), mk_addr(2), mk_addr(3)
    store.seed_genesis(accounts={with_code: Account(balance=-7, nonce=3, code_hash=b"\x11" * 32), plain: Account(balance=1)})
    store.apply_block(1, Effects(accounts={plain: Account(balance=2, nonce=1), gone: Account(balance=10**30)}))
    store.save(tmp_path / "store")
    loaded = ArchivalStore.load(tmp_path / "store")
    records = list(loaded.accounts.plain.values())
    records += [acc for cs in loaded.accounts.changesets.values() for acc in cs.values() if acc is not None]
    assert len(records) == 4
    for acc in records:
        assert type(acc) is Account
    assert loaded.accounts.plain == store.accounts.plain
    assert loaded.accounts.changesets == store.accounts.changesets == {1: {plain: Account(balance=1), gone: None}}
    for addr, acc in loaded.accounts.plain.items():
        assert (acc.balance, acc.nonce, acc.code_hash) == tuple(store.accounts.plain[addr])


def test_identical_account_records_load_as_one_object(tmp_path):
    # a genesis gives thousands of accounts the same record; load decodes
    # each distinct record once, in the plain table and the change sets alike
    store = ArchivalStore()
    addrs = [mk_addr(i) for i in range(1, 9)]
    same, coded = Account(balance=10**24), Account(balance=3, nonce=1, code_hash=b"\x44" * 32)
    store.seed_genesis(accounts={a: same if i % 2 else coded for i, a in enumerate(addrs)})
    store.apply_block(1, Effects(accounts={addrs[0]: Account(balance=1), addrs[1]: Account(balance=2)}))
    store.apply_block(2, Effects(accounts={addrs[2]: Account(balance=1), addrs[3]: same}))
    store.save(tmp_path / "store")
    loaded = ArchivalStore.load(tmp_path / "store")

    assert loaded.accounts.plain == store.accounts.plain
    assert loaded.accounts.changesets == store.accounts.changesets
    records = list(loaded.accounts.plain.values())
    records += [acc for cs in loaded.accounts.changesets.values() for acc in cs.values() if acc is not None]
    by_value = {}
    for acc in records:
        assert by_value.setdefault(acc, acc) is acc, acc
    assert len({id(acc) for acc in records}) == len(set(records)) == 4
    assert loaded.accounts.changesets[1][addrs[0]] is loaded.accounts.changesets[2][addrs[2]] is loaded.accounts.plain[addrs[4]]


def test_loaded_storage_keys_are_plain_bytes(tmp_path):
    # each key is the slice load cut: exact bytes in the plain table, the
    # change sets and the history index alike
    store = ArchivalStore()
    store.seed_genesis(storage={mk_key(7): mk_word(7), mk_key(8): mk_word(8)})
    store.apply_block(1, Effects(storage={mk_key(1): mk_word(1), mk_key(7): mk_word(2)}))
    store.apply_block(2, Effects(storage={mk_key(1): mk_word(3)}))
    store.save(tmp_path / "store")
    loaded = ArchivalStore.load(tmp_path / "store")

    plain = list(loaded.storage.plain)
    changed = [key for cs in loaded.storage.changesets.values() for key in cs]
    indexed = list(loaded.storage.history._map)
    assert (len(plain), len(changed), len(indexed)) == (3, 3, 2)
    for key in plain + changed + indexed:
        assert type(key) is bytes and len(key) == KEY_LEN, key


@pytest.mark.parametrize(
    "address, slot, message",
    [
        (bytes(19), bytes(32), "address must be 20 bytes, got 19"),
        (bytes(21), bytes(32), "address must be 20 bytes, got 21"),
        (bytes(20), bytes(31), "slot must be 32 bytes, got 31"),
        (bytes(20), bytes(33), "slot must be 32 bytes, got 33"),
    ],
)
def test_storage_key_refuses_bad_widths(address, slot, message):
    with pytest.raises(ValueError, match=message):
        storage_key(address, slot)


def _assert_same_history(loaded: ArchivalStore, store: ArchivalStore) -> None:
    """Both history indexes hold the same blocks for every key of both tables."""
    for ours, theirs in ((loaded.storage, store.storage), (loaded.accounts, store.accounts)):
        keys = set(theirs.plain).union(*theirs.changesets.values())
        assert history_key_count(ours.history) == history_key_count(theirs.history)
        for key in keys:
            assert history_entries(ours.history, key) == history_entries(theirs.history, key), key


def test_saved_store_holds_each_table_once(tmp_path):
    # the history index is rebuilt from the change sets on load, so no file
    # holds a second copy of their keys
    store = ArchivalStore()
    store.apply_block(1, Effects(storage={mk_key(1): mk_word(1)}, accounts={mk_addr(1): Account(balance=1)}))
    store.save(tmp_path / "store")
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [
        "account_changesets.bin",
        "bytecodes.bin",
        "manifest.json",
        "plain_accounts.bin",
        "plain_storage.bin",
        "storage_changesets.bin",
    ]


def test_seed_genesis_requires_empty_store():
    store = ArchivalStore()
    store.apply_block(1, Effects(storage={mk_key(1): mk_word(1)}))
    with pytest.raises(OrderingError):
        store.seed_genesis(storage={mk_key(2): mk_word(2)})
