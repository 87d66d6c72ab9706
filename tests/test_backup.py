from __future__ import annotations

import random

import pytest

from ira import backup
from ira.backup import (
    ROUTES,
    BaselineCacheConfig,
    BlockCache,
    CacheMissError,
    PipelineConfig,
    PrefetchError,
    pipeline_run,
    plan_prefetch,
    prefetch,
    replay_block,
    run_baseline,
)
from ira.primary import Hint, HintDb, Source, run_primary, run_primary_block
from ira.store import Account, ArchivalStore, CostMeter, CostModel, Effects, StorageKey, ZERO_WORD
from ira.workload import (
    Block,
    GeneratorParams,
    Transaction,
    build_store,
    derive_genesis,
)

from conftest import (
    demo_params,
    generate_trace,
    hint_from_sets,
    mk_addr,
    mk_key,
    mk_word,
    reroute_zero_key_to_plain,
    storage_read,
    storage_write,
)


# -- plan_prefetch -------------------------------------------------------------------


def test_plan_dedups_shared_plain_key():
    k = mk_key(1)
    h1 = hint_from_sets(1, [(k, Source.PLAIN)], [], [])
    h2 = hint_from_sets(2, [(k, Source.PLAIN)], [], [])
    plan = plan_prefetch([h1, h2])
    assert plan.plain_keys == [k]
    assert plan.zero_keys == [] and plan.changeset_pairs == []


def test_plan_all_zero_hint_costs_nothing():
    hint = hint_from_sets(1, [(mk_key(i), Source.ZERO) for i in range(10)], [], [])
    plan = plan_prefetch([hint])
    assert plan.plain_keys == []
    store = ArchivalStore()
    store.apply_block(1, Effects())
    result = prefetch(plan, store, workers=1)
    assert result.wall_cost == 0
    assert all(result.caches[1].storage[mk_key(i)] == ZERO_WORD for i in range(10))


def test_plan_routes_changeset_per_block():
    k = mk_key(1)
    h1 = hint_from_sets(1, [(k, Source.CHANGESET)], [], [])
    h2 = hint_from_sets(2, [(k, Source.CHANGESET)], [], [])
    plan = plan_prefetch([h1, h2])
    assert plan.changeset_pairs == [(k, 1), (k, 2)]


def test_plan_merges_batch_into_sorted_lists():
    rng = random.Random(4)
    hints = []
    for b in range(1, 33):
        entries = [(StorageKey(bytes(rng.getrandbits(8) for _ in range(52))), Source.PLAIN) for _ in range(50)]
        hints.append(hint_from_sets(b, entries, [], []))
    plan = plan_prefetch(hints)
    assert len(plan.plain_keys) <= 32 * 50
    assert plan.plain_keys == sorted(plan.plain_keys)
    assert plan.blocks == list(range(1, 33))


def test_plan_dedups_zero_keys():
    keys = [mk_key(i) for i in range(6)]
    hints = [hint_from_sets(b, [(k, Source.ZERO) for k in keys[b - 1 : b + 3]], [], []) for b in (1, 2, 3)]
    plan = plan_prefetch(hints)
    assert len(plan.zero_keys) == len(set(plan.zero_keys)) == 6
    assert set(plan.zero_keys) == set(keys)


def test_plan_puts_each_hint_entry_in_exactly_one_block_run():
    rng = random.Random(9)
    keys = [mk_key(i, contract=i % 4) for i in range(40)]
    hints = []
    for b in (3, 1, 2, 5):
        chosen = rng.sample(keys, 25)
        hints.append(hint_from_sets(b, [(k, rng.choice(list(Source))) for k in chosen], [mk_addr(b)], []))
    plan = plan_prefetch(hints)
    assert set(plan.runs) == set(plan.blocks) == {1, 2, 3, 5}
    for hint in hints:
        runs = plan.runs[hint.block_number]
        placed = [(k, src) for src in Source for k in runs[src]]
        assert sorted(placed) == sorted(hint.storage_entries)
        for src in Source:
            assert runs[src] == [k for k, s in hint.storage_entries if s == src]
    assert plan.changeset_pairs == sorted({(k, b) for b in plan.blocks for k in plan.runs[b].changeset})
    assert plan.plain_keys == sorted({k for b in plan.blocks for k in plan.runs[b].plain})


# -- prefetch cost model --------------------------------------------------------------


def make_plain_store(n_keys: int) -> tuple[ArchivalStore, list[StorageKey]]:
    keys = [mk_key(i) for i in range(n_keys)]
    store = ArchivalStore()
    store.seed_genesis(storage={k: mk_word(i + 1) for i, k in enumerate(keys)})
    store.apply_block(1, Effects())
    return store, sorted(keys)


def test_prefetch_serial_cost_is_one_cursor_walk():
    store, keys = make_plain_store(1000)
    model = store.cost_model
    hint = hint_from_sets(1, [(k, Source.PLAIN) for k in keys], [], [])
    result = prefetch(plan_prefetch([hint]), store, workers=1)
    assert result.wall_cost == model.c_random_seek + 999 * model.c_sequential_step


def test_prefetch_parallel_wall_near_fraction_of_serial():
    store, keys = make_plain_store(20_000)
    hint = hint_from_sets(1, [(k, Source.PLAIN) for k in keys], [], [])
    plan = plan_prefetch([hint])
    serial = prefetch(plan, store, workers=1).wall_cost
    parallel = prefetch(plan, store, workers=16).wall_cost
    assert serial / parallel > 14  # near 1/16, minus one seek per range


def test_prefetch_wall_monotone_and_saturating():
    store, keys = make_plain_store(5000)
    hint = hint_from_sets(1, [(k, Source.PLAIN) for k in keys], [], [])
    plan = plan_prefetch([hint])
    walls = [prefetch(plan, store, workers=k).wall_cost for k in (1, 2, 4, 8, 16, 32, 64)]
    assert all(a >= b for a, b in zip(walls, walls[1:]))
    assert walls[-1] == walls[-2] == walls[-3]  # k >= io_lanes is flat


# The batch has 32 zero keys (free), 16 change-set pairs over 15 keys that
# resolve to 15 (n, key) fetches and no plain or zero value, 43 account pairs
# over 16 addresses (27 of them resolve to change sets, as 21 unique
# (n, address) fetches; 9 plain addresses), and 4 code addresses with 4
# bytecode hashes. With walk(n) = 100 + (ceil(n / j) - 1) * 2 and
# j = min(workers, 16, n), the walls, in ROUTES order without the empty
# plain and change-set plain walks, are:
#   workers=1:  128 + 128 + 130 + 140 + 116 + 106 + 106 = 854
#   workers=2:  114 + 114 + 114 + 120 + 108 + 102 + 102 = 774
#   workers=16: 100 + 100 + 100 + 102 + 100 + 100 + 100 = 702
@pytest.mark.parametrize(
    "workers, wall, per_block",
    [
        (1, 854, {1: 149, 2: 132, 3: 167, 4: 167, 5: 105, 6: 134}),
        (2, 774, {1: 135, 2: 119, 3: 151, 4: 151, 5: 95, 6: 123}),
        (16, 702, {1: 123, 2: 108, 3: 137, 4: 137, 5: 86, 6: 111}),
    ],
)
def test_prefetch_costs_pinned_on_demo_trace(workers, wall, per_block):
    params = demo_params(6)
    trace = generate_trace(params)
    store = build_store(trace, derive_genesis(params))
    plan = plan_prefetch([run_primary_block(block, store).hint for block in trace])
    result = prefetch(plan, store, workers=workers)
    assert result.wall_cost == wall
    assert result.per_block_cost == per_block
    assert tuple(result.route_walls) == ROUTES
    assert sum(result.route_walls.values()) == wall


def test_prefetch_missing_plain_key_raises():
    store, _ = make_plain_store(4)
    hint = hint_from_sets(1, [(mk_key(999), Source.PLAIN)], [], [])
    with pytest.raises(PrefetchError):
        prefetch(plan_prefetch([hint]), store, workers=1)


def test_prefetch_error_names_the_blocks_at_fault():
    store, keys = make_plain_store(4)
    missing = mk_key(999)
    hints = [
        hint_from_sets(1, [(keys[0], Source.PLAIN), (missing, Source.PLAIN)], [], []),
        hint_from_sets(2, [(keys[1], Source.PLAIN), (missing, Source.ZERO)], [], []),
        hint_from_sets(3, [(missing, Source.PLAIN)], [], []),
    ]
    with pytest.raises(PrefetchError) as err:
        prefetch(plan_prefetch(hints), store, workers=1)
    assert err.value.blocks == [1, 3]

    a, b = mk_addr(1), mk_addr(2)
    store.accounts.plain.update({a: Account(code_hash=b"\x07" * 32), b: Account()})
    hints = [hint_from_sets(1, [], [], [b]), hint_from_sets(2, [], [], [a, b])]
    with pytest.raises(PrefetchError) as err:
        prefetch(plan_prefetch(hints), store, workers=1)
    assert err.value.blocks == [2]


def test_prefetch_changeset_values_match_read_as_of():
    store = ArchivalStore()
    k = mk_key(1)
    store.apply_block(1, Effects(storage={k: mk_word(10)}))
    store.apply_block(2, Effects(storage={k: mk_word(20)}))
    hint = hint_from_sets(2, [(k, Source.CHANGESET)], [], [])
    result = prefetch(plan_prefetch([hint]), store, workers=1)
    assert result.caches[2].storage[k] == store.read_as_of(k, 2) == mk_word(10)


def test_prefetch_changeset_walks_share_fetches():
    # k is seeded and modified at blocks 2 and 4, p is seeded and never
    # modified, z is never written; the hints route all three as change-set.
    #   k at blocks 1, 2 -> n = 2, one shared fetch (2, k): the seeded value
    #   k at blocks 3, 4 -> n = 4, one shared fetch (4, k): the value of block 2
    #   k at block 5     -> no later modification: plain, the value of block 4
    #   p at block 1     -> plain;  z at block 3 -> zero, no I/O
    # workers=1: consult {k, p, z} 100 + 2*2 = 104, fetches {(2, k), (4, k)}
    #            100 + 2 = 102, plain {k, p} 100 + 2 = 102; 308 in all
    # workers=2: ceil(3/2) = 2 keys per range, 102 + 100 + 100 = 302
    k, p, z = mk_key(1), mk_key(2), mk_key(3)
    store = ArchivalStore()
    store.seed_genesis(storage={k: mk_word(1), p: mk_word(7)})
    for b in range(1, 5):
        store.apply_block(b, Effects(storage={k: mk_word(10 * b)} if b in (2, 4) else {}))
    hints = [hint_from_sets(b, [(k, Source.CHANGESET)], [], []) for b in range(1, 6)]
    hints[0] = hint_from_sets(1, [(k, Source.CHANGESET), (p, Source.CHANGESET)], [], [])
    hints[2] = hint_from_sets(3, [(k, Source.CHANGESET), (z, Source.CHANGESET)], [], [])
    plan = plan_prefetch(hints)

    result = prefetch(plan, store, workers=1)
    assert result.wall_cost == 308
    assert {r: w for r, w in result.route_walls.items() if w} == {
        "changeset_consult": 104,
        "changeset_fetch": 102,
        "changeset_plain": 102,
    }
    expect = {1: mk_word(1), 2: mk_word(1), 3: mk_word(20), 4: mk_word(20), 5: mk_word(40)}
    for b, value in expect.items():
        assert result.caches[b].storage[k] == value == store.read_as_of(k, b)
    assert result.caches[1].storage[p] == mk_word(7)
    assert result.caches[3].storage[z] == ZERO_WORD
    assert prefetch(plan, store, workers=2).wall_cost == 302


def test_prefetch_accounts_as_of_block():
    store = ArchivalStore()
    a = mk_addr(1)
    store.seed_genesis(accounts={a: Account(balance=100)})
    store.apply_block(1, Effects(accounts={a: Account(balance=50)}))
    store.apply_block(2, Effects(accounts={a: Account(balance=25)}))
    h1 = hint_from_sets(1, [], [a], [])
    h2 = hint_from_sets(3, [], [a], [])
    result = prefetch(plan_prefetch([h1, h2]), store, workers=1)
    assert result.caches[1].accounts[a] == Account(balance=100)  # pre-state of block 1
    assert result.caches[3].accounts[a] == Account(balance=25)


# -- BlockCache / replay ---------------------------------------------------------------


def test_cache_miss_halts_and_names_key():
    cache = BlockCache(5)
    key = mk_key(3)
    with pytest.raises(CacheMissError) as err:
        cache.get_storage(key)
    assert key.hex() in str(err.value)
    assert "5" in str(err.value)


def test_replay_empty_block_zero_cost():
    block = Block(number=1, beneficiary=mk_addr(1), txs=[])
    cache = BlockCache(1)
    result = replay_block(block, cache, CostModel())
    assert result.t_exec == 0
    assert result.effects == Effects()


def test_replay_matches_primary_digest_small():
    params = demo_params()
    trace = generate_trace(params)
    store = build_store(trace, derive_genesis(params))
    for block in trace:
        pr = run_primary_block(block, store)
        pf = prefetch(plan_prefetch([pr.hint]), store, workers=1)
        rb = replay_block(block, pf.caches[block.number], store.cost_model)
        assert rb.digest == pr.digest


def test_replay_with_dropped_key_halts_naming_it():
    params = demo_params()
    trace = generate_trace(params)
    store = build_store(trace, derive_genesis(params))
    block = trace[0]
    pr = run_primary_block(block, store)
    # drop a key whose first access in the block is a read (a write-only key
    # would never probe the cache)
    written: set = set()
    dropped_key = None
    for tx in block.txs:
        for kind, key, _ in tx.ops:
            if kind == 0 and key not in written:
                dropped_key = key
                break
            if kind == 1:
                written.add(key)
        if dropped_key is not None:
            break
    assert dropped_key is not None, "fixture block must read storage"
    weakened = Hint(
        block.number,
        [(k, s) for k, s in pr.hint.storage_entries if k != dropped_key],
        pr.hint.accounts,
        pr.hint.codes,
    )
    pf = prefetch(plan_prefetch([weakened]), store, workers=1)
    with pytest.raises(CacheMissError) as err:
        replay_block(block, pf.caches[block.number], store.cost_model)
    assert err.value.key == bytes(dropped_key)


def test_replay_cost_is_compute_plus_hits():
    model = CostModel()
    k = mk_key(1)
    block = Block(1, mk_addr(9), [Transaction(mk_addr(1), mk_addr(2), [storage_read(k), storage_write(k, mk_word(1))])])
    cache = BlockCache(1)
    cache.storage[k] = ZERO_WORD
    for addr in (mk_addr(1), mk_addr(2), mk_addr(9)):
        cache.accounts[addr] = Account(balance=10)
    result = replay_block(block, cache, model)
    # 2 ops, 1 storage read + 3 implicit account reads
    assert result.t_exec == 2 * model.c_compute + 4 * model.c_hit


# -- pipeline ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_world(tmp_path_factory):
    params = GeneratorParams(blocks=64, unique_keys_median=60, txs_per_block_mean=6, seed=31)
    trace = generate_trace(params)
    store = build_store(trace, derive_genesis(params))
    hint_path = tmp_path_factory.mktemp("pipe") / "hints.db"
    db = HintDb(hint_path)
    digests = {}
    for r in run_primary(trace, store):
        db.write_hint(r.block_number, r.compressed_bytes)
        digests[r.block_number] = r.digest
    yield params, trace, store, db, digests
    db.close()


def test_pipeline_zero_misses_and_digest_equality(pipeline_world):
    _, trace, store, db, digests = pipeline_world
    cfg = PipelineConfig(batch_size=8, channel_capacity=16, warmup_blocks=8, workers=2)
    metrics = pipeline_run(trace, store, db, cfg)
    # a miss raises CacheMissError, so a finished run had none
    assert len(metrics.rows) == len(trace)
    assert all(digests[r.block] == r.digest for r in metrics.rows)
    assert metrics.fallback_blocks == 0


def test_pipeline_wall_bounded_by_stage_max(pipeline_world):
    _, trace, store, db, _ = pipeline_world
    cfg = PipelineConfig(batch_size=8, channel_capacity=16, warmup_blocks=8, workers=1)
    metrics = pipeline_run(trace, store, db, cfg)
    assert metrics.wall_cost <= 1.25 * max(metrics.prefetch_total, metrics.exec_total) + 1


def test_pipeline_wait_charged_to_first_block_of_stalled_batch():
    # write-only blocks: change-set routed prefetch is expensive, execution is cheap
    keys = [[mk_key(100 * b + i) for i in range(40)] for b in range(8)]
    blocks = []
    for b in range(8):
        ops = [storage_write(k, mk_word(1)) for k in keys[b]]
        blocks.append(Block(b + 1, mk_addr(250), [Transaction(mk_addr(1), mk_addr(2), ops)]))
    genesis = derive_genesis(GeneratorParams(blocks=1, n_accounts=4, n_contracts=1, n_code_contracts=1, hot_keys=1, seed=1))
    genesis.accounts[mk_addr(1)] = Account(balance=10**9)
    genesis.accounts[mk_addr(2)] = Account(balance=0)
    genesis.accounts[mk_addr(250)] = Account(balance=0)
    store = build_store(blocks, genesis)
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as td:
        db = HintDb(pathlib.Path(td) / "h.db")
        for r in run_primary(blocks, store):
            db.write_hint(r.block_number, r.compressed_bytes)
        cfg = PipelineConfig(batch_size=4, channel_capacity=8, warmup_blocks=0, workers=1)
        metrics = pipeline_run(blocks, store, db, cfg)
        db.close()
    waits = [r.t_wait for r in metrics.rows]
    assert waits[0] > 0  # first block of first batch stalls on its prefetch
    assert waits[1] == waits[2] == waits[3] == 0
    assert waits[4] > 0  # prefetch slower than execution: second batch stalls again
    assert waits[5] == waits[6] == waits[7] == 0


def test_pipeline_fast_prefetch_no_steady_wait():
    # read-heavy plain workload: prefetch walk far cheaper than execution
    all_keys = sorted(mk_key(i) for i in range(400))
    blocks = []
    for b in range(1, 9):
        chunk = all_keys[(b - 1) * 50 : b * 50]
        ops = [storage_read(k) for k in chunk] * 6
        blocks.append(Block(b, mk_addr(250), [Transaction(mk_addr(1), mk_addr(2), ops)]))
    from ira.workload import GenesisState

    genesis = GenesisState(
        storage={k: mk_word(i + 1) for i, k in enumerate(all_keys)},
        accounts={mk_addr(1): Account(balance=10**9), mk_addr(2): Account(), mk_addr(250): Account()},
    )
    store = build_store(blocks, genesis)
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as td:
        db = HintDb(pathlib.Path(td) / "h.db")
        for r in run_primary(blocks, store):
            db.write_hint(r.block_number, r.compressed_bytes)
        cfg = PipelineConfig(batch_size=2, channel_capacity=4, warmup_blocks=2, workers=1)
        metrics = pipeline_run(blocks, store, db, cfg)
        db.close()
    # warm-up covers the first batch; every later batch is ready before the executor
    assert all(r.t_wait == 0 for r in metrics.rows[2:])


def test_pipeline_warmup_batches_ready_at_running_sum_of_walls(tmp_path):
    # Three one-block warm-up batches. Each block has one transaction from
    # sender S to recipient R on beneficiary B, reading n genesis keys that
    # are never written: 10, 40 and 20 of them. Per batch, at workers=1:
    #   plain walk over n keys                  100 + 2 * (n - 1)
    #   account consult over {S, R, B}          100 + 2 * 2 = 104
    #   account fetches (S, b), (B, b): n = b   100 + 2 = 102
    #   account plain {R}                       100
    # so the walls are 424, 484 and 444, and exec is n + (n + 3) = 23, 83, 43.
    # The producer runs the batches one after another; each block is ready at
    # the running sum of the walls, 424, 908 and 1352, and stalls until then:
    #   block 1: start 424, end 447; block 2: wait 461, start 908, end 991;
    #   block 3: wait 361, start 1352, end 1395 = wall.
    from ira.workload import GenesisState

    sender, recipient, beneficiary = mk_addr(1), mk_addr(2), mk_addr(250)
    sizes = (10, 40, 20)
    keys = sorted(mk_key(i) for i in range(sum(sizes)))
    blocks, first = [], 0
    for b, n in enumerate(sizes, start=1):
        ops = [storage_read(k) for k in keys[first : first + n]]
        blocks.append(Block(b, beneficiary, [Transaction(sender, recipient, ops)]))
        first += n
    genesis = GenesisState(
        storage={k: mk_word(1) for k in keys},
        accounts={sender: Account(balance=10**9), recipient: Account(), beneficiary: Account()},
    )
    store = build_store(blocks, genesis)
    with HintDb(tmp_path / "h.db") as db:
        for r in run_primary(blocks, store):
            db.write_hint(r.block_number, r.compressed_bytes)
        cfg = PipelineConfig(batch_size=1, channel_capacity=1, warmup_blocks=3, workers=1)
        metrics = pipeline_run(blocks, store, db, cfg)
    assert [r.prefetch_cost for r in metrics.rows] == [424, 484, 444]
    assert [r.t_exec for r in metrics.rows] == [23, 83, 43]
    assert [r.t_wait for r in metrics.rows] == [424, 461, 361]
    starts, free = [], 0  # a block starts once the executor is free and has waited t_wait
    for r in metrics.rows:
        starts.append(free + r.t_wait)
        free = starts[-1] + r.t_exec
    assert starts == [424, 908, 1352]
    assert (metrics.wall_cost, metrics.prefetch_total) == (1395, 1352)


def test_pipeline_warmup_does_not_resume_after_a_batch_that_did_not_fit(tmp_path):
    # Batches of 3, 3 and 2 blocks with room for 5 warm-up blocks: the first
    # batch is warm-up, the second does not fit and ends warm-up, and the
    # short last batch would fit beside the first but must enter the channel
    # all the same. With a channel of one batch, its prefetch starts only
    # once the second block of the previous batch has started, so it cannot
    # start when the producer is free.
    from ira.workload import GenesisState

    sender, recipient, beneficiary = mk_addr(1), mk_addr(2), mk_addr(250)
    keys = sorted(mk_key(i) for i in range(80))
    blocks = [
        Block(b, beneficiary, [Transaction(sender, recipient, [storage_read(k) for k in keys[10 * (b - 1) : 10 * b]])])
        for b in range(1, 9)
    ]
    genesis = GenesisState(
        storage={k: mk_word(1) for k in keys},
        accounts={sender: Account(balance=10**9), recipient: Account(), beneficiary: Account()},
    )
    store = build_store(blocks, genesis)
    with HintDb(tmp_path / "h.db") as db:
        for r in run_primary(blocks, store):
            db.write_hint(r.block_number, r.compressed_bytes)
        cfg = PipelineConfig(batch_size=3, channel_capacity=3, warmup_blocks=5, workers=1)
        metrics = pipeline_run(blocks, store, db, cfg)
    rows = metrics.rows
    starts, free = [], 0
    for r in rows:
        starts.append(free + r.t_wait)
        free = starts[-1] + r.t_exec
    last_wall = rows[6].prefetch_cost + rows[7].prefetch_cost
    # the last batch is prefetched after block 5 starts, and block 7 stalls on it
    assert starts[6] == starts[4] + last_wall
    assert rows[6].t_wait > 0
    # as warm-up, it would have been ready at the sum of all prefetch walls
    assert starts[6] > metrics.prefetch_total
    assert metrics.wall_cost == starts[7] + rows[7].t_exec


@pytest.mark.parametrize(
    "batch_size, warmup_blocks",
    [(6, 6), (2, 2), (2, 6)],
    ids=["one-warmup-batch", "one-warmup-batch-then-steady", "three-warmup-batches"],
)
def test_pipeline_walls_fall_with_workers_then_plateau(tmp_path, batch_size, warmup_blocks):
    # every walk, warm-up ones included, splits over min(workers, io_lanes)
    # lanes, so more workers never cost more, and beyond io_lanes = 16
    # change nothing
    params = demo_params(6)
    trace = generate_trace(params)
    store = build_store(trace, derive_genesis(params))
    walls, waits = {}, {}
    with HintDb(tmp_path / "h.db") as db:
        for r in run_primary(trace, store):
            db.write_hint(r.block_number, r.compressed_bytes)
        for k in (1, 2, 4, 8, 16, 32, 64):
            cfg = PipelineConfig(
                batch_size=batch_size, channel_capacity=batch_size, warmup_blocks=warmup_blocks, workers=k
            )
            metrics = pipeline_run(trace, store, db, cfg)
            walls[k], waits[k] = metrics.wall_cost, metrics.wait_total
    for costs in (walls, waits):
        ks = sorted(costs)
        assert all(costs[a] >= costs[b] for a, b in zip(ks, ks[1:])), costs
        assert costs[16] == costs[32] == costs[64], costs
        assert all(costs[k] < costs[1] for k in ks[1:]), costs


def test_pipeline_fallback_without_hints_keeps_digests(pipeline_world):
    _, trace, store, db, digests = pipeline_world
    cfg = PipelineConfig(batch_size=8, channel_capacity=16, warmup_blocks=0, workers=1)
    metrics = pipeline_run(trace, store, None, cfg)
    assert metrics.fallback_blocks == len(trace)
    assert all(digests[r.block] == r.digest for r in metrics.rows)
    assert all(r.fallback for r in metrics.rows)


def test_pipeline_corrupt_hint_falls_back(pipeline_world, tmp_path):
    params, trace, store, _, digests = pipeline_world
    path = tmp_path / "corrupt.db"
    db = HintDb(path)
    for r in run_primary(trace, store):
        db.write_hint(r.block_number, r.compressed_bytes)
    db.close()
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # clobber a byte mid-file
    path.write_bytes(bytes(blob))
    db = HintDb(path, create=False)
    cfg = PipelineConfig(batch_size=8, channel_capacity=16, warmup_blocks=0, workers=1)
    metrics = pipeline_run(trace, store, db, cfg)
    db.close()
    assert metrics.corrupt_hints >= 1
    assert metrics.fallback_blocks >= 1
    assert all(digests[r.block] == r.digest for r in metrics.rows)


def test_pipeline_misfiled_hint_falls_back(pipeline_world, tmp_path):
    # a valid hint stored under another block's number is treated as corrupt
    _, trace, store, db, digests = pipeline_world
    misfiled = HintDb(tmp_path / "misfiled.db")
    for block in trace:
        misfiled.write_hint(block.number, db.read_hint(3 if block.number == 5 else block.number))
    cfg = PipelineConfig(batch_size=8, channel_capacity=16, warmup_blocks=8, workers=1)
    metrics = pipeline_run(trace, store, misfiled, cfg)
    misfiled.close()
    assert all(digests[r.block] == r.digest for r in metrics.rows)
    assert metrics.fallback_blocks == 1 and metrics.corrupt_hints == 1
    assert [r.block for r in metrics.rows if r.fallback] == [5]


def test_pipeline_corrupt_hint_counted_once_when_warmup_budget_binds(pipeline_world, tmp_path):
    # the entry budget stops warm-up at the second batch, which holds the
    # misfiled hint; that batch is decoded once, so its hint counts once
    _, trace, store, db, digests = pipeline_world
    with HintDb(tmp_path / "misfiled.db") as misfiled:
        for block in trace:
            misfiled.write_hint(block.number, db.read_hint(3 if block.number == 12 else block.number))
        cfg = PipelineConfig(batch_size=8, channel_capacity=16, warmup_blocks=16, warmup_buffer_entries=1)
        metrics = pipeline_run(trace, store, misfiled, cfg)
    assert all(digests[r.block] == r.digest for r in metrics.rows)
    assert [r.block for r in metrics.rows if r.fallback] == [12]
    assert metrics.fallback_blocks == 1 and metrics.corrupt_hints == 1


@pytest.mark.parametrize("from_block, in_warmup", [(1, True), (20, False)])
def test_pipeline_unservable_hint_falls_back(pipeline_world, tmp_path, from_block, in_warmup):
    # a hint that routes a never-written key as plain: the store refuses its
    # prefetch, that block falls back, and the rest of its batch is planned
    # again, as if the refused hint had never been written
    _, trace, store, db, digests = pipeline_world
    bad = reroute_zero_key_to_plain(db, tmp_path / "rerouted.db", from_block)
    cfg = PipelineConfig(batch_size=8, channel_capacity=16, warmup_blocks=8, workers=2)
    assert (bad <= cfg.warmup_blocks) == in_warmup
    with HintDb(tmp_path / "rerouted.db", create=False) as rerouted:
        metrics = pipeline_run(trace, store, rerouted, cfg)
    assert all(digests[r.block] == r.digest for r in metrics.rows)
    assert metrics.fallback_blocks == 1 and metrics.corrupt_hints == 1
    assert [r.block for r in metrics.rows if r.fallback] == [bad]

    with HintDb(tmp_path / "without.db") as without:
        for b in db.blocks():
            if b != bad:
                without.write_hint(b, db.read_hint(b))
        unhinted = pipeline_run(trace, store, without, cfg)
    assert unhinted.corrupt_hints == 0
    assert metrics.rows == unhinted.rows
    assert (metrics.wall_cost, metrics.prefetch_total) == (unhinted.wall_cost, unhinted.prefetch_total)
    assert metrics.prefetch_by_route == unhinted.prefetch_by_route


def test_pipeline_config_rejects_undersized_channel():
    with pytest.raises(ValueError):
        PipelineConfig(batch_size=32, channel_capacity=8)


def test_pipeline_empty_range():
    store = ArchivalStore()
    metrics = pipeline_run([], store, None, PipelineConfig())
    assert metrics.rows == [] and metrics.wall_cost == 0
    assert metrics.prefetch_by_route == dict.fromkeys(ROUTES, 0)


@pytest.mark.parametrize("workers", [1, 4])
def test_pipeline_route_walls_sum_to_prefetch_total(pipeline_world, workers):
    _, trace, store, db, _ = pipeline_world
    cfg = PipelineConfig(batch_size=8, channel_capacity=16, warmup_blocks=16, workers=workers)
    metrics = pipeline_run(trace, store, db, cfg)
    assert tuple(metrics.prefetch_by_route) == ROUTES
    assert sum(metrics.prefetch_by_route.values()) == metrics.prefetch_total
    assert metrics.prefetch_by_route["changeset_fetch"] > 0
    fallback = pipeline_run(trace, store, None, cfg)
    assert fallback.prefetch_by_route == dict.fromkeys(ROUTES, 0) and fallback.prefetch_total == 0


def test_pipeline_bounded_channel_limits_producer_lead(pipeline_world):
    _, trace, store, db, _ = pipeline_world
    # tiny channel: producer cannot run more than one batch ahead
    cfg = PipelineConfig(batch_size=8, channel_capacity=8, warmup_blocks=0, workers=1)
    metrics = pipeline_run(trace, store, db, cfg)
    assert len(metrics.rows) == len(trace)
    wide = PipelineConfig(batch_size=8, channel_capacity=64, warmup_blocks=0, workers=1)
    metrics_wide = pipeline_run(trace, store, db, wide)
    assert metrics_wide.wall_cost <= metrics.wall_cost  # more buffering never hurts
    # here the one-batch channel holds the producer back; the walls are
    # pinned so that any change to the pipeline's clock shows. In three
    # batches two blocks resolve one address to the same change set and
    # share its fetch (73, 62 and 62 unique (n, address) fetches of 74, 63
    # and 63), so each of those account_fetch walks is one step (2) shorter;
    # both walls wait on all three, 6 in all
    assert (metrics.wall_cost, metrics_wide.wall_cost) == (58619, 35110)


def test_pipeline_holds_one_batch_of_caches_at_most(pipeline_world, monkeypatch):
    # the channel lets the producer run four batches ahead, but a batch is
    # replayed as soon as it is prefetched and each cache dies with its block
    _, trace, store, db, digests = pipeline_world
    live = peak = 0

    class CountedCache(BlockCache):
        def __init__(self, block_number):
            nonlocal live, peak
            super().__init__(block_number)
            live += 1
            peak = max(peak, live)

        def __del__(self):
            nonlocal live
            live -= 1

    monkeypatch.setattr(backup, "BlockCache", CountedCache)
    cfg = PipelineConfig(batch_size=2, channel_capacity=8, warmup_blocks=0, workers=1)
    metrics = pipeline_run(trace, store, db, cfg)
    assert metrics.digests() == digests and metrics.fallback_blocks == 0
    assert (peak, live) == (cfg.batch_size, 0)


# -- baseline -----------------------------------------------------------------------------


def test_baseline_second_access_within_block_free():
    store, keys = make_plain_store(4)
    k = keys[0]
    block = Block(
        1,
        mk_addr(250),
        [Transaction(mk_addr(1), mk_addr(2), [storage_read(k), storage_read(k)])],
    )
    store.accounts.plain.update({mk_addr(1): Account(), mk_addr(2): Account(), mk_addr(250): Account()})
    metrics = run_baseline([block], store)
    model = store.cost_model
    # one storage fetch (2 seeks) + three account misses; second read is free of I/O
    expected_io = 2 * model.c_random_seek + 3 * 2 * model.c_random_seek
    assert metrics.rows[0].io_cost == expected_io


def test_baseline_pays_the_original_value_read_of_a_write_first_key(monkeypatch):
    # SSTORE reads a slot's original value: a block whose only storage op
    # writes a key it never read charges the baseline one as-of read for it
    k = mk_key(1)
    store = ArchivalStore()
    store.seed_genesis(storage={k: mk_word(3)})
    block = Block(1, mk_addr(250), [Transaction(mk_addr(1), mk_addr(2), [storage_write(k, mk_word(4))])])
    charged = []
    charge_as_of = CostMeter.charge_as_of

    def record(meter, found):
        charged.append(found)
        charge_as_of(meter, found)

    monkeypatch.setattr(CostMeter, "charge_as_of", record)
    [row] = run_baseline([block], store).rows
    seek = store.cost_model.c_random_seek
    # the slot (found in the plain table), then three absent accounts
    assert charged == [True, False, False, False]
    assert row.io_cost == 2 * seek + 3 * seek
    assert row.reads == 1 + 3


def test_baseline_cross_block_lru_hit():
    store, keys = make_plain_store(4)
    k = keys[0]
    accounts = {mk_addr(1): Account(), mk_addr(2): Account(), mk_addr(250): Account()}
    store.accounts.plain.update(accounts)
    blocks = [
        Block(1, mk_addr(250), [Transaction(mk_addr(1), mk_addr(2), [storage_read(k)])]),
        Block(2, mk_addr(250), [Transaction(mk_addr(1), mk_addr(2), [storage_read(k)])]),
    ]
    metrics = run_baseline(blocks, store)
    assert metrics.rows[1].io_cost == 0  # storage and accounts all warm in the LRU


def test_baseline_lru_capacity_two_fig_trace():
    a, b, c = mk_key(1), mk_key(2), mk_key(3)
    blocks = [
        Block(1, mk_addr(250), [Transaction(mk_addr(1), mk_addr(2), [storage_write(a, mk_word(1)), storage_write(b, mk_word(2))])]),
        Block(2, mk_addr(250), [Transaction(mk_addr(1), mk_addr(2), [storage_read(c), storage_read(a), storage_read(c)])]),
    ]
    genesis = derive_genesis(GeneratorParams(blocks=1, n_accounts=4, n_contracts=1, n_code_contracts=1, hot_keys=1, seed=1))
    genesis.accounts.update({mk_addr(1): Account(balance=10**9), mk_addr(2): Account(), mk_addr(250): Account()})
    store = build_store(blocks, genesis)
    cfg = BaselineCacheConfig(storage=2, accounts=100, codes=10)
    metrics = run_baseline(blocks, store, cfg)
    model = store.cost_model
    # block 2: C misses (zero read, 1 seek), A misses after eviction (2 seeks),
    # second C is served by the per-block cache
    assert metrics.rows[1].io_cost == model.c_random_seek + 2 * model.c_random_seek

    from ira.cachesim import simulate_lru

    assert simulate_lru([c, a, c], capacity=2, init=[a, b]).misses == 2


def test_baseline_digests_match_primary(pipeline_world):
    _, trace, store, _, digests = pipeline_world
    metrics = run_baseline(trace, store)
    assert all(digests[r.block] == r.digest for r in metrics.rows)
