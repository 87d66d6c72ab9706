"""Randomized invariants over seeded inputs: a routed read equals
``read_as_of``, also for keys a hint routes as change-set that
the store resolves to plain or zero, the primary's hint equals one built
by locating every key afresh, every engine asks its view for each storage
key of a block exactly once, the pipelined primary loop yields what a
sequential one does and ``run-primary`` writes its hint database byte for
byte, hinted replay reproduces the digests
of the unhinted fallback, and the pipeline's clock and cost totals add up
under any config and any mix of good, missing and misfiled hints, the
clock equals that of a producer and an executor joined by a queue, more
prefetch workers never raise the wall, a saved store loads back with the
same history index and as-of reads, the head view a build reads through
answers as a ``StoreView`` at the next block and the build saves the same
bytes, and a per-block log of either kind, cut anywhere or trailed by junk,
reads back its whole records and rolls back byte for byte."""

from __future__ import annotations

import random
import sys
import tempfile
from collections import Counter, deque
from pathlib import Path

import pytest

from ira.backup import BaselineView, BlockCache, PipelineConfig, pipeline_run, plan_prefetch, prefetch, run_baseline
from ira.cli import EXIT_OK, main
from ira.primary import (
    DigestLog,
    Hint,
    HintDb,
    HintIntegrityError,
    Source,
    _RouteView,
    compress_hint,
    decompress_hint,
    parse_hint,
    run_primary,
    run_primary_block,
    serialize_hint,
)
from ira.store import Account, ArchivalStore, CostMeter, Effects, HeadView, StoreView
from ira.workload import build_store, collect_storage_keys, derive_genesis, execute_block, save_trace

from conftest import demo_params, generate_trace, hint_from_sets, history_entries, locate_sources, mk_addr, mk_key, mk_word


def _random_store(rng: random.Random):
    """A few blocks of random writes over a small key and address universe,
    part of it seeded at genesis and part of it never written."""
    keys = sorted({mk_key(rng.randrange(12), contract=rng.randrange(3)) for _ in range(rng.randrange(1, 10))})
    addrs = [mk_addr(i) for i in range(1, rng.randrange(2, 7))]
    store = ArchivalStore()
    store.seed_genesis(
        storage={k: mk_word(rng.randrange(1, 99)) for k in keys if rng.random() < 0.3},
        accounts={a: Account(balance=rng.randrange(100)) for a in addrs if rng.random() < 0.3},
    )
    for b in range(1, rng.randrange(2, 10)):
        storage = {k: mk_word(rng.randrange(99)) for k in keys if rng.random() < 0.3}
        accounts = {a: Account(balance=rng.randrange(100), nonce=b) for a in addrs if rng.random() < 0.3}
        store.apply_block(b, Effects(storage=storage, accounts=accounts))
    return store, keys, addrs


def test_routed_values_equal_read_as_of():
    rng = random.Random(41)
    for case in range(2000):
        store, keys, addrs = _random_store(rng)
        for b in range(1, store.head_block + 2):
            entries = locate_sources(keys, store, b)
            cache = prefetch(plan_prefetch([Hint(b, entries, addrs, [])]), store, workers=1).caches[b]
            for key, src in entries:
                assert cache.storage[key] == store.read_as_of(key, b), (case, b, src)
            for addr in addrs:
                assert cache.accounts[addr] == store.account_as_of(addr, b), (case, b)


def test_saved_store_loads_with_the_same_index_and_reads(tmp_path):
    # the index is not saved: load rebuilds it from the change sets, also
    # after blocks that change nothing
    rng = random.Random(59)
    keys = [mk_key(i, contract=i % 3) for i in range(8)]
    addrs = [mk_addr(i) for i in range(1, 5)]
    for case in range(300):
        store = ArchivalStore()
        for b in range(1, rng.randrange(2, 12)):
            storage = {k: mk_word(rng.randrange(99)) for k in keys if rng.random() < 0.25}
            accounts = {a: Account(balance=rng.randrange(100), nonce=b) for a in addrs if rng.random() < 0.25}
            store.apply_block(b, Effects(storage=storage, accounts=accounts))
        store.save(tmp_path / str(case))
        loaded = ArchivalStore.load(tmp_path / str(case))
        assert loaded.head_block == store.head_block, case
        assert loaded.storage.changesets == store.storage.changesets, case
        assert loaded.accounts.changesets == store.accounts.changesets, case
        for key in keys:
            assert history_entries(loaded.storage.history, key) == history_entries(store.storage.history, key), case
        for addr in addrs:
            assert history_entries(loaded.accounts.history, addr) == history_entries(store.accounts.history, addr), case
        for b in range(1, store.head_block + 2):
            for key in keys:
                assert loaded.read_as_of(key, b) == store.read_as_of(key, b), (case, b)
            for addr in addrs:
                assert loaded.account_as_of(addr, b) == store.account_as_of(addr, b), (case, b)


def test_changeset_routed_batches_equal_read_as_of():
    # every key is routed as change-set, whatever the store holds for it, in
    # batches of several blocks; the walks price at most what point reads of
    # the same (key, block) pairs would
    rng = random.Random(47)
    resolved = Counter()
    for case in range(1500):
        store, keys, _ = _random_store(rng)
        span = range(1, store.head_block + 2)
        blocks = sorted(rng.sample(span, rng.randint(1, len(span))))
        hints = [Hint(b, [(k, Source.CHANGESET) for k in keys if rng.random() < 0.7], [], []) for b in blocks]
        plan = plan_prefetch(hints)
        result = prefetch(plan, store, workers=1)
        for hint in hints:
            b = hint.block_number
            for key, _ in hint.storage_entries:
                assert result.caches[b].storage[key] == store.read_as_of(key, b), (case, b)
                if store.storage.history.first_at_or_after(key, b) is not None:
                    resolved["changeset"] += 1
                else:
                    resolved["plain" if key in store.storage.plain else "zero"] += 1
        point = CostMeter(store.cost_model)
        for key, b in plan.changeset_pairs:
            store.read_as_of(key, b, point)
        assert result.wall_cost <= point.total, case
    assert min(resolved[kind] for kind in ("changeset", "plain", "zero")) > 100, resolved


def _random_params(rng: random.Random, min_blocks: int, max_blocks: int):
    """A small random world's generator params, with from ``min_blocks`` to
    ``max_blocks - 1`` blocks."""
    return demo_params(blocks=rng.randrange(min_blocks, max_blocks), seed=rng.randrange(1 << 30))._replace(
        ephemeral_key_fraction=rng.random(),
        hot_key_share=rng.random(),
        read_write_ratio=rng.uniform(0.25, 12.0),
    )


def _store_view_build(blocks, genesis):
    """``build_store`` as it was, with a ``StoreView`` per block: the oracle
    of the head view's build."""
    store = ArchivalStore()
    store.seed_genesis(genesis.storage, genesis.accounts, genesis.codes)
    for block in blocks:
        store.apply_block(block.number, execute_block(block, StoreView(store, block.number)).effects)
    return store


def _saved_bytes(store, directory):
    store.save(directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_head_view_reads_as_a_store_view_at_the_next_block(tmp_path):
    # after every block a build applies, the head view answers each storage
    # key, account and code address of the world, and absent ones, as the
    # as-of rule does at head + 1; a build through it saves the bytes of
    # one through a StoreView per block
    rng = random.Random(73)
    absent_keys = [mk_key(i, contract=250) for i in range(3)]
    absent_addrs = [b"\xee" * 20, b"\xef" * 20]
    for case in range(60):
        params = _random_params(rng, 1, 9)._replace(seed_trace_keys=rng.random() < 0.5)
        trace = generate_trace(params)
        keys = collect_storage_keys(trace)
        genesis = derive_genesis(params, keys if params.seed_trace_keys else None)
        addrs = set(genesis.accounts)
        for block in trace:
            addrs.add(block.beneficiary)
            for tx in block.txs:
                addrs.update([tx.sender, tx.recipient])
                addrs.update(key for kind, key, _ in tx.ops if kind >= 2)
        keys, addrs = sorted(keys) + absent_keys, sorted(addrs) + absent_addrs

        store = ArchivalStore()
        store.seed_genesis(genesis.storage, genesis.accounts, genesis.codes)
        view = HeadView(store)
        for block in [None] + trace:
            if block is not None:
                store.apply_block(block.number, execute_block(block, view).effects)
            oracle = StoreView(store, store.head_block + 1)
            assert view.block_number == oracle.block_number, case
            for key in keys:
                assert view.get_storage(key) == oracle.get_storage(key), (case, view.block_number)
            for addr in addrs:
                assert view.get_account(addr) == oracle.get_account(addr), (case, view.block_number)
                assert view.get_code(addr) == oracle.get_code(addr), (case, view.block_number)
        assert any(view.get_code(addr) is not None for addr in addrs), case

        built = _saved_bytes(build_store(trace, genesis), tmp_path / f"{case}-head")
        assert built == _saved_bytes(_store_view_build(trace, genesis), tmp_path / f"{case}-oracle"), case


def test_primary_hint_equals_one_located_afresh():
    # the primary takes each key's source from the read; locating every key
    # of the block's ops again, one seek per key, gives the same bytes
    rng = random.Random(61)
    for case in range(150):
        params = _random_params(rng, 2, 8)
        trace = generate_trace(params)
        store = build_store(trace, derive_genesis(params))
        for block in trace:
            b = block.number
            r = run_primary_block(block, store)
            meter = CostMeter(store.cost_model)
            plain = execute_block(block, StoreView(store, b, meter), meter)
            entries = locate_sources(collect_storage_keys([block]), store, b)
            fresh = hint_from_sets(b, entries, plain.account_memo, plain.code_memo)
            assert serialize_hint(r.hint) == serialize_hint(fresh), (case, b)
            assert r.exec_cost == meter.total, (case, b)


def _reads_from_ops(block) -> int:
    """The read count of a block from its ops alone: every op but a write,
    one original-value read per key first accessed by a write, and three
    account reads per transaction."""
    ops = writes = 0
    first_kind = {}
    for tx in block.txs:
        for kind, key, _ in tx.ops:
            ops += 1
            writes += kind == 1
            if kind <= 1:
                first_kind.setdefault(key, kind)
    return ops - writes + sum(kind == 1 for kind in first_kind.values()) + 3 * len(block.txs)


def test_every_engine_asks_its_view_for_each_storage_key_once(tmp_path, monkeypatch):
    # a block asks its view for each storage key it touches, a written one
    # for its original value, and never twice: so the routes the primary's
    # view keeps cover the whole hint, and the baseline pays for what the
    # backup prefetches
    calls = []

    def counting(view_class):
        get = view_class.get_storage

        def get_storage(self, key):
            calls.append((type(self).__name__, self.block_number, key))
            return get(self, key)

        monkeypatch.setattr(view_class, "get_storage", get_storage)

    for view_class in (HeadView, StoreView, _RouteView, BaselineView, BlockCache):
        counting(view_class)
    rng = random.Random(71)
    for case in range(100):
        params = _random_params(rng, 1, 9)
        trace = generate_trace(params)
        calls.clear()
        store = build_store(trace, derive_genesis(params))
        with HintDb(tmp_path / f"{case}.db") as db:
            for r in run_primary(trace, store):
                db.write_hint(r.block_number, r.compressed_bytes)
            baseline = run_baseline(trace, store)
            assert pipeline_run(trace, store, db).fallback_blocks == 0, case
        assert pipeline_run(trace, store, None).fallback_blocks == len(trace), case
        once = Counter((b.number, k) for b in trace for k in collect_storage_keys([b]))
        # build-store reads through its head view, the fallback through a StoreView
        expected = {"HeadView": once, "StoreView": once, "_RouteView": once, "BaselineView": once, "BlockCache": once}
        for name, want in expected.items():
            assert Counter((b, k) for view, b, k in calls if view == name) == want, (case, name)
        assert [row.reads for row in baseline.rows] == [_reads_from_ops(b) for b in trace], case


def _sequential_primary(trace, store):
    """The primary's loop with no worker: each block runs, then its hint is
    compressed, one after the other on this thread."""
    out = []
    for block in trace:
        r = run_primary_block(block, store)
        out.append(r._replace(compressed_bytes=compress_hint(serialize_hint(r.hint))))
    return out


def test_pipelined_primary_equals_a_sequential_loop(tmp_path):
    # every result of run_primary equals the sequential loop's, and
    # run-primary writes the hint database and digest log that loop would;
    # a short switch interval makes the main thread and the worker interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        rng = random.Random(67)
        for case in range(200):
            params = _random_params(rng, 1, 9)
            trace = generate_trace(params)
            store = build_store(trace, derive_genesis(params))
            expected = _sequential_primary(trace, store)
            assert list(run_primary(trace, store)) == expected, case
            if case % 5:
                continue
            d = tmp_path / str(case)
            d.mkdir()
            save_trace(d / "t.trace", params, trace)
            store.save(d / "store")
            rc = main(
                [
                    "run-primary", "--trace", str(d / "t.trace"), "--store", str(d / "store"),
                    "--hints-out", str(d / "hints.db"), "--digests-out", str(d / "digests.bin"),
                    "--report", str(d / "primary.csv"),
                ]
            )
            assert rc == EXIT_OK, case
            with HintDb(d / "ref-hints.db") as db:
                for r in expected:
                    db.write_hint(r.block_number, r.compressed_bytes)
            with DigestLog(d / "ref-digests.bin", create=True) as log:
                for r in expected:
                    log.write(r.block_number, r.digest)
            for name in ("hints.db", "digests.bin"):
                assert (d / name).read_bytes() == (d / f"ref-{name}").read_bytes(), (case, name)
    finally:
        sys.setswitchinterval(interval)


def test_hinted_digests_equal_fallback_digests():
    rng = random.Random(43)
    for case in range(300):
        params = _random_params(rng, 2, 10)
        batch = rng.randrange(1, 5)
        cfg = PipelineConfig(
            batch_size=batch,
            channel_capacity=batch * rng.randrange(1, 4),
            warmup_blocks=rng.randrange(0, 9),
            workers=rng.choice([1, 2, 3, 8, 64]),
        )
        trace = generate_trace(params)
        store = build_store(trace, derive_genesis(params))
        with tempfile.TemporaryDirectory() as td, HintDb(Path(td) / "hints.db") as db:
            primary = {}
            for r in run_primary(trace, store):
                db.write_hint(r.block_number, r.compressed_bytes)
                primary[r.block_number] = r.digest
            hinted = pipeline_run(trace, store, db, cfg)
        fallback = pipeline_run(trace, store, None, cfg)
        # a miss raises CacheMissError, so a finished run had none
        assert hinted.fallback_blocks == 0, case
        assert fallback.fallback_blocks == len(trace), case
        assert hinted.digests() == fallback.digests() == primary, (case, params, cfg)


@pytest.fixture(scope="module")
def random_world():
    params = demo_params(blocks=24, seed=5)._replace(txs_per_block_mean=4.0, unique_keys_median=20)
    trace = generate_trace(params)
    store = build_store(trace, derive_genesis(params))
    hints = {r.block_number: r.compressed_bytes for r in run_primary(trace, store)}
    return trace, store, hints


def _random_pipeline_cases(hints, tmp_path):
    """400 seeded pipeline configs, each with an open hint DB in which up to
    three hints are missing and up to three misfiled under another block.
    Yields ``(case, cfg, db, missing, misfiled)``."""
    rng = random.Random(53)
    numbers = sorted(hints)
    for case in range(400):
        batch = rng.randrange(1, 6)
        cfg = PipelineConfig(
            batch_size=batch,
            channel_capacity=batch * rng.randrange(1, 5),
            warmup_blocks=rng.randrange(0, 25),
            warmup_buffer_entries=rng.choice([134_217_728, rng.randrange(1, 400), 1]),
            workers=rng.choice([1, 2, 16]),
        )
        missing = set(rng.sample(numbers, rng.randrange(0, 4)))
        misfiled = set(rng.sample([b for b in numbers if b not in missing], rng.randrange(0, 4)))
        with HintDb(tmp_path / f"{case}.db") as db:
            for b in numbers:
                if b in misfiled:
                    db.write_hint(b, hints[rng.choice([n for n in numbers if n != b])])
                elif b not in missing:
                    db.write_hint(b, hints[b])
            yield case, cfg, db, missing, misfiled


def test_pipeline_totals_add_up_under_random_configs(random_world, tmp_path):
    trace, store, hints = random_world
    unhinted = pipeline_run(trace, store, None).digests()
    for case, cfg, db, missing, misfiled in _random_pipeline_cases(hints, tmp_path):
        metrics = pipeline_run(trace, store, db, cfg)
        walls = [pipeline_run(trace, store, db, cfg._replace(workers=k)).wall_cost for k in (1, 2, 4, 16, 64)]
        assert all(a >= b for a, b in zip(walls, walls[1:])), (case, cfg, walls)
        rows = metrics.rows
        assert metrics.wall_cost == metrics.wait_total + metrics.exec_total, case
        assert sum(r.prefetch_cost for r in rows) == metrics.prefetch_total, case
        assert sum(metrics.prefetch_by_route.values()) == metrics.prefetch_total, case
        assert all(r.t_wait == 0 for i, r in enumerate(rows) if i % cfg.batch_size), (case, cfg)
        assert metrics.digests() == unhinted, case
        assert [r.block for r in rows if r.fallback] == sorted(missing | misfiled), case
        assert metrics.corrupt_hints == len(misfiled), (case, cfg)


def _queued_clock(batches, cfg):
    """The pipeline clock as a live producer and executor joined by a queue.

    Per batch, ``batches`` gives the block count, the entries of its decoded
    hints, its prefetch wall and each block's ``t_exec``. Before the producer
    takes a steady batch, the executor runs queued blocks until the channel
    has room for it. Returns each block's ``t_wait`` and the wall."""
    queue = deque()  # (ready, steady, t_exec) per block
    steady_starts, waits = [], []
    exec_free = 0

    def execute_next():
        nonlocal exec_free
        ready, steady, t_exec = queue.popleft()
        start = max(exec_free, ready)
        if steady:
            steady_starts.append(start)
        waits.append(start - exec_free)
        exec_free = start + t_exec

    warm = True
    prod_free = warm_blocks = warm_entries = produced = 0
    for count, entries, wall, t_execs in batches:
        room = 0
        if warm:
            warm = warm_blocks + count <= cfg.warmup_blocks and not (
                warm_blocks and warm_entries + entries > cfg.warmup_buffer_entries
            )
            warm_blocks += count
            warm_entries += entries
        if not warm:
            need = produced + count - cfg.channel_capacity
            while len(steady_starts) < need:
                execute_next()
            if need > 0:
                room = steady_starts[need - 1]
            produced += count
        prod_free = max(prod_free, room) + wall
        queue.extend((prod_free, not warm, t_exec) for t_exec in t_execs)
    while queue:
        execute_next()
    return waits, exec_free


def test_single_pass_clock_equals_queued_producer_executor(random_world, tmp_path):
    # these configs bind the channel (channel = batch), end warm-up by the
    # entry budget and mix in missing and misfiled hints
    trace, store, hints = random_world
    entries = {b: parse_hint(decompress_hint(data)).entry_count() for b, data in hints.items()}
    for case, cfg, db, missing, misfiled in _random_pipeline_cases(hints, tmp_path):
        metrics = pipeline_run(trace, store, db, cfg)
        rows = metrics.rows
        batches = []
        for i in range(0, len(rows), cfg.batch_size):
            part = rows[i : i + cfg.batch_size]
            batches.append(
                (
                    len(part),
                    sum(entries[r.block] for r in part if r.block not in missing | misfiled),
                    sum(r.prefetch_cost for r in part),
                    [r.t_exec for r in part],
                )
            )
        waits, wall = _queued_clock(batches, cfg)
        assert waits == [r.t_wait for r in rows], (case, cfg)
        assert wall == metrics.wall_cost, (case, cfg)


def test_cut_or_junk_logs_read_whole_records_and_roll_back_byte_for_byte(tmp_path):
    rng = random.Random(53)
    for case in range(300):
        kind, other = rng.choice(((HintDb, DigestLog), (DigestLog, HintDb)))
        path = tmp_path / f"{case}.log"
        records, ends = [], [8]  # the header, then one end per record
        with kind(path, create=True) as log:
            for block in rng.sample(range(1, 100), rng.randint(0, 5)):
                payload = rng.randbytes(32 if kind is DigestLog else rng.randint(0, 600))
                log.write_hint(block, payload)
                records.append((block, payload))
                ends.append(ends[-1] + 16 + len(payload))
        whole = path.read_bytes()
        assert len(whole) == ends[-1]
        if rng.random() < 0.5:
            blob = whole[: rng.randrange(len(whole) + 1)]
        else:  # junk shorter than a record header cannot parse as a record
            blob = whole + rng.randbytes(rng.randint(1, 15))
        path.write_bytes(blob)
        if len(blob) < 8:  # cut inside the header: refused, like a bad one
            with pytest.raises(HintIntegrityError):
                kind(path, create=False)
            continue
        kept = sum(end <= len(blob) for end in ends[1:])

        with kind(path, create=False) as reader:
            assert reader.blocks() == sorted(b for b, _ in records[:kept]), case
            assert all(reader.read_hint(b) == payload for b, payload in records[:kept]), case
            assert all(reader.read_hint(b) is None for b, _ in records[kept:]), case
            assert reader.torn_bytes == len(blob) - ends[kept], case
        with pytest.raises(HintIntegrityError):
            other(path, create=False)
        assert path.read_bytes() == blob, case  # neither reader wrote

        writer = kind(path, create=True)
        for block in rng.sample(range(100, 200), rng.randint(0, 3)):
            writer.write_hint(block, rng.randbytes(rng.randint(0, 64)))
        writer.rollback()
        assert path.read_bytes() == blob, case

        created = kind(tmp_path / f"{case}.new", create=True)
        for block in rng.sample(range(1, 100), rng.randint(0, 3)):
            created.write_hint(block, rng.randbytes(32))
        created.rollback()
        assert not (tmp_path / f"{case}.new").exists(), case
