"""Acceptance suite: one test per shipping criterion, each printing a
[PASS]/[FAIL] line with the measured numbers.

The default 1000-block world (trace, store, hints, baseline and backup runs)
is shared through session fixtures in conftest; the read-only plain-routed
world used for the I/O-elimination ceiling is built here, timed as part of
its criterion.
"""

from __future__ import annotations

import random
import time

import pytest

from ira.backup import PipelineConfig, pipeline_run, run_baseline
from ira.cachesim import compare_policies, simulate_belady, simulate_lru
from ira.primary import Source, compress_hint, parse_hint, raw_hint_size, serialize_hint, run_primary_block, HintDb
from ira.protocol import (
    decode_hint,
    encode_hint,
    generic_generate,
    generic_replay,
    read_op,
    write_op,
)
from ira.store import ZERO_WORD
from ira.workload import (
    build_store,
    collect_storage_keys,
    derive_genesis,
    iter_trace,
    iter_trace_file,
    plain_read_params,
    save_trace,
)

from conftest import brute_force_optimal, execute_direct, hint_member, trace_file_hash
from test_primary import random_hint


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: warm-cache motivating example -----------------------------------------


def test_criterion_01_lru_vs_optimal_fixed_example():
    t0 = time.monotonic()
    table = compare_policies(["C", "A", "C"], capacity=2, init=["A", "B"])
    opt = simulate_belady(["C", "A", "C"], capacity=2, init=["A", "B"])
    elapsed = time.monotonic() - t0
    ok = (
        table["lru_misses"] == 2
        and table["belady_misses"] == 1
        and opt.eviction_log == [(0, "B")]
        and elapsed < 1.0
    )
    report(
        "criterion 1 (fixed warm-cache example)",
        ok,
        f"lru={table['lru_misses']} optimal={table['belady_misses']} "
        f"evicted={opt.eviction_log[0][1]} in {elapsed:.3f}s",
    )


# -- criterion 2: optimality oracle --------------------------------------------------------


def test_criterion_02_optimal_policy_matches_exhaustive_oracle():
    t0 = time.monotonic()
    rng = random.Random(20240601)
    alphabet = list("abcdef")
    checked = 0
    for _ in range(5000):
        trace = [alphabet[rng.randrange(6)] for _ in range(rng.randrange(1, 13))]
        cap = rng.randrange(1, 5)
        optimal = simulate_belady(trace, cap).misses
        oracle = brute_force_optimal(trace, cap)
        lru = simulate_lru(trace, cap).misses
        assert optimal == oracle, (trace, cap)
        assert optimal <= lru, (trace, cap)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 5000 and elapsed < 60.0
    report(
        "criterion 2 (optimal == exhaustive oracle)",
        ok,
        f"{checked} random instances, all equal and <= LRU, in {elapsed:.1f}s",
    )


# -- criteria 3/4/8/9/11: default 1000-block world ------------------------------------------


def test_criterion_03_hint_completeness_and_digest_equality(backup_run, primary_run):
    # a cache miss raises CacheMissError inside pipeline_run, so a finished
    # run had none
    digests = primary_run["digests"]
    fallbacks = backup_run.fallback_blocks
    mismatches = sum(1 for r in backup_run.rows if digests[r.block] != r.digest)
    ok = fallbacks == 0 and mismatches == 0 and len(backup_run.rows) == 1000
    report(
        "criterion 3 (hint completeness, digest equality)",
        ok,
        f"blocks={len(backup_run.rows)} fallbacks={fallbacks} digest_mismatches={mismatches}",
    )


def test_criterion_04_source_routing_equivalence(primary_run, default_store):
    from ira.primary import decompress_hint

    store = default_store
    hint_db = primary_run["hint_db"]
    checked = 0
    discrepancies = 0
    for block in hint_db.blocks():
        hint = parse_hint(decompress_hint(hint_db.read_hint(block)))
        for key, src in hint.storage_entries:
            expect = store.read_as_of(key, block)
            if src == Source.ZERO:
                routed = ZERO_WORD
            elif src == Source.PLAIN:
                routed = store.storage.plain.get(key)
            else:
                n = store.storage.history.first_at_or_after(key, block)
                routed = store.storage.changesets[n][key]
            if routed != expect:
                discrepancies += 1
            checked += 1
    ok = discrepancies == 0 and checked > 0
    report(
        "criterion 4 (source routing equals two-step lookup)",
        ok,
        f"{checked} hint entries checked, {discrepancies} discrepancies",
    )


def test_criterion_05_serialization_exactness():
    rng = random.Random(555)
    bad = 0
    for _ in range(500):
        hint = random_hint(rng)
        raw = serialize_hint(hint)
        expect = 16 + 53 * len(hint.storage_entries) + 20 * (len(hint.accounts) + len(hint.codes))
        if len(raw) != expect or len(raw) != raw_hint_size(
            len(hint.storage_entries), len(hint.accounts), len(hint.codes)
        ):
            bad += 1
            continue
        if parse_hint(raw) != hint:
            bad += 1
            continue
        if len(compress_hint(raw)) > len(raw):
            bad += 1
    report(
        "criterion 5 (serialization exactness)",
        bad == 0,
        f"500 random hints: closed-form size, decode(encode)=id, compressed<=raw; {bad} failures",
    )


# -- criterion 6: I/O-elimination ceiling ------------------------------------------------------


@pytest.fixture()
def plain_world(tmp_path_factory):
    import gc

    t0 = time.monotonic()
    params = plain_read_params(blocks=1000, seed=7)
    blocks = list(iter_trace(params))
    keys = collect_storage_keys(blocks)
    store = build_store(blocks, derive_genesis(params, keys))
    del keys
    hint_db = HintDb(tmp_path_factory.mktemp("plainhints") / "hints.db")
    for block in blocks:
        r = run_primary_block(block, store)
        hint_db.write_hint(block.number, r.compressed_bytes)
    gc.collect()
    gc.freeze()
    # teardown relies on refcounting: these structures are acyclic, so they
    # are reclaimed when the fixture dict dies even while frozen
    yield {"params": params, "blocks": blocks, "store": store, "hint_db": hint_db, "setup_seconds": time.monotonic() - t0}
    hint_db.close()


def test_criterion_06_io_elimination_ceiling(plain_world):
    t0 = time.monotonic()
    store = plain_world["store"]
    blocks = plain_world["blocks"]
    baseline = run_baseline(blocks, store)
    f = baseline.io_fraction
    cfg = PipelineConfig(batch_size=32, channel_capacity=100, warmup_blocks=32, workers=1)
    backup = pipeline_run(blocks, store, plain_world["hint_db"], cfg)
    aggregate = baseline.total_cost / backup.wall_cost
    elapsed = time.monotonic() - t0 + plain_world["setup_seconds"]
    f_ok = abs(f - 0.96) <= 0.005
    speed_ok = abs(aggregate - 25.0) <= 2.5
    ok = f_ok and speed_ok and elapsed < 300.0
    report(
        "criterion 6 (I/O fraction and elimination ceiling)",
        ok,
        f"io_fraction={f:.4f} (target 0.96+-0.005), aggregate speedup={aggregate:.2f}x "
        f"(target 25 +-10%), runtime {elapsed:.0f}s",
    )


# -- criterion 7: worker scaling shape ----------------------------------------------------------


def test_criterion_07_scaling_monotone_with_plateau(default_trace_path, default_store, primary_run):
    blocks = []
    for block in iter_trace_file(default_trace_path):
        blocks.append(block)
        if len(blocks) >= 200:
            break
    walls = {}
    for k in (1, 2, 4, 8, 16, 32, 64):
        cfg = PipelineConfig(batch_size=32, channel_capacity=100, warmup_blocks=32, workers=k)
        metrics = pipeline_run(blocks, default_store, primary_run["hint_db"], cfg)
        walls[k] = metrics.wall_cost
    ks = sorted(walls)
    monotone = all(walls[a] >= walls[b] for a, b in zip(ks, ks[1:]))
    plateau = max(walls[16], walls[32], walls[64]) <= 1.01 * min(walls[16], walls[32], walls[64])
    ok = monotone and plateau
    report(
        "criterion 7 (wall cost scaling shape)",
        ok,
        "walls=" + " ".join(f"k{k}:{walls[k]}" for k in ks) + f" monotone={monotone} plateau={plateau}",
    )


def test_criterion_08_pipeline_wall_bounded_by_stage_max(backup_run):
    bound = 1.1 * max(backup_run.prefetch_total, backup_run.exec_total)
    ok = backup_run.wall_cost <= bound
    report(
        "criterion 8 (pipeline overlaps stages)",
        ok,
        f"wall={backup_run.wall_cost} <= 1.1*max(prefetch={backup_run.prefetch_total}, "
        f"exec={backup_run.exec_total}) = {bound:.0f}",
    )


def test_criterion_09_advisory_fallback_identical_digests(default_trace_path, default_store, backup_run):
    cfg = PipelineConfig(batch_size=32, channel_capacity=100, warmup_blocks=32, workers=1)
    fallback = pipeline_run(iter_trace_file(default_trace_path), default_store, None, cfg)
    hinted = backup_run.digests()
    mismatches = sum(1 for r in fallback.rows if hinted[r.block] != r.digest)
    ok = mismatches == 0 and fallback.fallback_blocks == len(fallback.rows)
    report(
        "criterion 9 (hints are advisory)",
        ok,
        f"all {fallback.fallback_blocks} blocks fell back; digest mismatches={mismatches}",
    )


# -- criterion 10: generalized protocol safety ----------------------------------------------------


def test_criterion_10_generalized_protocol_safety():
    rng = random.Random(31337)
    universe = [b"key:%05d" % i for i in range(400)]
    base = {k: b"v0" for k in universe}
    held_out = [b"held:%05d" % i for i in range(200)]
    failures = 0
    bloom_trials = 0
    bloom_fp = 0
    for encoding in ("exact", "prefix", "bloom", "range"):
        for _ in range(200):
            batch = []
            for _ in range(rng.randrange(5, 60)):
                key = universe[rng.randrange(len(universe))]
                if rng.random() < 0.3:
                    batch.append(write_op(key, bytes([rng.randrange(256)])))
                else:
                    batch.append(read_op(key))
            primary, backup, direct = dict(base), dict(base), dict(base)
            access = generic_generate(batch, primary)
            hint = encode_hint(access, encoding, target_fpr=0.01)
            generic_replay(batch, hint, backup, candidates=universe)
            execute_direct(batch, direct)
            if not (backup == direct == primary):
                failures += 1
            if encoding == "bloom":
                view = decode_hint("bloom", hint.payload)
                if not all(hint_member(view, k) for k in access):
                    failures += 1  # a false negative would be a contract break
                for k in held_out:
                    bloom_trials += 1
                    if hint_member(view, k):
                        bloom_fp += 1
    fpr = bloom_fp / bloom_trials if bloom_trials else 0.0
    ok = failures == 0 and fpr <= 0.02
    report(
        "criterion 10 (generalized protocol safety)",
        ok,
        f"4 encodings x 200 batches, state failures={failures}, measured bloom fpr={fpr:.4f} (<=0.02)",
    )


# -- criterion 11: generator fidelity ---------------------------------------------------------------


def test_criterion_11_generator_fidelity(default_params, default_trace_path, tmp_path):
    from ira.workload import analyze_trace

    rep = analyze_trace(iter_trace_file(default_trace_path))
    ephem_err = abs(rep.ephemeral_fraction - default_params.ephemeral_key_fraction)
    reuse_rel = abs(rep.intra_block_reuse - default_params.intra_block_reuse_factor) / default_params.intra_block_reuse_factor

    regen = tmp_path / "regen.trace"
    save_trace(regen, default_params, iter_trace(default_params))
    deterministic = trace_file_hash(regen) == trace_file_hash(default_trace_path)

    ok = ephem_err <= 0.05 and reuse_rel <= 0.10 and deterministic
    report(
        "criterion 11 (generator fidelity, determinism)",
        ok,
        f"ephemeral={rep.ephemeral_fraction:.3f} (target {default_params.ephemeral_key_fraction}, "
        f"+-0.05), reuse={rep.intra_block_reuse:.3f} (target {default_params.intra_block_reuse_factor}, "
        f"+-10%), same-seed hash equal={deterministic}",
    )
