from __future__ import annotations

import hashlib
import random
import sys
import threading
import time

import pytest

from ira import primary
from ira.primary import (
    DigestLog,
    Hint,
    HintConflictError,
    HintDb,
    HintIntegrityError,
    SerializationError,
    Source,
    annotate_sources,
    compress_hint,
    decompress_hint,
    hint_from_sets,
    parse_hint,
    raw_hint_size,
    run_primary,
    run_primary_block,
    serialize_hint,
    state_change_hash,
)
from ira.store import Account, ArchivalStore, CostMeter, Effects, OrderingError, StorageKey
from ira.workload import build_store, derive_genesis, execute_block
from ira.store import StoreView

from conftest import demo_params, generate_trace, mk_addr, mk_key, mk_word


def random_key(rng: random.Random) -> StorageKey:
    return StorageKey(bytes(rng.getrandbits(8) for _ in range(52)))


def random_hint(rng: random.Random, n_storage=None, n_accounts=None, n_codes=None) -> Hint:
    entries = [(random_key(rng), Source(rng.randrange(3))) for _ in range(n_storage if n_storage is not None else rng.randrange(0, 40))]
    accounts = [bytes(rng.getrandbits(8) for _ in range(20)) for _ in range(n_accounts if n_accounts is not None else rng.randrange(0, 10))]
    codes = [bytes(rng.getrandbits(8) for _ in range(20)) for _ in range(n_codes if n_codes is not None else rng.randrange(0, 6))]
    return hint_from_sets(rng.randrange(1, 10_000), entries, accounts, codes)


# -- source annotation --------------------------------------------------------------


def three_block_store():
    store = ArchivalStore()
    store.apply_block(1, Effects(storage={mk_key(1): mk_word(10)}))
    store.apply_block(2, Effects(storage={mk_key(2): mk_word(20)}))
    store.apply_block(3, Effects(storage={mk_key(1): mk_word(11)}))
    return store


def test_never_written_key_is_zero():
    store = three_block_store()
    [(key, src)] = annotate_sources([mk_key(9)], store, 2)
    assert src == Source.ZERO


def test_key_modified_before_query_only_is_plain():
    store = three_block_store()
    [(key, src)] = annotate_sources([mk_key(2)], store, 3)
    assert src == Source.PLAIN


def test_key_modified_at_or_after_query_is_changeset():
    store = three_block_store()
    [(key, src)] = annotate_sources([mk_key(1)], store, 3)
    assert src == Source.CHANGESET
    # and five blocks ahead of the query point
    store2 = ArchivalStore()
    for b in range(1, 7):
        store2.apply_block(b, Effects(storage={mk_key(5): mk_word(b)} if b == 6 else {}))
    [(key, src)] = annotate_sources([mk_key(5)], store2, 1)
    assert src == Source.CHANGESET


def test_source_byte_values_are_fixed():
    assert int(Source.PLAIN) == 0
    assert int(Source.ZERO) == 1
    assert int(Source.CHANGESET) == 2


def test_source_routing_matches_read_as_of():
    """Reading via the annotated source must equal the full two-step lookup."""
    store = three_block_store()
    keys = [mk_key(1), mk_key(2), mk_key(9)]
    for block_number in (1, 2, 3, 4):
        for key, src in annotate_sources(keys, store, block_number):
            expect = store.read_as_of(key, block_number)
            if src == Source.ZERO:
                routed = b"\x00" * 32
            elif src == Source.PLAIN:
                routed = store.storage.plain[key]
            else:
                routed = store.read_as_of(key, block_number)
            assert routed == expect, (key, block_number, src)


def test_annotation_cost_linear_in_key_count():
    store = three_block_store()
    model = store.cost_model
    for n in (1, 10, 50):
        meter = CostMeter(model)
        annotate_sources([mk_key(100 + i) for i in range(n)], store, 2, meter)
        assert meter.total == n * model.c_random_seek


# -- serialization ------------------------------------------------------------------


def test_raw_size_formula_example():
    rng = random.Random(5)
    hint = random_hint(rng, n_storage=1000, n_accounts=10, n_codes=5)
    raw = serialize_hint(hint)
    assert len(raw) == 16 + 53 * 1000 + 20 * 15 == 53316


def test_empty_hint_is_header_only():
    hint = hint_from_sets(7, [], [], [])
    assert serialize_hint(hint) == serialize_hint(hint)
    assert len(serialize_hint(hint)) == 16


def test_round_trip_500_random_hints():
    rng = random.Random(1234)
    for _ in range(500):
        hint = random_hint(rng)
        raw = serialize_hint(hint)
        assert len(raw) == raw_hint_size(len(hint.storage_entries), len(hint.accounts), len(hint.codes))
        decoded = parse_hint(raw)
        assert decoded == hint
        comp = compress_hint(raw)
        assert len(comp) <= len(raw)
        assert decompress_hint(comp) == raw


def test_serialize_rejects_unsorted_entries():
    k1, k2 = mk_key(2), mk_key(1)
    hint = Hint(1, [(k1, Source.PLAIN), (k2, Source.PLAIN)], [], [])
    with pytest.raises(SerializationError):
        serialize_hint(hint)


@pytest.mark.parametrize(
    "storage, accounts, codes, message",
    [
        ([(mk_key(1)[:-1], Source.PLAIN)], [], [], "bad storage key width"),
        ([(mk_key(1), Source.PLAIN), (mk_key(1), Source.ZERO)], [], [], "storage entries must be strictly ascending"),
        ([(mk_key(1), 3)], [], [], "invalid source byte 3"),
        ([(mk_key(1), -1)], [], [], "invalid source byte -1"),
        ([], [mk_addr(1) + b"\x00"], [], "bad account address width"),
        ([], [mk_addr(2), mk_addr(1)], [], "account entries must be strictly ascending"),
        ([], [], [b""], "bad code address width"),
        ([], [mk_addr(1)], [mk_addr(1), mk_addr(1)], "code entries must be strictly ascending"),
    ],
    ids=["key-width", "key-order", "source-3", "source-negative", "account-width", "account-order", "code-width", "code-order"],
)
def test_serialize_names_the_check_an_entry_breaks(storage, accounts, codes, message):
    with pytest.raises(SerializationError) as exc:
        serialize_hint(Hint(1, storage, accounts, codes))
    assert str(exc.value) == message


def test_serialize_rejects_oversized_counts():
    hint = Hint(1, [], [mk_addr(i % 200) for i in range(2)], [])
    hint = hint._replace(accounts=[b"\x01" * 20] * 70000)  # overflows the u16 account count
    with pytest.raises(SerializationError):
        serialize_hint(hint)


def test_parse_rejects_wrong_length_and_magic():
    hint = hint_from_sets(3, [(mk_key(1), Source.ZERO)], [], [])
    raw = serialize_hint(hint)
    with pytest.raises(HintIntegrityError):
        parse_hint(raw + b"\x00")
    with pytest.raises(HintIntegrityError):
        parse_hint(b"\x00" + raw[1:])


def _two_entry_hint() -> bytes:
    hint = hint_from_sets(3, [(mk_key(1), Source.PLAIN), (mk_key(2), Source.CHANGESET)], [mk_addr(1)], [])
    return serialize_hint(hint)


def test_parse_rejects_source_byte_three():
    raw = bytearray(_two_entry_hint())
    src_at = 16 + 53 + 52  # header, first entry, second entry's key
    assert raw[src_at] == Source.CHANGESET
    raw[src_at] = 3
    with pytest.raises(HintIntegrityError, match="invalid source byte 3"):
        parse_hint(bytes(raw))


def test_parse_rejects_non_ascending_storage_entries():
    raw = _two_entry_hint()
    first, second = raw[16:69], raw[69:122]
    with pytest.raises(HintIntegrityError, match="storage entries not strictly ascending"):
        parse_hint(raw[:16] + second + first + raw[122:])
    with pytest.raises(HintIntegrityError, match="storage entries not strictly ascending"):
        parse_hint(raw[:16] + first + first + raw[122:])


def test_parse_rejects_non_ascending_addresses():
    hint = hint_from_sets(3, [], [mk_addr(1), mk_addr(2)], [])
    raw = serialize_hint(hint)
    with pytest.raises(HintIntegrityError, match="address entries not strictly ascending"):
        parse_hint(raw[:16] + raw[36:56] + raw[16:36])


def test_parse_yields_storage_keys_and_sources():
    hint = parse_hint(_two_entry_hint())
    assert [type(k) for k, _ in hint.storage_entries] == [StorageKey, StorageKey]
    assert [s for _, s in hint.storage_entries] == [Source.PLAIN, Source.CHANGESET]
    assert all(type(s) is Source for _, s in hint.storage_entries)
    assert [type(a) for a in hint.accounts] == [bytes]


def test_identity_codec_round_trip():
    # random keys leave zlib nothing to shrink, so the hint is stored raw,
    # and raw bytes decode as themselves
    rng = random.Random(5)
    hint = hint_from_sets(3, [(StorageKey(rng.randbytes(52)), Source.ZERO)], [rng.randbytes(20)], [])
    raw = serialize_hint(hint)
    assert compress_hint(raw) == raw
    assert decompress_hint(raw) == raw


def test_compression_shrinks_regular_payloads():
    # many shared-prefix keys compress well
    entries = [(mk_key(i), Source.PLAIN) for i in range(500)]
    hint = hint_from_sets(1, entries, [], [])
    raw = serialize_hint(hint)
    comp = compress_hint(raw)
    assert len(comp) < len(raw)
    assert decompress_hint(comp) == raw


# -- state change digest --------------------------------------------------------------


def test_empty_effects_digest_is_sha256_of_nothing():
    assert state_change_hash(Effects()) == hashlib.sha256(b"").digest()


def test_digest_order_independent():
    e1 = Effects(storage={mk_key(1): mk_word(1), mk_key(2): mk_word(2)})
    e2 = Effects(storage=dict(reversed(list(e1.storage.items()))))
    assert state_change_hash(e1) == state_change_hash(e2)


def test_digest_sensitive_to_single_bit():
    base = Effects(storage={mk_key(1): mk_word(1)})
    flipped_word = bytes([mk_word(1)[0] ^ 0x01]) + mk_word(1)[1:]
    changed = Effects(storage={mk_key(1): flipped_word})
    assert state_change_hash(base) != state_change_hash(changed)


def test_digest_covers_accounts():
    a = Effects(accounts={mk_addr(1): Account(balance=1)})
    b = Effects(accounts={mk_addr(1): Account(balance=2)})
    assert state_change_hash(a) != state_change_hash(b)
    assert state_change_hash(a) != state_change_hash(Effects())


# -- run_primary_block -----------------------------------------------------------------


@pytest.fixture(scope="module")
def demo_world():
    params = demo_params()
    trace = generate_trace(params)
    store = build_store(trace, derive_genesis(params))
    return params, trace, store


def test_primary_collects_implicit_accounts(demo_world):
    _, trace, store = demo_world
    block = trace[0]
    result = run_primary_block(block, store)
    expected = {tx.sender for tx in block.txs} | {tx.recipient for tx in block.txs} | {block.beneficiary}
    assert expected <= set(result.hint.accounts)


def test_instrumentation_does_not_alter_effects(demo_world):
    _, trace, store = demo_world
    rng = random.Random(17)
    from ira.workload import GeneratorParams, iter_trace

    params = GeneratorParams(blocks=100, unique_keys_median=40, txs_per_block_mean=4, seed=rng.randrange(1 << 30))
    big_trace = list(iter_trace(params))
    big_store = build_store(big_trace, derive_genesis(params))
    for block in big_trace:
        instrumented = run_primary_block(block, big_store)
        plain = execute_block(block, StoreView(big_store, block.number))
        assert instrumented.effects == plain.effects


def test_primary_empty_block_accesses_beneficiary_only():
    from ira.workload import Block

    store = ArchivalStore()
    store.seed_genesis(accounts={mk_addr(7): Account(balance=5)})
    store.apply_block(1, Effects())
    block = Block(number=1, beneficiary=mk_addr(7), txs=[])
    result = run_primary_block(block, store)
    assert result.hint.storage_entries == []
    assert result.hint.accounts == []
    assert result.hint.entry_count() == 0
    assert result.exec_cost == 0


def test_primary_mode_preconditions(demo_world):
    # the primary replays history: the store must already hold the block
    params, trace, _ = demo_world
    short_store = build_store(trace[:1], derive_genesis(params))
    run_primary_block(trace[0], short_store)
    with pytest.raises(OrderingError):
        run_primary_block(trace[1], short_store)


def test_hint_construct_cost_counts_write_first_keys(demo_world):
    # a key the block read from the store has its source from that read; only
    # a key the block wrote before any read costs a history-index seek
    _, trace, store = demo_world
    model = store.cost_model
    total_write_first = 0
    for block in trace:
        first_kind = {}
        for tx in block.txs:
            for kind, key, _ in tx.ops:
                if kind in (0, 1):  # STORAGE_READ, STORAGE_WRITE
                    first_kind.setdefault(key, kind)
        write_first = sum(kind == 1 for kind in first_kind.values())
        r = run_primary_block(block, store)
        assert [k for k, _ in r.hint.storage_entries] == sorted(first_kind)
        assert r.hint_construct_cost == write_first * model.c_random_seek
        total_write_first += write_first
    assert total_write_first > 0


def test_run_primary_yields_each_block_in_order_with_its_hint_compressed(demo_world):
    _, trace, store = demo_world
    results = list(run_primary(trace, store))
    assert [r.block_number for r in results] == [block.number for block in trace]
    assert all(r.compressed_bytes == compress_hint(r.raw_bytes) for r in results)
    assert run_primary_block(trace[0], store).compressed_bytes is None


def test_run_primary_closed_after_its_first_result_leaves_no_worker(demo_world, monkeypatch):
    # block 2's hint is still deflating when the caller stops reading; closing
    # the loop joins its worker and puts the switch interval back
    _, trace, store = demo_world
    deflate = primary._deflate

    def slow(raw):
        time.sleep(0.2)
        return deflate(raw)

    monkeypatch.setattr(primary, "_deflate", slow)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    results = run_primary(trace, store)
    first = next(results)
    assert first.block_number == trace[0].number
    assert first.compressed_bytes == compress_hint(first.raw_bytes)
    assert sys.getswitchinterval() <= primary._SWITCH_INTERVAL_S
    results.close()
    assert threading.active_count() == threads
    assert sys.getswitchinterval() == interval


def test_annotation_takes_known_routes_without_a_seek():
    store = three_block_store()
    model = store.cost_model
    keys = [mk_key(1), mk_key(2), mk_key(9)]
    meter = CostMeter(model)
    # the known sources need not be the store's: they are taken as given
    known = {mk_key(1): Source.ZERO, mk_key(9): Source.PLAIN}
    entries = annotate_sources(keys + keys, store, 3, meter, known)
    assert entries == [(mk_key(1), Source.ZERO), (mk_key(2), Source.PLAIN), (mk_key(9), Source.PLAIN)]
    assert meter.total == model.c_random_seek


def test_serialization_order_matches_prefetch_order(demo_world):
    _, trace, store = demo_world
    r = run_primary_block(trace[0], store)
    keys = [k for k, _ in r.hint.storage_entries]
    assert keys == sorted(keys)


# -- hint database ---------------------------------------------------------------------


def test_hintdb_write_read_round_trip(tmp_path):
    db = HintDb(tmp_path / "hints.db")
    db.write_hint(7, b"payload-7")
    assert db.read_hint(7) == b"payload-7"
    db.close()


def test_hintdb_read_absent_is_none(tmp_path):
    db = HintDb(tmp_path / "hints.db")
    assert db.read_hint(3) is None
    db.close()


def test_hintdb_duplicate_write_conflicts(tmp_path):
    db = HintDb(tmp_path / "hints.db")
    db.write_hint(1, b"a")
    with pytest.raises(HintConflictError):
        db.write_hint(1, b"b")
    db.close()


def test_hintdb_iterates_ascending(tmp_path):
    db = HintDb(tmp_path / "hints.db")
    order = list(range(1, 101))
    rnd = random.Random(2)
    shuffled = order[:]
    rnd.shuffle(shuffled)
    for b in shuffled:
        db.write_hint(b, b"x%d" % b)
    assert db.blocks() == order
    db.close()


def test_hintdb_survives_reopen(tmp_path):
    path = tmp_path / "hints.db"
    db = HintDb(path)
    db.write_hint(1, b"one")
    db.write_hint(2, b"two")
    db.close()
    db2 = HintDb(path, create=False)
    assert db2.read_hint(2) == b"two"
    assert db2.blocks() == [1, 2]
    db2.close()


def test_hintdb_detects_corruption(tmp_path):
    path = tmp_path / "hints.db"
    db = HintDb(path)
    db.write_hint(1, b"payload-one")
    db.close()
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF  # flip a payload byte under the crc
    path.write_bytes(bytes(blob))
    db2 = HintDb(path, create=False)
    with pytest.raises(HintIntegrityError):
        db2.read_hint(1)
    db2.close()


def _three_record_db(path):
    with HintDb(path) as db:
        for b in (1, 2, 3):
            db.write_hint(b, b"payload-%d" % b)
    return path.read_bytes()


def test_hintdb_torn_record_header_is_skipped(tmp_path):
    path = tmp_path / "hints.db"
    whole = _three_record_db(path)
    path.write_bytes(whole + b"\x01\x02\x03")  # a crash three bytes into an append
    with HintDb(path, create=False) as db:
        assert db.torn_bytes == 3
        assert db.blocks() == [1, 2, 3]
        assert [db.read_hint(b) for b in (1, 2, 3)] == [b"payload-1", b"payload-2", b"payload-3"]


def test_hintdb_torn_record_payload_reads_as_absent(tmp_path):
    path = tmp_path / "hints.db"
    whole = _three_record_db(path)
    path.write_bytes(whole[:-4])  # block 3's payload cut four bytes short
    with HintDb(path, create=False) as db:
        assert db.torn_bytes == 16 + len(b"payload-3") - 4
        assert db.blocks() == [1, 2]
        assert db.read_hint(3) is None
        assert db.read_hint(2) == b"payload-2"
    assert path.read_bytes() == whole[:-4]  # a reader never writes


def test_hintdb_writer_cuts_torn_tail_before_appending(tmp_path):
    path = tmp_path / "hints.db"
    whole = _three_record_db(path)
    path.write_bytes(whole[:-4])
    with HintDb(path) as db:
        assert db.torn_bytes == 16 + len(b"payload-3") - 4
        db.write_hint(3, b"payload-3")
        db.write_hint(4, b"payload-4")
        assert db.torn_bytes == 0
    with HintDb(path, create=False) as db:
        assert db.torn_bytes == 0
        assert [db.read_hint(b) for b in (1, 2, 3, 4)] == [b"payload-%d" % b for b in (1, 2, 3, 4)]
    assert path.read_bytes()[: len(whole)] == whole


def test_hintdb_bad_header_still_raises(tmp_path):
    path = tmp_path / "hints.db"
    whole = _three_record_db(path)
    path.write_bytes(b"XDB1" + whole[4:])
    with pytest.raises(HintIntegrityError):
        HintDb(path, create=False)
    path.write_bytes(whole[:5])  # torn inside the database header
    with pytest.raises(HintIntegrityError):
        HintDb(path, create=False)


def test_digest_log_round_trip(tmp_path):
    log = DigestLog(tmp_path / "digests.bin")
    log.write(1, b"\x01" * 32)
    log.write(2, b"\x02" * 32)
    assert log.read_all() == {1: b"\x01" * 32, 2: b"\x02" * 32}


def test_digest_log_reader_creates_no_file(tmp_path):
    path = tmp_path / "nosuch.bin"
    with pytest.raises(FileNotFoundError):
        DigestLog(path).read_all()
    assert not path.exists()


def test_digest_log_writer_cuts_torn_tail_before_appending(tmp_path):
    path = tmp_path / "digests.bin"
    log = DigestLog(path)
    for b in (1, 2, 3):
        log.write(b, bytes([b]) * 32)
    path.write_bytes(path.read_bytes()[:-20])  # block 3's record, cut 20 bytes short
    log.write(4, b"\x04" * 32)
    log.write(5, b"\x05" * 32)
    assert log.read_all() == {b: bytes([b]) * 32 for b in (1, 2, 4, 5)}
    assert log.torn_bytes == 0
