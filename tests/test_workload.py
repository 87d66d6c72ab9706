from __future__ import annotations

import random

import pytest

from ira.store import Account, CostMeter, CostModel, StorageKey, StoreView, ZERO_WORD
from ira.workload import (
    Block,
    GeneratorParams,
    OpKind,
    ParameterError,
    TraceFormatError,
    Transaction,
    account_address,
    analyze_trace,
    build_store,
    collect_storage_keys,
    derive_genesis,
    execute_block,
    iter_trace,
    iter_trace_file,
    read_trace_header,
    save_trace,
    _shuffle,
)

from conftest import demo_params, generate_trace, mk_addr, mk_key, mk_word, storage_read, storage_write, trace_file_hash


class DictView:
    """In-memory state view used as an independent reference in tests."""

    def __init__(self, storage=None, accounts=None, codes=None):
        self.storage = storage or {}
        self.accounts = accounts or {}
        self.codes = codes or {}

    def get_storage(self, key):
        return self.storage.get(key, ZERO_WORD)

    def get_account(self, addr):
        return self.accounts.get(addr)

    def get_code(self, addr):
        return self.codes.get(addr)


def one_tx_block(ops, number=1, sender=None, recipient=None, beneficiary=None) -> Block:
    return Block(
        number=number,
        beneficiary=beneficiary or mk_addr(200),
        txs=[Transaction(sender or mk_addr(201), recipient or mk_addr(202), list(ops))],
    )


# -- execute_block ------------------------------------------------------------------


def test_write_then_read_observes_write():
    k = mk_key(1)
    block = one_tx_block([storage_write(k, mk_word(5)), storage_read(k)])
    result = execute_block(block, DictView())
    assert result.effects.storage == {k: mk_word(5)}


class ExplodingStorageView(DictView):
    """Proves a read was served by the overlay: asking for a storage key a
    second time is an error."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def get_storage(self, key):
        if key in self.asked:
            raise AssertionError(f"read of {key!r} fell through to the base view")
        self.asked.append(key)
        return super().get_storage(key)


def test_read_after_write_never_touches_base_view():
    # the write reads the slot's original value once, as SSTORE does; the
    # read after it is served by the overlay
    k = mk_key(1)
    block = one_tx_block([storage_write(k, mk_word(5)), storage_write(k, mk_word(6)), storage_read(k)])
    view = ExplodingStorageView()
    result = execute_block(block, view)
    assert result.effects.storage == {k: mk_word(6)}
    assert view.asked == [k]
    assert result.read_count == 1 + 1 + 3  # original value, the read, three accounts


def test_read_write_read_hand_walk():
    k = mk_key(1)
    block = one_tx_block([storage_read(k), storage_write(k, mk_word(5)), storage_read(k)], number=2)
    view = DictView(storage={k: mk_word(3)})
    result = execute_block(block, view, collect_log=True)
    assert result.effects.storage == {k: mk_word(5)}
    assert [e for e in result.access_log if e[0] == "S"] == [("S", k)] * 3
    assert result.op_count == 3
    assert result.read_count == 2 + 3  # two storage reads + sender/recipient/beneficiary


def test_cross_tx_visibility_within_block():
    k = mk_key(9)
    block = Block(
        number=1,
        beneficiary=mk_addr(200),
        txs=[
            Transaction(mk_addr(1), mk_addr(2), [storage_write(k, mk_word(77))]),
            Transaction(mk_addr(3), mk_addr(4), [storage_read(k)]),
        ],
    )
    result = execute_block(block, DictView(), collect_log=True)
    # the second tx's read does not fall back to the view: the overlay serves it
    assert result.effects.storage[k] == mk_word(77)


def test_fee_flow_updates_sender_and_beneficiary():
    sender, beneficiary = mk_addr(10), mk_addr(11)
    block = one_tx_block([storage_read(mk_key(1))], sender=sender, beneficiary=beneficiary)
    view = DictView(accounts={sender: Account(balance=100, nonce=4), beneficiary: Account(balance=1)})
    result = execute_block(block, view)
    fee = 2  # one op + 1
    assert result.effects.accounts[sender] == Account(balance=100 - fee, nonce=5)
    assert result.effects.accounts[beneficiary] == Account(balance=1 + fee)
    assert {sender, beneficiary, mk_addr(202)} <= result.account_memo.keys()


def test_effects_keep_last_write_only():
    k = mk_key(1)
    block = one_tx_block([storage_write(k, mk_word(1)), storage_write(k, mk_word(2))])
    result = execute_block(block, DictView())
    assert result.effects.storage == {k: mk_word(2)}


def test_execute_block_deterministic():
    params = demo_params()
    trace = generate_trace(params)
    store = build_store(trace, derive_genesis(params))
    block = trace[1]
    r1 = execute_block(block, StoreView(store, block.number), collect_log=True)
    r2 = execute_block(block, StoreView(store, block.number), collect_log=True)
    assert r1.effects == r2.effects
    assert r1.access_log == r2.access_log


def test_meter_charges_compute_per_op_and_hit_per_read():
    model = CostModel()
    k = mk_key(1)
    block = one_tx_block([storage_write(k, mk_word(5)), storage_read(k)])
    meter = CostMeter(model)
    result = execute_block(block, DictView(), meter)
    assert meter.compute == result.op_count * model.c_compute
    assert meter.hit == result.read_count * model.c_hit
    assert meter.io == 0


# -- generator ----------------------------------------------------------------------


def test_generator_rejects_reuse_below_one():
    with pytest.raises(ParameterError):
        GeneratorParams(intra_block_reuse_factor=0.5)


def test_generator_fixture_reuse_and_unique_keys():
    k = mk_key(1)
    block = one_tx_block([storage_write(k, mk_word(1)), storage_read(k)])
    report = analyze_trace([block])
    assert report.intra_block_reuse == 2.0
    assert report.unique_keys_global == 1
    assert report.ephemeral_fraction == 1.0


@pytest.mark.parametrize("seed", range(8))
def test_shuffle_matches_random_shuffle(seed):
    # the generator's inlined shuffle must give random.shuffle's order and
    # leave the generator in its state, at every size, so traces stay the same
    sizes = [*range(0, 70), 127, 128, 129, 1023, 1024, 1025, 4097]
    for n in sizes:
        ours, theirs = random.Random(seed * 7919 + n), random.Random(seed * 7919 + n)
        a, b = list(range(n)), list(range(n))
        _shuffle(ours, a)
        theirs.shuffle(b)
        assert a == b, n
        assert ours.getstate() == theirs.getstate(), n


def test_generator_same_seed_same_trace(tmp_path):
    params = GeneratorParams(blocks=20, seed=99)
    p1, p2 = tmp_path / "a.trace", tmp_path / "b.trace"
    save_trace(p1, params, iter_trace(params))
    save_trace(p2, params, iter_trace(params))
    assert trace_file_hash(p1) == trace_file_hash(p2)


def test_generator_different_seed_different_trace(tmp_path):
    a = GeneratorParams(blocks=10, seed=1)
    b = GeneratorParams(blocks=10, seed=2)
    pa, pb = tmp_path / "a.trace", tmp_path / "b.trace"
    save_trace(pa, a, iter_trace(a))
    save_trace(pb, b, iter_trace(b))
    assert trace_file_hash(pa) != trace_file_hash(pb)


def test_generator_txs_per_block_mean_tracks_param():
    params = GeneratorParams(blocks=60, txs_per_block_mean=238.0, seed=5)
    trace = generate_trace(params)
    mean_txs = sum(len(b.txs) for b in trace) / len(trace)
    assert abs(mean_txs - 238.0) < 15.0


def test_generator_block_numbers_strictly_increasing():
    trace = generate_trace(GeneratorParams(blocks=25, seed=3))
    numbers = [b.number for b in trace]
    assert numbers == list(range(1, 26))


def test_generator_statistics_near_targets_small_scale():
    params = GeneratorParams(blocks=300, unique_keys_median=120, seed=12)
    report = analyze_trace(iter_trace(params))
    assert abs(report.intra_block_reuse - params.intra_block_reuse_factor) / params.intra_block_reuse_factor < 0.10
    assert abs(report.ephemeral_fraction - params.ephemeral_key_fraction) < 0.05


# -- analyze ------------------------------------------------------------------------


def test_analyze_disjoint_blocks_have_zero_overlap():
    b1 = one_tx_block([storage_read(mk_key(1))], number=1)
    b2 = one_tx_block([storage_read(mk_key(2))], number=2)
    report = analyze_trace([b1, b2])
    assert report.consecutive_overlap_mean == 0.0


def test_analyze_concentration_curve_monotone_to_one():
    trace = generate_trace(GeneratorParams(blocks=50, unique_keys_median=60, seed=8))
    report = analyze_trace(trace)
    shares = [s for _, s in report.concentration]
    assert all(a <= b + 1e-12 for a, b in zip(shares, shares[1:]))
    assert shares[-1] == pytest.approx(1.0)


def test_analyze_empty_trace_rejected():
    with pytest.raises(ParameterError):
        analyze_trace([])


# -- trace files --------------------------------------------------------------------


def test_trace_file_round_trip(tmp_path):
    params = GeneratorParams(blocks=12, seed=21)
    path = tmp_path / "t.trace"
    blocks = generate_trace(params)
    save_trace(path, params, blocks)
    with open(path, "rb") as f:
        loaded_params, count = read_trace_header(f)
    assert count == 12
    assert loaded_params == params
    loaded = list(iter_trace_file(path))
    assert len(loaded) == len(blocks)
    for a, b in zip(blocks, loaded):
        assert a.number == b.number
        assert a.beneficiary == b.beneficiary
        assert len(a.txs) == len(b.txs)
        for ta, tb in zip(a.txs, b.txs):
            assert (ta.sender, ta.recipient) == (tb.sender, tb.recipient)
            assert ta.ops == tb.ops


def _one_block_trace(path):
    """A trace of one block whose last op is a storage write (kind, key, value)."""
    tx = Transaction(mk_addr(1), mk_addr(2), [storage_read(mk_key(1)), storage_write(mk_key(2), mk_word(5))])
    save_trace(path, demo_params(blocks=1), [Block(1, mk_addr(9), [tx])])


def _rewrite_record(path, edit):
    """Replace the only record's payload with ``edit(payload)``, fixing its size."""
    data = path.read_bytes()
    start = 18 + int.from_bytes(data[6:10], "little")  # magic, version, params, count
    size = int.from_bytes(data[start : start + 4], "little")
    payload = edit(data[start + 4 : start + 4 + size])
    path.write_bytes(data[:start] + len(payload).to_bytes(4, "little") + payload)


# cut inside the value, right after the kind byte, and at the op boundary
@pytest.mark.parametrize("cut", [10, 84, 85])
def test_trace_record_truncated_inside_op_is_format_error(tmp_path, cut):
    path = tmp_path / "t.trace"
    _one_block_trace(path)
    _rewrite_record(path, lambda payload: payload[:-cut])
    with pytest.raises(TraceFormatError):
        list(iter_trace_file(path))


def test_trace_record_with_trailing_bytes_is_format_error(tmp_path):
    path = tmp_path / "t.trace"
    _one_block_trace(path)
    _rewrite_record(path, lambda payload: payload + b"\x00\x00")
    with pytest.raises(TraceFormatError):
        list(iter_trace_file(path))


def test_trace_record_with_unknown_op_kind_is_format_error(tmp_path):
    path = tmp_path / "t.trace"
    _one_block_trace(path)
    first_op = 8 + 20 + 4 + 20 + 20 + 4  # number, beneficiary, tx count, sender, recipient, op count
    _rewrite_record(path, lambda payload: payload[:first_op] + b"\x09" + payload[first_op + 1 :])
    with pytest.raises(TraceFormatError, match="unknown op kind 9"):
        list(iter_trace_file(path))


def test_trace_decode_interns_storage_keys_across_blocks(tmp_path):
    params = demo_params(blocks=4)
    path = tmp_path / "t.trace"
    save_trace(path, params, generate_trace(params))
    seen = {}
    for block in iter_trace_file(path):
        for tx in block.txs:
            for kind, key, _ in tx.ops:
                if kind <= OpKind.STORAGE_WRITE:
                    assert type(key) is StorageKey and len(key) == 52
                assert seen.setdefault(key, key) is key
    assert seen


def test_decoded_ops_are_plain_tuples(tmp_path):
    params = demo_params(blocks=4)
    path = tmp_path / "t.trace"
    save_trace(path, params, generate_trace(params))
    kinds = set()
    for block in iter_trace_file(path):
        for tx in block.txs:
            for op in tx.ops:
                assert type(op) is tuple and len(op) == 3
                kind, key, value = op
                assert type(kind) is int
                kinds.add(kind)
                if kind <= OpKind.STORAGE_WRITE:
                    assert type(key) is StorageKey and len(key) == 52
                else:
                    assert type(key) is bytes and len(key) == 20
                if kind == OpKind.STORAGE_WRITE:
                    assert type(value) is bytes and len(value) == 32
                else:
                    assert value is None
    assert kinds == set(OpKind)


# the generator shapes of the benchmark's workloads
_SHAPES = {
    "default": {},
    "plain_read": {
        "intra_block_reuse_factor": 4.0,
        "ephemeral_key_fraction": 1.0,
        "hot_key_share": 0.0,
        "reads_only": True,
        "accounts_per_block": 0.0,
        "codes_per_block": 0.0,
        "seed_trace_keys": True,
    },
    "hot_write": {"ephemeral_key_fraction": 0.2, "hot_key_share": 0.5, "read_write_ratio": 1.0, "pair_gap_mean": 2.0},
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_trace_file_round_trip_gives_back_the_generated_ops(tmp_path, rng, shape):
    for _ in range(2):
        params = GeneratorParams(blocks=rng.randrange(1, 4), seed=rng.randrange(1 << 30), **_SHAPES[shape])
        path = tmp_path / "t.trace"
        blocks = generate_trace(params)
        assert save_trace(path, params, blocks) == params.blocks

        def flat(blocks):
            return [(b.number, b.beneficiary, [(tx.sender, tx.recipient, tx.ops) for tx in b.txs]) for b in blocks]

        assert flat(iter_trace_file(path)) == flat(blocks)


def test_build_store_applies_all_blocks():
    params = demo_params()
    trace = generate_trace(params)
    store = build_store(trace, derive_genesis(params))
    assert store.head_block == params.blocks
    assert collect_storage_keys(trace) <= set(store.storage.plain) | {
        k for cs in store.storage.changesets.values() for k in cs
    } | {k for b in trace for tx in b.txs for kind, k, _ in tx.ops if kind == OpKind.STORAGE_READ}


def test_build_store_effects_depend_on_account_state():
    # two senders with different starting nonces produce different digests
    params = demo_params()
    trace = generate_trace(params)
    g1 = derive_genesis(params)
    g2 = derive_genesis(params)
    some_addr = account_address(0)
    g2.accounts[some_addr] = Account(balance=999, nonce=42)
    s1 = build_store(trace, g1)
    s2 = build_store(trace, g2)
    assert s1.accounts.plain != s2.accounts.plain
