from __future__ import annotations

import hashlib
import math
import random
import struct

import pytest

from ira.protocol import (
    BloomFilter,
    CompletenessError,
    DecodeError,
    LinkModel,
    benefit_check,
    decode_hint,
    encode_hint,
    generic_generate,
    generic_replay,
    read_op,
    simulate_transmission,
    write_op,
)

from conftest import execute_direct, hint_member


def random_batch(rng: random.Random, universe, n_ops=40, write_fraction=0.3):
    batch = []
    for _ in range(n_ops):
        key = universe[rng.randrange(len(universe))]
        if rng.random() < write_fraction:
            batch.append(write_op(key, bytes([rng.randrange(256)])))
        else:
            batch.append(read_op(key))
    return batch


# -- generate -----------------------------------------------------------------------


def test_generate_collects_reads_and_writes():
    store = {b"x": b"0"}
    access = generic_generate([read_op(b"x"), write_op(b"y", b"1")], store)
    assert access == {b"x", b"y"}
    assert store == {b"x": b"0", b"y": b"1"}


def test_generate_empty_batch():
    store = {}
    assert generic_generate([], store) == set() and store == {}


def test_generate_duplicate_reads_set_semantics():
    assert generic_generate([read_op(b"x"), read_op(b"x")], {}) == {b"x"}


def test_op_validation():
    with pytest.raises(ValueError):
        read_op(b"")
    with pytest.raises(ValueError):
        write_op(b"k", None)  # type: ignore[arg-type]


# -- encodings ----------------------------------------------------------------------


def test_exact_round_trip():
    rng = random.Random(1)
    keys = {bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 30))) for _ in range(50)}
    hint = encode_hint(keys, "exact")
    assert decode_hint("exact", hint.payload).keys == keys


def test_prefix_round_trip_and_smaller_with_shared_prefixes():
    prefix = bytes(range(16))
    keys = {prefix + i.to_bytes(16, "big") for i in range(100)}
    exact = encode_hint(keys, "exact")
    pfx = encode_hint(keys, "prefix")
    assert decode_hint("prefix", pfx.payload).keys == keys
    assert pfx.size() < exact.size()


def test_bloom_no_false_negatives():
    rng = random.Random(2)
    keys = {bytes(rng.getrandbits(8) for _ in range(20)) for _ in range(500)}
    hint = encode_hint(keys, "bloom", target_fpr=0.01)
    view = decode_hint("bloom", hint.payload)
    assert all(hint_member(view, k) for k in keys)


def test_bloom_measured_fpr_within_bound():
    rng = random.Random(3)
    keys = {b"member:%06d" % i for i in range(2000)}
    hint = encode_hint(keys, "bloom", target_fpr=0.01)
    view = decode_hint("bloom", hint.payload)
    held_out = [b"outsider:%06d" % i for i in range(20000)]
    fp = sum(1 for k in held_out if hint_member(view, k))
    assert fp / len(held_out) <= 0.02


def test_bloom_sizing_formulas():
    bf = BloomFilter(1000, 0.01)
    expect_bits = math.ceil(-1000 * math.log(0.01) / math.log(2) ** 2)
    assert bf.m_bits == expect_bits
    assert bf.k_hashes == round(bf.m_bits / 1000 * math.log(2))


def _reference_bloom(keys, target_fpr):
    """The bloom hint payload, rebuilt from the formulas alone: SHA-256 of
    the key, h1 and h2 | 1 from its bytes 0-8 and 8-16 (big-endian), probe i
    at bit (h1 + i*h2) % m, stored LSB-first in byte bit >> 3."""
    n = max(1, len(keys))
    m = max(8, math.ceil(-n * math.log(target_fpr) / math.log(2) ** 2))
    k = max(1, round(m / n * math.log(2)))

    def probes(key):
        digest = hashlib.sha256(key).digest()
        h1 = int.from_bytes(digest[0:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1
        return [(h1 + i * h2) % m for i in range(k)]

    bits = bytearray((m + 7) // 8)
    for key in keys:
        for idx in probes(key):
            bits[idx >> 3] |= 1 << (idx & 7)

    def member(key):
        return all(bits[idx >> 3] >> (idx & 7) & 1 for idx in probes(key))

    return struct.pack("<Q", m) + bytes((k,)) + bytes(bits), member


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bloom_payload_and_membership_match_reference(seed):
    rng = random.Random(seed)
    pool = [rng.randbytes(rng.randrange(1, 40)) for _ in range(600)]
    outsiders = [rng.randbytes(rng.randrange(1, 40)) for _ in range(600)]
    # the same keys go into filters of different widths, and are tested
    # against each of them: a key's probe base is shared, its bits are not
    for target_fpr in (0.5, 0.1, 0.01, 1e-4, 1e-9):
        for n_keys in (1, 7, 60, 300):
            keys = rng.sample(pool, n_keys)
            payload, member = _reference_bloom(sorted(set(keys)), target_fpr)
            hint = encode_hint(keys, "bloom", target_fpr=target_fpr)
            assert hint.payload == payload
            view = decode_hint("bloom", hint.payload)
            for key in pool[:200] + outsiders[:200]:
                assert hint_member(view, key) == member(key)


def test_bloom_refuses_zero_width_payload():
    payload = struct.pack("<Q", 0) + b"\x03"
    with pytest.raises(DecodeError):
        decode_hint("bloom", payload)
    hint = encode_hint([b"k"], "bloom")
    hint = hint._replace(payload=payload)
    with pytest.raises(DecodeError):
        generic_replay([read_op(b"k")], hint, {b"k": b"v"})


def test_bloom_refuses_more_probes_than_a_hint_holds():
    assert BloomFilter(1, 2e-77).k_hashes == 255  # the one byte the payload stores it in
    with pytest.raises(ValueError, match="256 probes"):
        BloomFilter(1, 1e-77)
    with pytest.raises(ValueError):
        encode_hint([b"a", b"b"], "bloom", target_fpr=1e-80)


def test_range_membership_boundaries():
    # a range hint covers exactly [min, max] of its keys
    k1, k2 = b"aaa", b"mmm"
    hint = encode_hint([k2, b"ggg", k1], "range")
    view = decode_hint("range", hint.payload)
    assert hint_member(view, k1)
    assert hint_member(view, b"ccc")
    assert hint_member(view, k2)
    assert not hint_member(view, k2 + b"\x00")  # successor of the interval end
    assert not hint_member(view, b"a")
    assert view.member.intervals == [(k1, k2)]
    assert decode_hint("range", encode_hint([], "range").payload).member.intervals == []


def test_decode_rejects_garbage():
    with pytest.raises(DecodeError):
        decode_hint("exact", b"\xff")
    with pytest.raises(DecodeError):
        decode_hint("bloom", b"\x00")


# -- replay safety ---------------------------------------------------------------------


@pytest.mark.parametrize("encoding", ["exact", "prefix", "bloom", "range"])
def test_replay_matches_direct_execution_all_encodings(encoding):
    rng = random.Random(7)
    universe = [b"key:%04d" % i for i in range(120)]
    base = {k: b"v0" for k in universe}
    for trial in range(200):
        batch = random_batch(rng, universe)
        primary, backup, direct = dict(base), dict(base), dict(base)
        access = generic_generate(batch, primary)
        hint = encode_hint(access, encoding, target_fpr=0.01)
        stats = generic_replay(batch, hint, backup, candidates=universe)
        execute_direct(batch, direct)
        assert backup == direct == primary
        assert stats.extra_prefetches >= 0


def test_exact_replay_zero_extra_prefetches():
    universe = [b"key:%02d" % i for i in range(10)]
    batch = [read_op(universe[0]), write_op(universe[1], b"x")]
    primary = {k: b"0" for k in universe}
    backup = {k: b"0" for k in universe}
    access = generic_generate(batch, primary)
    stats = generic_replay(batch, encode_hint(access, "exact"), backup)
    assert stats.extra_prefetches == 0
    assert stats.prefetched == len(access)


def test_bloom_replay_prefetches_superset():
    rng = random.Random(9)
    universe = [b"key:%04d" % i for i in range(500)]
    batch = random_batch(rng, universe, n_ops=30)
    primary = {k: b"0" for k in universe}
    backup = {k: b"0" for k in universe}
    access = generic_generate(batch, primary)
    hint = encode_hint(access, "bloom", target_fpr=0.05)
    stats = generic_replay(batch, hint, backup, candidates=universe)
    assert stats.prefetched >= len(access)


def test_incomplete_exact_hint_raises_completeness_error():
    batch = [read_op(b"a"), read_op(b"b")]
    backup = {b"a": b"1", b"b": b"2"}
    bad_hint = encode_hint({b"a"}, "exact")
    with pytest.raises(CompletenessError):
        generic_replay(batch, bad_hint, backup)


# -- benefit check -----------------------------------------------------------------------


def test_benefit_zero_bytes_always_wins():
    assert benefit_check(0, 1.0, 1e-9, 1)


def test_benefit_boundary_is_strict():
    # cost exactly equals saving: not beneficial
    assert not benefit_check(100, 10.0, 10.0, 1)


def test_benefit_default_scenario():
    # 47 KB hint on a 1 Gbit/s link vs a 10 ms replay saving, one backup
    assert benefit_check(47_000, 125_000_000, 0.010, 1)


def test_benefit_requires_positive_bandwidth():
    with pytest.raises(ValueError):
        benefit_check(1, 0.0, 1.0, 1)


# -- transmission -----------------------------------------------------------------------


def test_inline_delivers_together():
    link = LinkModel(latency=0.001, bandwidth=1e6)
    t = simulate_transmission("inline", 1000, 9000, link)
    assert t.hint_ready == t.batch_ready == pytest.approx(0.001 + 10000 / 1e6)


def test_sideband_opens_prefetch_window():
    link = LinkModel(latency=0.001, bandwidth=1e6)
    t = simulate_transmission("sideband", 1000, 99000, link)
    assert t.hint_ready < t.batch_ready
    assert t.prefetch_window == pytest.approx((99000 - 1000) / 1e6)


def test_sideband_loss_drops_hint():
    link = LinkModel(latency=0.001, bandwidth=1e6, loss_probability=1.0, seed=4)
    t = simulate_transmission("sideband", 1000, 9000, link)
    assert t.hint_ready is None
    assert t.batch_ready > 0


def test_on_demand_below_threshold_never_ships():
    link = LinkModel()
    t = simulate_transmission("on_demand", 1000, 9000, link, miss_rate=0.01, miss_rate_threshold=0.05)
    assert t.hint_ready is None


def test_on_demand_above_threshold_pays_round_trip():
    link = LinkModel(latency=0.002, bandwidth=1e6)
    t = simulate_transmission("on_demand", 1000, 9000, link, miss_rate=0.5, miss_rate_threshold=0.05)
    assert t.hint_ready == pytest.approx(t.batch_ready + 0.002 + 0.002 + 1000 / 1e6)


@pytest.mark.parametrize("encoding", ["exact", "range"])
def test_every_cut_of_a_length_prefixed_hint_is_truncated(encoding):
    # exact keeps every key, range the least and the greatest: both are
    # length-prefixed strings after a u32 count
    payload = encode_hint([b"abc", b"de", b"xyz"], encoding).payload
    for cut in range(len(payload)):
        with pytest.raises(DecodeError) as err:
            decode_hint(encoding, payload[:cut])
        assert str(err.value) == f"{encoding} hint truncated", cut
    with pytest.raises(DecodeError) as err:
        decode_hint(encoding, payload + b"\x00")
    assert str(err.value) == f"{encoding} hint has trailing bytes"


def test_length_prefixed_hints_are_pinned():
    assert encode_hint([b"de", b"abc", b"xyz"], "exact").payload == b"\x03\x00\x00\x00\x03\x00abc\x02\x00de\x03\x00xyz"
    assert encode_hint([b"de", b"abc", b"xyz"], "range").payload == b"\x01\x00\x00\x00\x03\x00abc\x03\x00xyz"
    assert encode_hint([], "exact").payload == encode_hint([], "range").payload == b"\x00\x00\x00\x00"
    assert decode_hint("exact", encode_hint([b"de", b"abc"], "exact").payload).keys == {b"abc", b"de"}
    member = decode_hint("range", encode_hint([b"de", b"abc"], "range").payload).member
    assert member(b"b") and member(b"de") and not member(b"e")
