from __future__ import annotations

import random

import pytest

from ira.cachesim import (
    SimResult,
    _next_use_indices,
    compare_policies,
    simulate_belady,
    simulate_lru,
)

from conftest import brute_force_optimal


def test_motivating_example_lru_two_misses():
    result = simulate_lru(["C", "A", "C"], capacity=2, init=["A", "B"])
    assert result.misses == 2
    # LRU evicts A first (inserted before B, never touched since)
    assert result.eviction_log[0] == (0, "A")


def test_motivating_example_belady_one_miss_evicts_b():
    result = simulate_belady(["C", "A", "C"], capacity=2, init=["A", "B"])
    assert result.misses == 1
    assert result.eviction_log == [(0, "B")]


def test_motivating_example_brute_force_is_one():
    assert brute_force_optimal(["C", "A", "C"], capacity=2, init=["A", "B"]) == 1


def test_single_repeated_key_capacity_one():
    result = simulate_lru(["x"] * 5, capacity=1)
    assert (result.misses, result.hits) == (1, 4)
    result = simulate_belady(["x"] * 5, capacity=1)
    assert (result.misses, result.hits) == (1, 4)


def test_capacity_at_least_alphabet_gives_compulsory_misses_only():
    trace = ["a", "b", "c", "a", "b", "c", "a"]
    for sim in (simulate_lru, simulate_belady):
        result = sim(trace, capacity=3)
        assert result.misses == 3
        assert result.eviction_log == []


def test_distinct_keys_only_no_policy_helps():
    trace = [f"k{i}" for i in range(8)]
    assert simulate_belady(trace, capacity=3).misses == 8


def test_thrash_unavoidable_at_capacity_one():
    assert brute_force_optimal(["A", "B", "A", "B"], capacity=1) == 4
    assert simulate_belady(["A", "B", "A", "B"], capacity=1).misses == 4


def test_single_access_is_compulsory_miss():
    assert brute_force_optimal(["A"], capacity=2) == 1


def test_capacity_zero_rejected():
    with pytest.raises(ValueError):
        simulate_lru(["a"], 0)
    with pytest.raises(ValueError):
        simulate_belady(["a"], 0)
    with pytest.raises(ValueError):
        brute_force_optimal(["a"], 0)


def test_brute_force_refuses_long_traces():
    with pytest.raises(ValueError):
        brute_force_optimal(list("ab") * 8, capacity=2)


def test_belady_equals_brute_force_randomized():
    rng = random.Random(42)
    alphabet = list("abcdef")
    for _ in range(400):
        trace = [alphabet[rng.randrange(len(alphabet))] for _ in range(rng.randrange(1, 13))]
        cap = rng.randrange(1, 5)
        assert simulate_belady(trace, cap).misses == brute_force_optimal(trace, cap)


def test_belady_never_worse_than_lru_randomized():
    rng = random.Random(43)
    alphabet = [f"k{i}" for i in range(8)]
    for _ in range(500):
        trace = [alphabet[rng.randrange(len(alphabet))] for _ in range(rng.randrange(1, 40))]
        cap = rng.randrange(1, 6)
        assert simulate_belady(trace, cap).misses <= simulate_lru(trace, cap).misses


def test_belady_misses_non_increasing_in_capacity():
    rng = random.Random(44)
    alphabet = list("abcdefgh")
    for _ in range(100):
        trace = [alphabet[rng.randrange(len(alphabet))] for _ in range(30)]
        misses = [simulate_belady(trace, cap).misses for cap in range(1, 9)]
        assert all(a >= b for a, b in zip(misses, misses[1:]))


def test_eviction_ties_break_toward_largest_key():
    # both x and y are never used again: the larger key is evicted
    result = simulate_belady(["z"], capacity=2, init=["x", "y"])
    assert result.eviction_log == [(0, "y")]


def test_compare_policies_table():
    table = compare_policies(["C", "A", "C"], capacity=2, init=["A", "B"])
    assert table["lru_misses"] == 2
    assert table["belady_misses"] == 1
    assert table["miss_ratio_lru_over_belady"] == 2.0


def test_hits_plus_misses_equals_trace_length():
    rng = random.Random(45)
    trace = [rng.randrange(6) for _ in range(50)]
    for sim in (simulate_lru, simulate_belady):
        result = sim(trace, capacity=3)
        assert result.hits + result.misses == len(trace)


# -- equivalence with the O(N*C) reference simulators --------------------------
#
# The reference loops below are the straightforward O(N*C) simulators: each
# miss scans the whole cache for the victim. They are a test oracle only; the
# fast simulators must reproduce their misses, hits and eviction logs exactly.


def _reference_lru(trace, capacity, init=None):
    recency = {}
    clock = 0
    for key in init or ():
        recency[key] = clock
        clock += 1
    hits = misses = 0
    log = []
    for step, key in enumerate(trace):
        if key in recency:
            hits += 1
        else:
            misses += 1
            if len(recency) >= capacity:
                victim = min(recency, key=lambda k: recency[k])
                del recency[victim]
                log.append((step, victim))
        recency[key] = clock
        clock += 1
    return SimResult(misses, hits, log)


def _reference_belady(trace, capacity, init=None):
    next_use = _next_use_indices(trace)
    first_use = {}
    for i in range(len(trace) - 1, -1, -1):
        first_use[trace[i]] = i
    cache = {key: first_use.get(key, float("inf")) for key in init or ()}
    hits = misses = 0
    log = []
    for step, key in enumerate(trace):
        if key in cache:
            hits += 1
        else:
            misses += 1
            if len(cache) >= capacity:
                victim = max(cache.items(), key=lambda kv: (kv[1], kv[0]))[0]
                del cache[victim]
                log.append((step, victim))
        cache[key] = next_use[step]
    return SimResult(misses, hits, log)


def _assert_same_as_reference(trace, capacity, init=None):
    for fast, slow in ((simulate_lru, _reference_lru), (simulate_belady, _reference_belady)):
        got = fast(trace, capacity, init)
        want = slow(trace, capacity, init)
        assert (got.misses, got.hits, got.eviction_log) == (want.misses, want.hits, want.eviction_log), (
            fast.__name__,
            trace,
            capacity,
            init,
        )


def test_fast_simulators_match_reference_randomized():
    rng = random.Random(46)
    for _ in range(2500):
        alphabet = [f"k{i:02d}" for i in range(rng.randrange(1, 12))]
        strangers = ["y0", "y1", "y2"]  # warm keys the trace never touches
        trace = [rng.choice(alphabet) for _ in range(rng.randrange(0, 60))]
        capacity = rng.choice([1, rng.randrange(1, 6), len(alphabet), len(alphabet) + rng.randrange(1, 4)])
        init = [rng.choice(alphabet + strangers) for _ in range(rng.randrange(0, capacity + 3))]
        if len(set(init)) > capacity:
            init = init[:capacity]  # keeps repeats, so some inits hold duplicates
        _assert_same_as_reference(trace, capacity, init)


def test_fast_simulators_match_reference_duplicate_init():
    rng = random.Random(47)
    for _ in range(2000):
        alphabet = list("abcdefg")
        trace = [rng.choice(alphabet) for _ in range(rng.randrange(1, 40))]
        capacity = rng.randrange(2, 6)
        distinct = rng.sample(alphabet + ["x", "y"], rng.randrange(1, capacity + 1))
        init = distinct + [rng.choice(distinct) for _ in range(rng.randrange(1, 5))]
        rng.shuffle(init)
        _assert_same_as_reference(trace, capacity, init)


def test_fast_simulators_match_reference_capacity_one():
    rng = random.Random(48)
    for _ in range(2000):
        alphabet = list("abcd")[: rng.randrange(1, 5)]
        trace = [rng.choice(alphabet) for _ in range(rng.randrange(0, 30))]
        init = [rng.choice(alphabet + ["z"])] if rng.random() < 0.5 else None
        _assert_same_as_reference(trace, 1, init)


def test_fast_simulators_match_reference_never_again_ties():
    # mostly one-shot keys: many cached keys tie at next use = inf
    rng = random.Random(49)
    for case in range(2000):
        hot = [f"h{i}" for i in range(3)]
        trace = [rng.choice(hot) if rng.random() < 0.3 else f"c{case}-{i:03d}" for i in range(rng.randrange(1, 50))]
        capacity = rng.randrange(1, 8)
        init = rng.sample(hot + ["w0", "w1", "w2"], rng.randrange(0, min(capacity, 6) + 1))
        _assert_same_as_reference(trace, capacity, init)


def test_fast_simulators_match_reference_benchmark_sized():
    # 5,000 accesses at capacity 500 on 52-byte keys written as hex, with a
    # skewed hot set and a long tail of cold keys
    rng = random.Random(50)
    keys = [f"{rng.getrandbits(416):0104x}" for _ in range(2500)]
    trace = [keys[min(int(rng.paretovariate(0.8)) - 1, 2499)] if rng.random() < 0.6 else rng.choice(keys) for _ in range(5000)]
    _assert_same_as_reference(trace, 500)
    _assert_same_as_reference(trace, 500, keys[:500])
