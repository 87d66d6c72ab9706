"""Offline cache-policy simulator: LRU and future-knowledge-optimal (MIN).

Keys are opaque: anything hashable and mutually comparable works. Eviction
decisions are fully deterministic; when several cached keys are equally good
eviction candidates under the optimal policy, the largest key in sort order is
evicted so the eviction log is reproducible.

For N accesses at capacity C, LRU costs O(N), and MIN O(N log C) plus one
sort of the distinct keys. LRU keeps the cache in an ``OrderedDict`` in
recency order, so a hit and an eviction are O(1). MIN (Belady 1966) keeps a
heap of ``(-next_use, -rank, key)``, where ``rank`` is the key's index in the
sorted set of all keys: the heap's smallest entry is the cached key used
furthest in the future, and among equals (for instance every never-again key,
at ``inf``) the largest key. Every access pushes a fresh entry; an entry whose
``next_use`` no longer matches the cache is stale and is skipped when it
surfaces (lazy deletion), and the heap is rebuilt from the live entries
whenever it grows past twice the capacity.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

_INF = float("inf")


class SimResult(NamedTuple):
    misses: int
    hits: int
    eviction_log: List[Tuple[int, Hashable]]

    @property
    def accesses(self) -> int:
        return self.misses + self.hits


def _check_capacity(capacity: int) -> None:
    if capacity < 1:
        raise ValueError("cache capacity must be >= 1")


def simulate_lru(
    trace: Sequence[Hashable],
    capacity: int,
    init: Optional[Iterable[Hashable]] = None,
) -> SimResult:
    """Least-recently-used simulation; ``init`` pre-warms the cache in order
    (the first init entry is the least recently used)."""
    _check_capacity(capacity)
    cache: "OrderedDict[Hashable, None]" = OrderedDict()
    for key in init or ():
        cache[key] = None
        cache.move_to_end(key)  # a repeated init key takes its later position
    if len(cache) > capacity:
        raise ValueError("initial contents exceed capacity")

    log: List[Tuple[int, Hashable]] = []
    misses = 0
    for step, key in enumerate(trace):
        if key in cache:
            cache.move_to_end(key)
        else:
            misses += 1
            if len(cache) >= capacity:
                log.append((step, cache.popitem(last=False)[0]))
            cache[key] = None
    return SimResult(misses, len(trace) - misses, log)


def _next_use_indices(trace: Sequence[Hashable]) -> List[float]:
    """next_use[i] = index of the next access to trace[i] after i, or inf."""
    next_use: List[float] = [0.0] * len(trace)
    last_seen: Dict[Hashable, int] = {}
    for i in range(len(trace) - 1, -1, -1):
        key = trace[i]
        next_use[i] = last_seen.get(key, _INF)
        last_seen[key] = i
    return next_use


def simulate_belady(
    trace: Sequence[Hashable],
    capacity: int,
    init: Optional[Iterable[Hashable]] = None,
) -> SimResult:
    """Optimal offline replacement: on eviction, drop the cached key whose next
    access is furthest in the future (never-again keys count as infinitely far;
    ties evict the largest key)."""
    _check_capacity(capacity)
    next_use = _next_use_indices(trace)
    first_use: Dict[Hashable, float] = {}
    for i in range(len(trace) - 1, -1, -1):
        first_use[trace[i]] = i

    cache: Dict[Hashable, float] = {}
    for key in init or ():
        cache[key] = first_use.get(key, _INF)
    if len(cache) > capacity:
        raise ValueError("initial contents exceed capacity")

    # heap of (-next_use, -rank, key): the smallest live entry is the victim
    rank = {key: i for i, key in enumerate(sorted(first_use.keys() | cache.keys()))}

    def live_heap() -> List[Tuple[float, int, Hashable]]:
        heap = [(-nxt, -rank[key], key) for key, nxt in cache.items()]
        heapq.heapify(heap)
        return heap

    heap = live_heap()
    push, pop = heapq.heappush, heapq.heappop

    log: List[Tuple[int, Hashable]] = []
    misses = 0
    for step, key in enumerate(trace):
        if key not in cache:
            misses += 1
            if len(cache) >= capacity:
                while True:
                    neg_nxt, _, victim = pop(heap)
                    if cache.get(victim) == -neg_nxt:
                        break
                del cache[victim]
                log.append((step, victim))
        nxt = next_use[step]
        cache[key] = nxt
        push(heap, (-nxt, -rank[key], key))
        if len(heap) > 2 * capacity + 64:
            heap = live_heap()  # drop stale entries: the heap stays O(C)
    return SimResult(misses, len(trace) - misses, log)


def compare_policies(
    trace: Sequence[Hashable],
    capacity: int,
    init: Optional[Iterable[Hashable]] = None,
) -> Dict[str, object]:
    """Run LRU and the optimal policy on the same trace; report miss counts."""
    lru = simulate_lru(trace, capacity, init)
    opt = simulate_belady(trace, capacity, init)
    return {
        "accesses": len(trace),
        "lru_misses": lru.misses,
        "belady_misses": opt.misses,
        "miss_ratio_lru_over_belady": (lru.misses / opt.misses) if opt.misses else _INF,
    }
