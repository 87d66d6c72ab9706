"""Hint-based replay over a versioned key-value store, with a deterministic
simulated I/O cost model.

A primary engine executes blocks while recording exactly which state they
touch, ships that access set (plus per-key read-source bytes) as a compact
hint, and a backup engine uses the hints to prefetch everything a block needs
before replaying it from a crash-on-miss cache. Companion modules provide the
archival store, a synthetic workload generator, an LRU-vs-optimal cache
simulator, and a generalized form of the protocol over abstract keys.
"""

from .store import (
    Account,
    ArchivalStore,
    CostMeter,
    CostModel,
    DEFAULT_COST_MODEL,
    Effects,
    StorageKey,
    StoreView,
    ZERO_WORD,
)
from .workload import (
    Block,
    GeneratorParams,
    Op,
    OpKind,
    Transaction,
    analyze_trace,
    build_store,
    derive_genesis,
    execute_block,
    generate_trace,
    iter_trace,
)
from .primary import Hint, HintDb, Source, run_primary_block, state_change_hash
from .backup import (
    BlockCache,
    CacheMissError,
    PipelineConfig,
    PrefetchPlan,
    pipeline_run,
    plan_prefetch,
    prefetch,
    replay_block,
    run_baseline,
)
from .cachesim import brute_force_optimal, compare_policies, simulate_belady, simulate_lru

__version__ = "0.1.0"
