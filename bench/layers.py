"""Per-layer metrics of one traced cycle, from the spans ``launch.py`` writes.

Unless its name ends in a stage, a metric sums over every stage of the traced
cycle. Times are host seconds; ``sim_*`` values are the simulated
cost units of ``ira``'s cost model.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

STAGES = ("gen-trace", "build-store", "run-primary", "run-baseline", "run-backup", "compare", "cachesim", "proto")
DECODE_STAGES = ("build-store", "run-primary", "run-baseline", "run-backup")
REPLAY_STAGES = ("run-primary", "run-baseline", "run-backup")
STORE_READ_STAGES = ("run-baseline", "run-backup")

ROUTES = ("plain", "zero", "changeset", "account", "code")

# (name, unit, better) in report order; BENCHMARK.json lists the same
PER_LAYER: List[Tuple[str, str, str]] = [
    ("workload.generate_s", "s", "lower"),
    ("workload.trace_encode_s", "s", "lower"),
    ("workload.derive_genesis_s", "s", "lower"),
    *[(f"workload.trace_decode_s.{st}", "s", "lower") for st in DECODE_STAGES],
    ("workload.execute_block_s", "s", "lower"),
    ("store.seed_genesis_s", "s", "lower"),
    ("store.apply_block_s", "s", "lower"),
    ("store.save_s", "s", "lower"),
    *[(f"store.load_s.{st}", "s", "lower") for st in REPLAY_STAGES],
    *[(f"store.read_as_of_calls.{st}", "count", "lower") for st in STORE_READ_STAGES],
    *[(f"store.read_as_of_s.{st}", "s", "lower") for st in STORE_READ_STAGES],
    ("store.account_as_of_calls", "count", "lower"),
    ("store.history_lookup_calls", "count", "lower"),
    ("primary.execute_s", "s", "lower"),
    ("primary.annotate_s", "s", "lower"),
    ("primary.serialize_s", "s", "lower"),
    ("primary.compress_s", "s", "lower"),
    ("primary.hintdb_write_s", "s", "lower"),
    ("primary.digest_s", "s", "lower"),
    ("primary.hint_raw_bytes_per_block", "bytes", "lower"),
    ("primary.compress_ratio", "ratio", "higher"),
    ("backup.baseline_lru_hit_ratio", "ratio", "higher"),
    ("backup.hintdb_open_s", "s", "lower"),
    ("backup.hint_read_s", "s", "lower"),
    ("backup.hint_decompress_s", "s", "lower"),
    ("backup.hint_parse_s", "s", "lower"),
    ("backup.plan_s", "s", "lower"),
    ("backup.prefetch_s", "s", "lower"),
    ("backup.replay_s", "s", "lower"),
    ("backup.pipeline_self_s", "s", "lower"),
    ("backup.replay_block_ms_p50", "ms", "lower"),
    ("backup.replay_block_ms_p90", "ms", "lower"),
    ("backup.replay_block_samples", "count", "higher"),
    *[(f"backup.entries_{route}", "count", "lower") for route in ROUTES],
    ("backup.sim_baseline_cost", "cost", "lower"),
    ("backup.sim_backup_wall", "cost", "lower"),
    ("backup.sim_prefetch_cost", "cost", "lower"),
    ("backup.sim_exec_cost", "cost", "lower"),
    ("backup.sim_wait_cost", "cost", "lower"),
    ("backup.sim_wait_share", "ratio", "lower"),
    ("backup.fallback_blocks", "count", "lower"),
    ("backup.corrupt_hints", "count", "lower"),
    ("cachesim.lru_s", "s", "lower"),
    ("cachesim.belady_s", "s", "lower"),
    ("cachesim.accesses", "count", "higher"),
    ("cachesim.lru_misses", "count", "lower"),
    ("cachesim.belady_misses", "count", "lower"),
    ("protocol.encode_s", "s", "lower"),
    ("protocol.replay_s", "s", "lower"),
    ("protocol.hint_bytes", "bytes", "lower"),
    ("protocol.extra_prefetch_ratio", "ratio", "lower"),
    *[(f"cli.startup_s.{st}", "s", "lower") for st in STAGES],
    *[(f"cli.self_s.{st}", "s", "lower") for st in STAGES],
    *[(f"trace_overhead.{st}", "ratio", "lower") for st in STAGES],
]


class StageTrace:
    """Spans, leaves and counts of one traced stage process."""

    def __init__(self, data: Dict = None, spawned: float = 0.0):
        data = data or {"main_start": spawned, "spans": [], "leaves": {}, "counts": {}}
        self.startup = data["main_start"] - spawned
        self.spans = data["spans"]  # (name, id, start, duration, self)
        self.leaves = data["leaves"]
        self.counts = data["counts"]

    def durations(self, name: str) -> List[float]:
        return [s[3] for s in self.spans if s[0] == name]

    def dur(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        return sum(s[4] for s in self.spans if s[0] == name)

    def calls(self, leaf: str) -> int:
        return self.leaves.get(leaf, [0, 0.0])[0]

    def leaf_s(self, leaf: str) -> float:
        return self.leaves.get(leaf, [0, 0.0])[1]

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)


def per_layer_metrics(
    traces: Dict[str, StageTrace],
    sim: Dict[str, object],
    blocks: int,
    traced_walls: Dict[str, float],
    untraced_walls: Dict[str, float],
) -> Dict[str, Tuple[float, str]]:
    """Every metric of PER_LAYER, as (value, unit). A stage without spans
    (it failed) contributes zeros; the run is then marked incorrect."""
    t = {st: traces.get(st) or StageTrace() for st in STAGES}
    everywhere = list(t.values())
    gen, build, prim, base, back = (t[s] for s in ("gen-trace", "build-store", "run-primary", "run-baseline", "run-backup"))

    replay_ms = sorted(d * 1000.0 for d in back.durations("backup.replay_block"))
    p90 = statistics.quantiles(replay_ms, n=10)[8] if len(replay_ms) > 1 else sum(replay_ms)
    lru_lookups = base.calls("BaselineView.get_storage")
    raw, stored = sim.get("hint_raw_bytes", 0), sim.get("hint_stored_bytes", 0)
    prefetched = sim.get("proto_prefetched", 0)

    v: Dict[str, float] = {
        "workload.generate_s": gen.dur("workload.iter_trace"),
        "workload.trace_encode_s": gen.self_time("workload.save_trace"),
        "workload.derive_genesis_s": build.dur("workload.derive_genesis"),
        "workload.execute_block_s": sum(x.self_time("workload.execute_block") for x in everywhere),
        "store.seed_genesis_s": build.dur("store.seed_genesis"),
        "store.apply_block_s": build.dur("store.apply_block"),
        "store.save_s": build.dur("store.save"),
        "store.account_as_of_calls": sum(x.calls("store.account_as_of") for x in everywhere),
        "store.history_lookup_calls": sum(x.count("store.history_lookup") for x in everywhere),
        "primary.execute_s": prim.dur("workload.execute_block"),
        "primary.annotate_s": prim.dur("primary.annotate_sources"),
        "primary.serialize_s": prim.dur("primary.serialize_hint"),
        "primary.compress_s": prim.dur("primary.compress_hint"),
        "primary.hintdb_write_s": prim.dur("primary.HintDb.write_hint"),
        "primary.digest_s": sum(x.dur("primary.state_change_hash") for x in everywhere),
        "primary.hint_raw_bytes_per_block": raw / blocks,
        "primary.compress_ratio": raw / stored if stored else 0.0,
        "backup.baseline_lru_hit_ratio": 1.0 - base.calls("store.read_as_of") / lru_lookups if lru_lookups else 0.0,
        "backup.hintdb_open_s": back.dur("primary.HintDb.open"),
        "backup.hint_read_s": back.dur("primary.HintDb.read_hint"),
        "backup.hint_decompress_s": back.dur("primary.decompress_hint"),
        "backup.hint_parse_s": back.dur("primary.parse_hint"),
        "backup.plan_s": back.dur("backup.plan_prefetch"),
        "backup.prefetch_s": back.dur("backup.prefetch"),
        "backup.replay_s": back.dur("backup.replay_block"),
        "backup.pipeline_self_s": back.self_time("backup.pipeline_run"),
        "backup.replay_block_ms_p50": statistics.median(replay_ms) if replay_ms else 0.0,
        "backup.replay_block_ms_p90": p90,
        "backup.replay_block_samples": len(replay_ms),
        "backup.sim_baseline_cost": sim.get("baseline_total", 0),
        "backup.sim_backup_wall": sim.get("backup_wall", 0),
        "backup.sim_prefetch_cost": sim.get("backup_prefetch", 0),
        "backup.sim_exec_cost": sim.get("backup_exec", 0),
        "backup.sim_wait_cost": sim.get("backup_wait", 0),
        "backup.sim_wait_share": sim.get("backup_wait", 0) / sim["backup_wall"] if sim.get("backup_wall") else 0.0,
        "backup.fallback_blocks": sim.get("fallback_blocks", 0),
        "backup.corrupt_hints": sim.get("corrupt_hints", 0),
        "cachesim.lru_s": t["cachesim"].dur("cachesim.simulate_lru"),
        "cachesim.belady_s": t["cachesim"].dur("cachesim.simulate_belady"),
        "cachesim.accesses": sim.get("cachesim_accesses", 0),
        "cachesim.lru_misses": sim.get("cachesim_lru_misses", 0),
        "cachesim.belady_misses": sim.get("cachesim_belady_misses", 0),
        "protocol.encode_s": t["proto"].dur("protocol.encode_hint"),
        "protocol.replay_s": t["proto"].dur("protocol.generic_replay"),
        "protocol.hint_bytes": sim.get("proto_hint_bytes", 0),
        "protocol.extra_prefetch_ratio": sim.get("proto_extra_prefetches", 0) / prefetched if prefetched else 0.0,
    }
    for st in DECODE_STAGES:
        v[f"workload.trace_decode_s.{st}"] = t[st].dur("workload.iter_trace_file")
    for st in REPLAY_STAGES:
        v[f"store.load_s.{st}"] = t[st].dur("store.load")
    for st in STORE_READ_STAGES:
        v[f"store.read_as_of_calls.{st}"] = t[st].calls("store.read_as_of")
        v[f"store.read_as_of_s.{st}"] = t[st].leaf_s("store.read_as_of")
    for route in ROUTES:
        v[f"backup.entries_{route}"] = back.count(f"backup.entries_{route}")
    for st in STAGES:
        v[f"cli.startup_s.{st}"] = t[st].startup
        v[f"cli.self_s.{st}"] = t[st].self_time("cli.main")
        untraced = untraced_walls.get(st)
        v[f"trace_overhead.{st}"] = traced_walls.get(st, 0.0) / untraced if untraced else 0.0
    return {name: (v[name], unit) for name, unit, _ in PER_LAYER}
