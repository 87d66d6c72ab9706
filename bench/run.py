"""Benchmark of the ``ira`` CLI: per-stage host throughput and simulated replay speedup.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload default --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --workload hot_write --seed 3 --seconds 1 --trace 1 --smoke

One parent process runs one ``ira`` child process at a time, with no threads:
a closed loop with one client. A cycle is every stage once, on inputs of its
own: gen-trace and build-store (the set-up), run-primary, run-baseline,
run-backup with ``--digests``, compare, cachesim and proto. Cycle ``i`` of
seed ``s`` generates with seed ``s * 1000 + i``. Cycles repeat until
``--seconds`` is used up, and at least three times. Each stage is timed from
outside, from spawn to exit, with peak RSS from ``os.wait4``. With
``--trace 1`` cycle 0 runs once more through ``launch.py`` with every layer
wrapped, and the per-layer metrics come from it. The last line of standard
output is one JSON object. README.md describes the workloads, seeds and checks.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from layers import REPLAY_STAGES, STAGES, StageTrace, per_layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAUNCHER = BENCH_DIR / "launch.py"

RUN_DEADLINE_S = 170.0  # every run must end within 180 s
MIN_CYCLES = 3  # the deterministic metrics pool cycles 0-2, so every run has them
REFERENCE_PROBE_S = 0.17  # SPEED_PROBE's wall on a quiet 2-core machine
SPEED_PROBE = """
import hashlib, random
keys = [hashlib.sha256(i.to_bytes(4, "big")).digest() + bytes(20) for i in range(60_000)]
random.Random(0).shuffle(keys)
table = {k: i for i, k in enumerate(keys)}
total = sum(table[k] for k in reversed(keys))
"""
SETUP_STAGES = ("gen-trace", "build-store")

# Generator overrides per workload; README.md says why each exists.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "default": {},
    # plain_read_params() as of the commit that added this benchmark
    "plain_read": {
        "intra_block_reuse_factor": 4.0,
        "ephemeral_key_fraction": 1.0,
        "hot_key_share": 0.0,
        "reads_only": True,
        "accounts_per_block": 0.0,
        "codes_per_block": 0.0,
        "seed_trace_keys": True,
    },
    "hot_write": {
        "ephemeral_key_fraction": 0.2,
        "hot_key_share": 0.5,
        "read_write_ratio": 1.0,
        "pair_gap_mean": 2.0,
    },
}


@dataclass(frozen=True)
class Size:
    """How much work one cycle does."""

    blocks: int
    pipeline: Dict[str, int]
    generator: Dict[str, object] = field(default_factory=dict)
    cachesim_accesses: int = 8000
    cachesim_capacity: int = 500
    proto_batches: int = 40
    proto_ops: int = 100
    proto_keys: int = 1000


# two pipeline batches per cycle: a warm-up batch, then a steady-state batch
# that goes through the bounded channel
FULL = Size(blocks=16, pipeline={"batch_size": 8, "warmup_blocks": 8})

# demo size: every stage and every check in seconds
SMOKE = Size(
    blocks=8,
    pipeline={"batch_size": 4, "channel_capacity": 8, "warmup_blocks": 4},
    generator={"txs_per_block_mean": 8, "unique_keys_median": 120, "n_accounts": 500, "hot_keys": 64},
    cachesim_accesses=600,
    cachesim_capacity=50,
    proto_batches=4,
    proto_ops=20,
    proto_keys=100,
)


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, failed set-up)."""


@dataclass
class StageRun:
    rc: int
    wall: float
    rss_mb: float
    spawned: float
    log: Path
    probe_before: float = 0.0  # walls of the speed probes run around the stage
    probe_after: float = 0.0

    @property
    def scaled_wall(self) -> float:
        """The wall on a machine where the probe takes REFERENCE_PROBE_S."""
        probes = [p for p in (self.probe_before, self.probe_after) if p]
        return self.wall * REFERENCE_PROBE_S / statistics.mean(probes) if probes else self.wall


class Runner:
    """Runs one child at a time and kills it when the run's deadline passes.

    Between measured stages it times SPEED_PROBE in a child of its own: a
    fixed job, independent of ``ira``, that starts an interpreter and fills
    fresh memory with dict entries on 52-byte keys, as the stages do. On a
    shared machine the two slow down together (README.md). Each probe is the
    one after the previous stage and the one before the next."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.pid: Optional[int] = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.last: Optional[StageRun] = None  # the stage waiting for its probe_after
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, _signum, _frame) -> None:
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def _spawn(self, argv: List[str], out, timeout: float):
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=subprocess.STDOUT)
        self.pid = proc.pid
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.pid = None
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, time.monotonic() - spawned, usage, spawned

    def probe(self) -> float:
        wall = self._spawn([sys.executable, "-c", SPEED_PROBE], subprocess.DEVNULL, RUN_DEADLINE_S)[1]
        if self.last is not None:
            self.last.probe_after = wall
            self.last = None
        return wall

    def run(self, ira_args: List[str], log: Path, spans: str = "-", with_probe: bool = True) -> StageRun:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            log.write_text("not started: run deadline reached\n")
            return StageRun(-1, 0.0, 0.0, 0.0, log)
        probe_wall = self.probe() if with_probe else 0.0
        with open(log, "w", encoding="utf-8") as out:
            rc, wall, usage, spawned = self._spawn([sys.executable, str(LAUNCHER), spans, *ira_args], out, remaining)
        r = StageRun(rc, wall, usage.ru_maxrss / 1024.0, spawned, log, probe_wall)
        self.last = r if with_probe else None
        return r


# -- inputs ------------------------------------------------------------------


def write_config(work: Path, workload: str, size: Size) -> Dict[str, object]:
    generator = {**size.generator, **WORKLOADS[workload], "blocks": size.blocks}
    config = {"generator": generator, "pipeline": size.pipeline}
    (work / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return config


def write_scenario(d: Path, seed: int, size: Size, generator: Dict[str, object]) -> None:
    """The proto scenario, with the workload's write share."""
    ratio = float(generator.get("read_write_ratio", 7.0))
    scenario = {
        "batches": size.proto_batches,
        "ops_per_batch": size.proto_ops,
        "key_space": size.proto_keys,
        "write_fraction": 0.0 if generator.get("reads_only") else 1.0 / (1.0 + ratio),
        "encoding": "bloom",
        "seed": seed,
    }
    (d / "scenario.json").write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n")


def write_key_list(trace: Path, out: Path, accesses: int) -> None:
    """The first ``accesses`` storage accesses of the trace, one hex key per
    line, from ``execute_block(..., collect_log=True)`` over a zero view.

    ``ira cachesim --trace/--block`` would do the same but fails on an
    undeclared option; see README.md."""
    from ira.workload import execute_block, iter_trace_file

    class ZeroView:
        def get_storage(self, key):
            return b"\x00" * 32

        def get_account(self, address):
            return None

        def get_code(self, address):
            return None

    keys: List[str] = []
    for block in iter_trace_file(trace):
        log = execute_block(block, ZeroView(), collect_log=True).access_log
        keys.extend(key.hex() for tag, key in log if tag == "S")
        if len(keys) >= accesses:
            break
    out.write_text("".join(k + "\n" for k in keys[:accesses]))


def tree_digest(paths: List[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def source_facts() -> Dict[str, object]:
    h = hashlib.sha256()
    lines = 0
    for f in sorted(SRC.rglob("*.py")):
        data = f.read_bytes()
        h.update(str(f.relative_to(SRC)).encode())
        h.update(data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": h.hexdigest()}


# -- stages ------------------------------------------------------------------


def cycle_args(d: str, seed: int, capacity: int) -> Dict[str, List[str]]:
    """Every stage of one cycle, in order; inputs and outputs are under ``d``."""
    cfg = ["--config", "config.json"]
    trace, store, hints, digests = f"{d}/trace.bin", f"{d}/store", f"{d}/hints.db", f"{d}/digests.bin"
    return {
        "gen-trace": cfg + ["--seed", str(seed), "gen-trace", "--out", trace],
        "build-store": cfg + ["build-store", "--trace", trace, "--out", store],
        "run-primary": cfg + ["run-primary", "--trace", trace, "--store", store, "--hints-out", hints,
                              "--digests-out", digests, "--report", f"{d}/primary.csv"],
        "run-baseline": cfg + ["run-baseline", "--trace", trace, "--store", store, "--report", f"{d}/baseline.csv"],
        "run-backup": cfg + ["run-backup", "--trace", trace, "--store", store, "--hints", hints,
                             "--digests", digests, "--report", f"{d}/backup.csv"],
        "compare": ["compare", "--baseline", f"{d}/baseline.csv", "--backup", f"{d}/backup.csv", "--out", f"{d}/compare.csv"],
        "cachesim": ["cachesim", "--trace-file", f"{d}/keys.txt", "--capacity", str(capacity), "--policy", "both"],
        "proto": ["proto", "--scenario", f"{d}/scenario.json", "--report", f"{d}/proto.csv"],
    }


def run_cycle(runner: Runner, d: Path, seed: int, size: Size, generator: Dict[str, object],
              spans: Optional[Path] = None) -> Dict[str, StageRun]:
    """Run one cycle in the fresh directory ``d``, traced when ``spans`` is
    given. Set-up must succeed, or there is nothing to measure."""
    fresh_dir(d)
    write_scenario(d, seed, size, generator)
    runs: Dict[str, StageRun] = {}
    for stage, ira_args in cycle_args(str(d.relative_to(runner.work)), seed, size.cachesim_capacity).items():
        if stage == "run-primary":
            write_key_list(d / "trace.bin", d / "keys.txt", size.cachesim_accesses)
        span_file = str(spans / f"{stage}.json") if spans else "-"
        runs[stage] = r = runner.run(ira_args, d / f"{stage}.log", span_file, with_probe=spans is None)
        if stage in SETUP_STAGES and r.rc != 0:
            raise BenchError(f"{stage} exited {r.rc}; see {r.log}")
    return runs


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def read_csv(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def read_meta(path: Path) -> Dict:
    return json.loads(path.with_suffix(path.suffix + ".meta.json").read_text())


# -- checks ------------------------------------------------------------------


@dataclass
class CycleCheck:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    sim: Dict[str, object] = field(default_factory=dict)
    speedups: List[float] = field(default_factory=list)


def check_cycle(c: Path, runs: Dict[str, StageRun], size: Size) -> CycleCheck:
    """Count failed blocks against blocks attempted and collect the simulated
    totals. A block fails when its backup digest differs from the primary's or
    the baseline's; a stage that exits non-zero fails every block it had."""
    from ira.primary import DigestLog

    blocks = size.blocks
    chk = CycleCheck()

    def fail(units: int, note: str) -> None:
        chk.failed += units
        chk.notes.append(note)

    for stage in REPLAY_STAGES:
        chk.attempted += blocks
        if runs[stage].rc != 0:
            fail(blocks, f"{stage} exited {runs[stage].rc}")

    # per-block digest agreement, and compare's own verdict
    chk.attempted += blocks
    try:
        primary = {b: d.hex() for b, d in DigestLog(c / "digests.bin").read_all().items()}
        baseline = {int(r["block"]): r["digest"] for r in read_csv(c / "baseline.csv")}
        backup = {int(r["block"]): r["digest"] for r in read_csv(c / "backup.csv")}
        bad = [b for b in range(1, blocks + 1) if not (backup.get(b) is not None and backup.get(b) == primary.get(b) == baseline.get(b))]
        summary = read_meta(c / "compare.csv")["summary"]
        if runs["compare"].rc != 0 or summary["digests_match"] is not True:
            fail(blocks, f"compare exited {runs['compare'].rc}, digests_match={summary['digests_match']}")
        elif bad:
            fail(len(bad), f"digest mismatch at blocks {bad[:5]}")
        chk.speedups = [float(r["speedup"]) for r in read_csv(c / "compare.csv")]
        p_rows = read_csv(c / "primary.csv")
        base_meta, back_meta = read_meta(c / "baseline.csv"), read_meta(c / "backup.csv")
        chk.sim.update(
            baseline_total=base_meta["total_cost"],
            backup_wall=back_meta["wall_cost"],
            backup_prefetch=back_meta["prefetch_total"],
            backup_exec=back_meta["exec_total"],
            backup_wait=back_meta["wait_total"],
            fallback_blocks=back_meta["fallback_blocks"],
            corrupt_hints=back_meta["corrupt_hints"],
            hint_raw_bytes=sum(int(r["raw_bytes"]) for r in p_rows),
            hint_stored_bytes=sum(int(r["compressed_bytes"]) for r in p_rows),
            **hint_route_counts(c / "hints.db"),
        )
    except (OSError, KeyError, ValueError) as exc:
        fail(blocks, f"replay outputs unreadable: {exc!r}")

    chk.attempted += 1
    try:
        table = dict(line.split(None, 1) for line in runs["cachesim"].log.read_text().splitlines() if line.strip())
        accesses, lru, belady = (int(table[k]) for k in ("accesses", "lru_misses", "belady_misses"))
        chk.sim.update(cachesim_accesses=accesses, cachesim_lru_misses=lru, cachesim_belady_misses=belady)
        if runs["cachesim"].rc != 0 or accesses != size.cachesim_accesses or belady > lru:
            fail(1, f"cachesim rc={runs['cachesim'].rc} accesses={accesses} lru={lru} belady={belady}")
    except (OSError, KeyError, ValueError) as exc:
        fail(1, f"cachesim output unreadable: {exc!r}")

    chk.attempted += 1
    try:
        rows = read_csv(c / "proto.csv")
        chk.sim.update(
            proto_hint_bytes=sum(int(r["hint_bytes"]) for r in rows),
            proto_prefetched=sum(int(r["prefetched"]) for r in rows),
            proto_extra_prefetches=sum(int(r["extra_prefetches"]) for r in rows),
        )
        if runs["proto"].rc != 0 or read_meta(c / "proto.csv")["states_match"] is not True:
            fail(1, f"proto rc={runs['proto'].rc}, states_match false")
    except (OSError, KeyError, ValueError) as exc:
        fail(1, f"proto output unreadable: {exc!r}")
    return chk


def hint_route_counts(hints: Path) -> Dict[str, int]:
    """Hint entries per route, summed over every block's stored hint."""
    from ira.primary import HintDb, Source, decompress_hint, parse_hint

    counts = {f"hint_entries_{route}": 0 for route in ("plain", "zero", "changeset", "account", "code")}
    route = {Source.PLAIN: "hint_entries_plain", Source.ZERO: "hint_entries_zero",
             Source.CHANGESET: "hint_entries_changeset"}
    with HintDb(hints, create=False) as db:
        for block in db.blocks():
            hint = parse_hint(decompress_hint(db.read_hint(block)))
            for _key, src in hint.storage_entries:
                counts[route[src]] += 1
            counts["hint_entries_account"] += len(hint.accounts)
            counts["hint_entries_code"] += len(hint.codes)
    return counts


class SimRecord:
    """Simulated totals of every cycle seen in this checkout, keyed by
    workload, sizes and config, cycle seed and a hash of ``src/``."""

    def __init__(self, path: Path):
        self.path = path
        self.seen = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, sim: Dict[str, object]) -> Optional[str]:
        earlier = self.seen.setdefault(key, sim)
        diff = sorted(k for k in set(earlier) | set(sim) if earlier.get(k) != sim.get(k))
        return f"simulated totals differ from an earlier run ({key}): {diff}" if diff else None

    def save(self) -> None:
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True) + "\n")


# -- main ----------------------------------------------------------------------


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="keep starting cycles for this long (at least three run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics from a traced cycle")
    p.add_argument("--smoke", action="store_true", help="demo-size inputs: every stage and check in seconds")
    return p.parse_args(argv)


def run(args: argparse.Namespace) -> Dict[str, object]:
    if not (SRC / "ira" / "cli.py").is_file():
        raise BenchError(f"ira sources not found under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    started = time.monotonic()
    size = SMOKE if args.smoke else FULL
    blocks = size.blocks
    tag = f"{args.workload}-s{args.seed}-{'smoke' if args.smoke else 'full'}"
    work = fresh_dir(WORK / tag)
    runner = Runner(work, started + RUN_DEADLINE_S)
    config = write_config(work, args.workload, size)
    facts = source_facts()
    inputs = hashlib.sha256(repr((config, size)).encode()).hexdigest()
    key_base = f"{args.workload} inputs {inputs[:12]} src {facts['src_sha256'][:12]}"
    sims = SimRecord(WORK / "sim_totals.json")

    cycles: List[Dict[str, StageRun]] = []
    checks: List[CycleCheck] = []
    notes: List[str] = []
    while True:
        c0 = time.monotonic()
        i = len(cycles)
        c = work / "cycles" / str(i)
        runs = run_cycle(runner, c, args.seed * 1000 + i, size, config["generator"])
        chk = check_cycle(c, runs, size)
        flag = sims.check(f"{key_base} seed {args.seed * 1000 + i}", chk.sim)
        if flag:
            chk.notes.append(flag)
        if i > 0:
            shutil.rmtree(c)  # cycle 0 stays for the traced comparison
        cycles.append(runs)
        checks.append(chk)
        now = time.monotonic()
        took = now - c0
        reserve = 1.5 * took if args.trace else 0.0  # the traced cycle runs slower
        if now + took + reserve > runner.deadline:
            break
        if len(cycles) >= MIN_CYCLES and now - started + took > args.seconds:
            break
    runner.probe()  # the last stage's probe_after
    sims.save()
    if len(cycles) < MIN_CYCLES:
        notes.append(f"only {len(cycles)} cycles before the deadline")
    attempted = sum(ch.attempted for ch in checks)
    failed = sum(ch.failed for ch in checks)
    for i, ch in enumerate(checks):
        notes.extend(f"cycle {i}: {n}" for n in ch.notes)

    def stage_median(stage: str, fn) -> float:
        return statistics.median([fn(runs[stage]) for runs in cycles])

    def throughput(stage: str, units: int) -> float:
        wall = stage_median(stage, lambda r: r.scaled_wall)
        return units / wall if wall else 0.0

    # the deterministic metrics pool cycles 0 to MIN_CYCLES - 1
    pooled = checks[:MIN_CYCLES]
    sim = {key: sum(ch.sim.get(key, 0) for ch in pooled) for key in checks[0].sim}
    speedups = [s for ch in pooled for s in ch.speedups]

    untraced_walls = {stage: stage_median(stage, lambda r: r.wall) for stage in STAGES}
    traced_walls: Dict[str, float] = {}
    if args.trace:
        t = work / "traced"
        spans = fresh_dir(work / "spans")
        runs = run_cycle(runner, t, args.seed * 1000, size, config["generator"], spans)
        chk = check_cycle(t, runs, size)
        first = work / "cycles" / "0"
        for name in sorted(os.listdir(first)):
            if not name.endswith(".log") and tree_digest([first / name]) != tree_digest([t / name]):
                chk.notes.append(f"output differs from the untraced run: {name}")
        attempted += chk.attempted
        failed += chk.failed
        notes.extend(f"traced: {n}" for n in chk.notes)
        traces = {
            stage: StageTrace(json.loads((spans / f"{stage}.json").read_text()), r.spawned)
            for stage, r in runs.items()
            if r.rc == 0 and (spans / f"{stage}.json").exists()
        }
        missing = sorted(set(STAGES) - set(traces))
        if missing:
            notes.append(f"traced stages without spans: {missing}")
        traced_walls = {stage: r.wall for stage, r in runs.items()}
        metrics = per_layer_metrics(traces, chk.sim, blocks, traced_walls, untraced_walls)
    else:
        metrics = {
            "setup_s": (statistics.median([runs["gen-trace"].scaled_wall + runs["build-store"].scaled_wall for runs in cycles]), "s"),
            "primary_blocks_per_s": (throughput("run-primary", blocks), "blocks/s"),
            "baseline_blocks_per_s": (throughput("run-baseline", blocks), "blocks/s"),
            "backup_blocks_per_s": (throughput("run-backup", blocks), "blocks/s"),
            "backup_peak_rss_mb": (stage_median("run-backup", lambda r: r.rss_mb), "MB"),
            "cachesim_accesses_per_s": (throughput("cachesim", size.cachesim_accesses), "accesses/s"),
            "proto_batches_per_s": (throughput("proto", size.proto_batches), "batches/s"),
            "sim_speedup": (sim["baseline_total"] / sim["backup_wall"] if sim.get("backup_wall") else 0.0, "ratio"),
            "sim_speedup_p50": (statistics.median(speedups) if speedups else 0.0, "ratio"),
            "hint_bytes_per_block": (sim.get("hint_stored_bytes", 0) / (blocks * len(pooled)), "bytes"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "config": config,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **facts,
        "cycles": len(cycles),
        "stage_walls": {stage: [runs[stage].wall for runs in cycles] for stage in STAGES},
        "untraced_median_walls": untraced_walls,
        "probe_walls": {stage: [(runs[stage].probe_before, runs[stage].probe_after) for runs in cycles] for stage in STAGES},
        "traced_walls": traced_walls,
        "simulated_pooled": sim,
        "simulated_per_cycle": [ch.sim for ch in checks],
        "notes": notes,
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "run_s": time.monotonic() - started,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}-t{args.trace}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"ira bench: workload={record['workload']} seed={record['seed']} cycles={record['cycles']} "
          f"python={record['python']} nproc={record['nproc']} src_lines={record['src_lines']}")
    for name, value in sorted(record["simulated_pooled"].items()):
        print(f"  simulated (cycles 0-{MIN_CYCLES - 1}) {name} = {value}")
    for stage, wall in sorted(record["untraced_median_walls"].items()):
        traced = record["traced_walls"].get(stage)
        extra = f"  traced {traced:.3f} s ({traced / wall:.2f}x)" if traced else ""
        print(f"  stage {stage:<13} median {wall:.3f} s{extra}")
    for note in record["notes"]:
        print(f"  FLAG: {note}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
