"""Command-line front end tying the pipeline together.

Subcommands: gen-trace, build-store, run-primary, run-baseline, run-backup,
compare, cachesim, proto, analyze. gen-trace writes a trace and build-store a
store directory. run-primary, run-baseline, run-backup, compare and proto each
write a CSV report plus a ``.meta.json`` sidecar, all through one writer,
``_write_report``; each command keeps its report's header beside its row
tuple. The sidecars of the three ``run-*`` reports share the keys that
``_run_meta`` builds (the config hash, the cost-model hash and snapshot, the
row count), and ``compare`` refuses to join reports whose hashes disagree.
cachesim and analyze print their results. A command that reads the config
gets it from ``config.load_config``, checked in every section.

Each command imports the ``ira`` modules it runs when it runs. At load time
this module takes only the error classes of the package itself, so a
command does not pay to load the rest: compare loads no other module,
``cachesim --trace-file`` only the cache simulator, and proto only the
protocol.

Exit codes: 0 ok, 2 config, input or output error, 3 completeness
violation (replay touched a key outside its hint), 4 digest mismatch.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence

from . import ConfigError, IraError

if TYPE_CHECKING:
    from .config import Config
    from .store import ArchivalStore

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPLETENESS = 3
EXIT_DIGEST = 4


def _out(args: argparse.Namespace, path: str) -> Path:
    """Resolve an output path under --out-dir (inputs are never rewritten)."""
    p = Path(path)
    if args.out_dir and not p.is_absolute():
        base = Path(args.out_dir)
        base.mkdir(parents=True, exist_ok=True)
        return base / p
    return p


def _write_report(path: Path, header: Sequence[str], rows: Iterable[Sequence], meta: Dict) -> None:
    """Write a CSV report, its header first, and ``meta`` as its sidecar."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    with open(path.with_suffix(path.suffix + ".meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def _run_meta(command: str, cfg: Config, store: ArchivalStore, rows: int, **fields) -> Dict:
    """The sidecar of a ``run-*`` report: the keys the three share, then
    ``fields``."""
    from .config import content_hash

    return {
        "subcommand": command,
        "config_hash": content_hash(cfg.raw),
        "cost_model_hash": content_hash(cfg.raw["cost_model"]),
        "cost_model": store.cost_model._asdict(),
        "rows": rows,
        **fields,
    }


def cmd_gen_trace(args: argparse.Namespace) -> int:
    from . import workload as workload_mod
    from .config import content_hash, load_config

    params = load_config(args.config).generator
    if args.seed is not None:
        params = params._replace(seed=args.seed)
    out = _out(args, args.out)
    count = workload_mod.save_trace(out, params, workload_mod.iter_trace(params))
    print(f"gen-trace: wrote {count} blocks to {out} (params hash {content_hash(params._asdict())[:12]})")
    return EXIT_OK


def cmd_build_store(args: argparse.Namespace) -> int:
    from . import workload as workload_mod
    from .config import load_config

    model = load_config(args.config).cost_model
    trace_path = Path(args.trace)
    with open(trace_path, "rb") as f:
        params, count = workload_mod.read_trace_header(f)
    storage_keys = None
    if params.seed_trace_keys:
        storage_keys = workload_mod.collect_storage_keys(workload_mod.iter_trace_file(trace_path))
    genesis = workload_mod.derive_genesis(params, storage_keys)
    store = workload_mod.build_store(workload_mod.iter_trace_file(trace_path), genesis, model)
    store.save(_out(args, args.out))
    print(f"build-store: applied {count} blocks, head={store.head_block}, saved to {args.out}")
    return EXIT_OK


def _load_store(args: argparse.Namespace, cfg: Config) -> ArchivalStore:
    """Load ``--store``. Its costs come from the model in its manifest, so a
    config naming another model would label reports with costs they were not
    computed under."""
    from .store import ArchivalStore

    store = ArchivalStore.load(Path(args.store))
    if cfg.cost_model != store.cost_model:
        raise ConfigError(
            f"config cost model {cfg.cost_model._asdict()} differs from the store's {store.cost_model._asdict()}"
        )
    return store


def cmd_run_baseline(args: argparse.Namespace) -> int:
    from . import backup as backup_mod
    from .config import load_config
    from .workload import iter_trace_file

    cfg = load_config(args.config)
    store = _load_store(args, cfg)
    metrics = backup_mod.run_baseline(iter_trace_file(Path(args.trace)), store, cfg.baseline_cache)
    _write_report(
        _out(args, args.report),
        ("block", "t_baseline", "ops", "reads", "io_cost", "digest"),
        [(r.block, r.t_baseline, r.ops, r.reads, r.io_cost, r.digest.hex()) for r in metrics.rows],
        _run_meta(
            "run-baseline", cfg, store, len(metrics.rows),
            total_cost=metrics.total_cost, io_fraction=round(metrics.io_fraction, 6),
        ),
    )
    print(
        f"run-baseline: {len(metrics.rows)} blocks, total cost {metrics.total_cost}, "
        f"io fraction {metrics.io_fraction:.4f}"
    )
    return EXIT_OK


def _undo_appends(path: Path, torn_bytes: int) -> Callable[[], None]:
    """A function that puts the file at ``path`` back as it is now, after
    appends to it: cut back to its present length, with its torn tail of
    ``torn_bytes`` (which an append cuts off first) written back. A file that
    does not exist now is deleted."""
    if not path.exists():
        return lambda: path.unlink(missing_ok=True)
    keep = path.stat().st_size - torn_bytes
    with open(path, "rb") as f:
        f.seek(keep)
        tail = f.read()

    def undo() -> None:
        with open(path, "r+b") as f:
            f.truncate(keep)
            f.seek(keep)
            f.write(tail)

    return undo


def cmd_run_primary(args: argparse.Namespace) -> int:
    from .config import load_config
    from .primary import DigestLog, HintDb, run_primary
    from .workload import iter_trace_file, trace_block_numbers

    cfg = load_config(args.config)
    trace_path = Path(args.trace)
    hints_path = _out(args, args.hints_out)
    digests_path = _out(args, args.digests_out) if args.digests_out else None
    # One hint and one digest per block: refuse before any output is touched
    # if the hint database, else the digest log, already holds a block of the
    # trace, naming the first such block in trace order.
    held = []
    hints_torn = 0
    if hints_path.exists():
        with HintDb(hints_path, create=False) as db:
            held.append((hints_path, "hint", set(db.blocks())))
            hints_torn = db.torn_bytes
    digest_log = None
    if digests_path is not None:
        digest_log = DigestLog(digests_path)
        if digests_path.exists():
            held.append((digests_path, "digest", digest_log.read_all()))
    for path, what, blocks in held:
        clash = next((b for b in trace_block_numbers(trace_path) if b in blocks), None)
        if clash is not None:
            print(f"run-primary: {path} already holds a {what} for block {clash}", file=sys.stderr)
            return EXIT_CONFIG
    store = _load_store(args, cfg)
    report = _out(args, args.report)
    # A run that fails, on a bad trace record, an unwritable output or in a
    # hint's deflate, puts both logs back as it found them, so that a rerun
    # is not refused as a clash, and removes its report.
    undo = [_undo_appends(hints_path, hints_torn)]
    if digest_log is not None:
        undo.append(_undo_appends(digests_path, digest_log.torn_bytes))
    hint_db = None
    rows = []
    # every write below stays on this thread, in block order
    results = run_primary(iter_trace_file(trace_path), store)
    try:
        hint_db = HintDb(hints_path)
        undo.append(lambda: report.unlink(missing_ok=True))
        for result in results:
            b = result.block_number
            hint_db.write_hint(b, result.compressed_bytes)
            if digest_log is not None:
                digest_log.write(b, result.digest)
            rows.append(
                (b, result.exec_cost, result.hint_construct_cost, result.serialize_cost,
                 len(result.raw_bytes), len(result.compressed_bytes))
            )
        hint_db.close()
        _write_report(
            report,
            ("block", "exec_cost", "hint_construct_cost", "serialize_cost", "raw_bytes", "compressed_bytes"),
            rows,
            _run_meta("run-primary", cfg, store, len(rows), **_primary_overheads(rows)),
        )
    except BaseException:
        results.close()  # joins the deflate worker
        if hint_db is not None:
            hint_db.close()  # before the undo cuts its file
        for restore in undo:
            restore()
        raise
    print(f"run-primary: {len(rows)} blocks, hints -> {args.hints_out}")
    return EXIT_OK


def _primary_overheads(rows: Sequence[tuple]) -> Dict[str, float]:
    """The primary's hint cost over its execution cost, from the report's
    rows: the direct construct cost (``hint_cost_share``); construct plus
    serialize when each hint is built after its block runs
    (``sequential_overhead``); and the extra wall when block ``b``'s hint is
    built while block ``b + 1`` runs (``pipelined_overhead``)."""
    exec_total = hint_end = 0  # the virtual clock: blocks run back to back
    for row in rows:
        exec_total += row[1]
        hint_end = max(exec_total, hint_end) + row[2] + row[3]
    construct_total = sum(row[2] for row in rows)
    serialize_total = sum(row[3] for row in rows)

    def share(cost: int) -> float:
        return round(cost / exec_total, 6) if exec_total else 0.0

    return {
        "hint_cost_share": share(construct_total),
        "sequential_overhead": share(construct_total + serialize_total),
        "pipelined_overhead": share(hint_end - exec_total),
    }


def cmd_run_backup(args: argparse.Namespace) -> int:
    from . import backup as backup_mod
    from .config import load_config
    from .primary import DigestLog, HintDb
    from .workload import iter_trace_file

    cfg = load_config(args.config)
    # read before any output is written: a missing log is a missing input
    expected = None
    if args.digests:
        digest_log = DigestLog(Path(args.digests))
        expected = digest_log.read_all()
        if digest_log.torn_bytes:
            # a crash mid-append; the torn block's digest is not checked
            print(f"run-backup: ignoring a torn tail of {digest_log.torn_bytes} bytes in {args.digests}", file=sys.stderr)
    store = _load_store(args, cfg)
    hint_db = HintDb(Path(args.hints), create=False) if args.hints else None
    if hint_db is not None and hint_db.torn_bytes:
        # a crash mid-append; the torn block falls back like a missing hint
        print(f"run-backup: ignoring a torn tail of {hint_db.torn_bytes} bytes in {args.hints}", file=sys.stderr)
    try:
        metrics = backup_mod.pipeline_run(iter_trace_file(Path(args.trace)), store, hint_db, cfg.pipeline)
    except backup_mod.CacheMissError as exc:
        print(f"run-backup: completeness violation: {exc}", file=sys.stderr)
        return EXIT_COMPLETENESS
    finally:
        if hint_db is not None:
            hint_db.close()
    _write_report(
        _out(args, args.report),
        ("block", "t_wait", "t_exec", "prefetch_cost", "hint_raw_bytes", "hint_compressed_bytes", "fallback", "digest"),
        [
            (r.block, r.t_wait, r.t_exec, r.prefetch_cost, r.hint_raw_bytes, r.hint_compressed_bytes,
             int(r.fallback), r.digest.hex())
            for r in metrics.rows
        ],
        _run_meta(
            "run-backup", cfg, store, len(metrics.rows),
            wall_cost=metrics.wall_cost,
            prefetch_total=metrics.prefetch_total,
            prefetch_by_route=metrics.prefetch_by_route,
            exec_total=metrics.exec_total,
            wait_total=metrics.wait_total,
            fallback_blocks=metrics.fallback_blocks,
            corrupt_hints=metrics.corrupt_hints,
            workers=cfg.pipeline.workers,
        ),
    )
    print(
        f"run-backup: {len(metrics.rows)} blocks, wall {metrics.wall_cost}, "
        f"prefetch {metrics.prefetch_total}, exec {metrics.exec_total}, "
        f"wait {metrics.wait_total}, workers {cfg.pipeline.workers}, "
        f"fallbacks {metrics.fallback_blocks}"
    )
    if expected is not None:
        checked = 0
        for row in metrics.rows:
            want = expected.get(row.block)
            if want is None:
                continue
            if want != row.digest:
                print(f"run-backup: digest mismatch at block {row.block}", file=sys.stderr)
                return EXIT_DIGEST
            checked += 1
        if not checked:
            print(f"run-backup: no replayed block has a digest in {args.digests}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"run-backup: digests of {checked} of {len(metrics.rows)} blocks verified against {args.digests}")
    return EXIT_OK


def cmd_cachesim(args: argparse.Namespace) -> int:
    from . import cachesim as cachesim_mod

    if args.trace_file:
        keys: List[str] = []
        try:
            with open(args.trace_file, "r", encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if line:
                        keys.append(line)
        except UnicodeDecodeError as exc:
            print(f"cachesim: {args.trace_file}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        trace: Sequence = keys
    elif args.trace and args.block is not None:
        from . import workload as workload_mod

        sim_block = next((b for b in workload_mod.iter_trace_file(Path(args.trace)) if b.number == args.block), None)
        if sim_block is None:
            print(f"cachesim: block {args.block} not in trace", file=sys.stderr)
            return EXIT_CONFIG
        # hex keys, the form of a --trace-file list, so --init entries compare
        # with them; hex keeps byte order, so Belady's tie-break is unchanged
        domain = args.domain
        log = workload_mod.access_log(sim_block)
        trace = [key.hex() for tag, key in log if domain == "all" or tag == domain[0].upper()]
    else:
        print("cachesim: need --trace-file, or --trace with --block", file=sys.stderr)
        return EXIT_CONFIG

    init = args.init.split(",") if args.init else None
    try:
        if args.policy == "both":
            table = cachesim_mod.compare_policies(trace, args.capacity, init)
        elif args.policy == "lru":
            res = cachesim_mod.simulate_lru(trace, args.capacity, init)
        else:
            res = cachesim_mod.simulate_belady(trace, args.capacity, init)
    except ValueError as exc:  # capacity below 1, or --init larger than it
        print(f"cachesim: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.policy == "both":
        print(f"accesses            {table['accesses']}")
        print(f"lru_misses          {table['lru_misses']}")
        print(f"belady_misses       {table['belady_misses']}")
        ratio = table["miss_ratio_lru_over_belady"]
        print(f"lru_over_belady     {ratio if ratio != float('inf') else 'inf'}")
    else:
        print(f"{args.policy}: {res.misses} misses, {res.hits} hits")
    return EXIT_OK


def cmd_proto(args: argparse.Namespace) -> int:
    import random as _random

    from . import protocol as protocol_mod

    try:
        with open(args.scenario, "r", encoding="utf-8") as f:
            scenario = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        print(f"proto: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(scenario, dict):
        raise ConfigError("proto scenario must be a JSON object")
    try:
        sc = protocol_mod.Scenario(**scenario)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"proto scenario: {exc}") from None

    link = sc.link()
    rng = _random.Random(link.seed)
    # the sideband's losses draw from their own stream, so a lossy link sends
    # the same batches as a lossless one
    loss_rng = _random.Random(link.seed)
    key_space, write_fraction = sc.key_space, sc.write_fraction
    universe = [b"key:%06d" % i for i in range(key_space)]
    primary = dict.fromkeys(universe, b"v0")
    backup_store = dict(primary)

    out_rows = []
    for i in range(sc.batches):
        batch = []
        for _ in range(sc.ops_per_batch):
            key = universe[int(rng.random() * key_space)]
            if rng.random() < write_fraction:
                batch.append(protocol_mod.write_op(key, b"v%d" % i))
            else:
                batch.append(protocol_mod.read_op(key))
        access = protocol_mod.generic_generate(batch, primary)
        hint = protocol_mod.encode_hint(access, sc.encoding, target_fpr=sc.target_fpr)
        stats = protocol_mod.generic_replay(batch, hint, backup_store, candidates=universe)
        timeline = protocol_mod.simulate_transmission(
            sc.strategy, hint.size(), sc.batch_bytes, link, rng=loss_rng,
            miss_rate=sc.miss_rate, miss_rate_threshold=sc.miss_rate_threshold,
        )
        ok = protocol_mod.benefit_check(hint.size(), link.bandwidth, sc.latency_reduction, sc.backups)
        out_rows.append(
            (
                i,
                sc.encoding,
                sc.strategy,
                hint.size(),
                stats.prefetched,
                stats.extra_prefetches,
                "" if timeline.hint_ready is None else f"{timeline.hint_ready:.9f}",
                f"{timeline.batch_ready:.9f}",
                f"{timeline.prefetch_window:.9f}",
                int(ok),
            )
        )

    match = primary == backup_store
    _write_report(
        _out(args, args.report),
        ("batch", "encoding", "strategy", "hint_bytes", "prefetched", "extra_prefetches",
         "hint_ready", "batch_ready", "prefetch_window", "beneficial"),
        out_rows,
        {"subcommand": "proto", "scenario": scenario, "states_match": match},
    )
    verdict = "beneficial" if all(row[-1] for row in out_rows) else "not-always-beneficial"
    print(f"proto: {sc.batches} batches, states_match={match}, hint transmission {verdict}")
    return EXIT_OK if match else EXIT_DIGEST


def _sidecar_for(report_path: Path) -> Dict:
    """The sidecar of a report; a sidecar that is not a JSON object raises
    ValueError naming the file."""
    side = report_path.with_suffix(report_path.suffix + ".meta.json")
    try:
        with open(side, "r", encoding="utf-8") as f:
            meta = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"missing report sidecar: {side}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{side}: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{side}: sidecar must be a JSON object, got {type(meta).__name__}")
    return meta


def _report_rows(path: Path, columns: Sequence[str]) -> List[Dict]:
    """The rows of a report CSV with ``block`` and ``columns`` as integers and
    ``digest`` as text (empty if absent); a report that is not one raises
    ValueError naming the file."""
    rows = []
    try:
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                rows.append({"digest": row.get("digest") or "", **{c: int(row[c]) for c in ("block", *columns)}})
    except KeyError as exc:
        raise ValueError(f"{path}: no column {exc}") from None
    except (TypeError, ValueError, csv.Error) as exc:  # a short row, a cell not an integer, not text
        raise ValueError(f"{path}: {exc}") from None
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    base_path = Path(args.baseline)
    back_path = Path(args.backup)
    try:
        base_meta = _sidecar_for(base_path)
        back_meta = _sidecar_for(back_path)
        for key in ("config_hash", "cost_model_hash"):
            if base_meta.get(key) != back_meta.get(key):
                print(f"compare: refusing to join reports with different {key}", file=sys.stderr)
                return EXIT_CONFIG
        baseline = {row["block"]: row for row in _report_rows(base_path, ("t_baseline",))}
        backup = _report_rows(back_path, ("t_wait", "t_exec"))
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows = []
    speedups = []
    digests_match = True
    total_baseline = wait_all = exec_all = blocks_with_wait = 0
    for row in backup:
        block = row["block"]
        base = baseline.get(block)
        if base is None:
            print(f"compare: block {block} missing from baseline report", file=sys.stderr)
            return EXIT_CONFIG
        t_baseline, t_wait, t_exec = base["t_baseline"], row["t_wait"], row["t_exec"]
        denom = t_wait + t_exec
        speedup = t_baseline / denom if denom else float("inf")
        if base["digest"] and row["digest"] and base["digest"] != row["digest"]:
            digests_match = False
        rows.append((block, t_baseline, t_wait, t_exec, repr(speedup)))
        speedups.append(speedup)
        total_baseline += t_baseline
        wait_all += t_wait
        exec_all += t_exec
        blocks_with_wait += t_wait > 0

    speedups.sort()
    n = len(speedups)

    def pct(q: float) -> float:
        if not speedups:
            return 0.0
        idx = min(n - 1, max(0, int(q * n)))
        return speedups[idx]

    wall_all = wait_all + exec_all or 1
    aggregate = total_baseline / wall_all

    summary = {
        "blocks": n,
        "speedup_median": pct(0.50),
        "speedup_p90": pct(0.90),
        "speedup_p99": pct(0.99),
        "aggregate_speedup": aggregate,
        "blocks_with_wait": blocks_with_wait,
        "wait_share_of_wall": wait_all / wall_all,
        "digests_match": digests_match,
    }
    _write_report(
        _out(args, args.out),
        ("block", "t_baseline", "t_wait", "t_exec", "speedup"),
        rows,
        {**base_meta | back_meta, "subcommand": "compare", "summary": summary},
    )
    print(
        f"compare: {n} blocks, median speedup {summary['speedup_median']:.2f}x, "
        f"P90 {summary['speedup_p90']:.2f}x, P99 {summary['speedup_p99']:.2f}x, "
        f"aggregate {aggregate:.2f}x, wait share {summary['wait_share_of_wall']:.3f}, "
        f"digests_match={digests_match}"
    )
    return EXIT_OK if digests_match else EXIT_DIGEST


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import workload as workload_mod

    per_block: Optional[List[Dict[str, int]]] = [] if args.per_block else None
    try:
        report = workload_mod.analyze_trace(workload_mod.iter_trace_file(Path(args.trace)), per_block)
    except workload_mod.ParameterError as exc:  # a trace of no blocks
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for key, value in report.to_flat().items():
        print(f"{key}={value}")
    if args.per_block:
        out = _out(args, args.per_block)
        with open(out, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=["block", "txs", "storage_ops", "unique_keys"])
            writer.writeheader()
            writer.writerows(per_block or [])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ira", description="hint-based replay pipeline")
    parser.add_argument("--config", type=Path, default=None, help="JSON run config (defaults apply otherwise)")
    parser.add_argument("--seed", type=int, default=None, help="override the generator seed")
    parser.add_argument("--out-dir", default=None, help="directory for output files (created if missing)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="generate a synthetic block trace")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("build-store", help="build the archival store from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_store)

    p = sub.add_parser("run-baseline", help="unhinted replay with a cross-block LRU")
    p.add_argument("--trace", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_run_baseline)

    p = sub.add_parser("run-primary", help="instrumented execution producing hints")
    p.add_argument("--trace", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--hints-out", required=True)
    p.add_argument("--digests-out", default=None)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_run_primary)

    p = sub.add_parser("run-backup", help="hinted pipelined replay")
    p.add_argument("--trace", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--hints", default=None, help="hint database (omit to force fallback)")
    p.add_argument("--digests", default=None, help="verify against a primary digest log")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_run_backup)

    p = sub.add_parser("analyze", help="workload statistics of a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--per-block", default=None, help="also write per-block stats CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cachesim", help="LRU vs optimal replacement on an access trace")
    p.add_argument("--trace-file", default=None, help="text file, one key per line")
    p.add_argument("--trace", default=None, help="binary block trace")
    p.add_argument("--block", type=int, default=None, help="block number inside --trace")
    p.add_argument("--domain", choices=["storage", "account", "code", "all"], default="storage")
    p.add_argument("--capacity", type=int, required=True)
    p.add_argument("--policy", choices=["lru", "belady", "both"], default="both")
    p.add_argument("--init", default=None, help="comma-separated warm cache contents; hex keys for --trace/--block")
    p.set_defaults(func=cmd_cachesim)

    p = sub.add_parser("proto", help="generalized protocol scenario")
    p.add_argument("--scenario", required=True, help="JSON scenario description")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_proto)

    p = sub.add_parser("compare", help="join baseline and backup reports")
    p.add_argument("--baseline", required=True)
    p.add_argument("--backup", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every command builds an acyclic heap (store tables, trace ops, hints,
    # block caches) that reference counting frees on its own; the cyclic
    # collector's full passes would only rescan it. tests/test_cli.py checks
    # that no command's cyclic garbage grows with the trace.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except IraError as exc:  # config, store, trace, hint database, completeness
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # e.g. an output path that is a directory
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if gc_was_enabled:
            gc.enable()


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
