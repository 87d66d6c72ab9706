"""Check that two checkouts of ``ira`` write byte-identical outputs.

Usage (from the root of a checkout)::

    python3 tools/same_outputs.py PARENT CHANGE
    python3 tools/same_outputs.py PARENT CHANGE --workload default --seed 1000 --smoke

For each workload and cycle seed (default: every workload of
``bench/run.py``, seeds 1000-1002, full size), each checkout runs the cycle
that ``bench/run.py`` runs. The inputs come from its ``write_config``,
``write_scenario``, ``write_key_list`` and ``cycle_args``. Each checkout also
runs ``run-backup`` without ``--hints``, and ``cachesim --trace/--block`` on
the last block in every domain. Every stage runs on the checkout's own
``src/``, without writing bytecode into it, in a directory of its own whose
relative paths are the same on both sides. The tool then compares every
file that either side wrote, and each stage's exit code, stdout and stderr.
It prints each difference, and each stage that exited non-zero (every stage
of these cycles should succeed, so identical failures are no proof). It
exits 1 if there is any of either, 0 if there is none, and 2 on bad
arguments.

Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SEEDS = (1000, 1001, 1002)
DOMAINS = ("storage", "account", "code", "all")
IRA_MAIN = "import sys; from ira.cli import main; sys.exit(main(sys.argv[1:]))"
KEY_LIST = (
    "import sys; from pathlib import Path; from run import write_key_list; "
    "write_key_list(Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3]))"
)

Result = Tuple[int, bytes, bytes]  # exit code, stdout, stderr


def load_bench():
    """``bench/run.py`` as a module; it imports ``layers`` from its own directory."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def stage_args(bench, d: str, seed: int, size) -> Dict[str, List[str]]:
    """The bench cycle's stages, then the backup without hints and the
    per-block cache simulations."""
    stages = bench.cycle_args(d, seed, size.cachesim_capacity)
    backup = list(stages["run-backup"])
    del backup[backup.index("--hints") : backup.index("--hints") + 2]
    backup[backup.index("--report") + 1] = f"{d}/backup_nohints.csv"
    stages["run-backup-nohints"] = backup
    for domain in DOMAINS:
        stages[f"cachesim-{domain}"] = ["cachesim", "--trace", f"{d}/trace.bin", "--block", str(size.blocks),
                                        "--domain", domain, "--capacity", str(size.cachesim_capacity)]
    return stages


def run_side(bench, checkout: Path, out: Path, workloads: Sequence[str], seeds: Sequence[int],
             size) -> Dict[Tuple[str, int, str], Result]:
    """Run every stage of every cycle on ``checkout``'s sources, under ``out``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join((str(checkout.resolve() / "src"), str(BENCH))))
    results: Dict[Tuple[str, int, str], Result] = {}

    def run(key: Tuple[str, int, str], argv: List[str], cwd: Path) -> None:
        proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True)
        results[key] = (proc.returncode, proc.stdout, proc.stderr)

    for workload in workloads:
        work = out / workload
        work.mkdir(parents=True)
        config = bench.write_config(work, workload, size)
        for seed in seeds:
            d = work / str(seed)
            d.mkdir()
            bench.write_scenario(d, seed, size, config["generator"])
            for stage, ira_args in stage_args(bench, d.name, seed, size).items():
                if stage == "run-primary":
                    run((workload, seed, "write_key_list"),
                        ["-c", KEY_LIST, f"{d.name}/trace.bin", f"{d.name}/keys.txt", str(size.cachesim_accesses)], work)
                run((workload, seed, stage), ["-c", IRA_MAIN, *ira_args], work)
    return results


def diff_trees(a: Path, b: Path) -> List[str]:
    """Every file under ``a`` or ``b`` that is missing on one side or
    differs in its bytes, as relative paths with the reason."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = []
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not pa.is_file() or not pb.is_file():
            diffs.append(f"{rel}: only in {'change' if not pa.is_file() else 'parent'}")
        elif pa.read_bytes() != pb.read_bytes():
            diffs.append(f"{rel}: bytes differ")
    return diffs


def diff_results(a: Dict[Tuple[str, int, str], Result], b: Dict[Tuple[str, int, str], Result]) -> List[str]:
    diffs = []
    for key in sorted(a.keys() | b.keys()):
        workload, seed, stage = key
        ra, rb = a.get(key), b.get(key)
        if ra is None or rb is None:
            diffs.append(f"{workload}/{seed} {stage}: ran only in {'change' if ra is None else 'parent'}")
            continue
        for name, va, vb in zip(("exit code", "stdout", "stderr"), ra, rb):
            if va != vb:
                diffs.append(f"{workload}/{seed} {stage}: {name} differs ({va!r:.200} vs {vb!r:.200})")
    return diffs


def main(argv: Optional[Sequence[str]] = None) -> int:
    bench = load_bench()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS),
                    help="repeatable; default: every workload")
    ap.add_argument("--seed", type=int, action="append", help=f"cycle seed, repeatable; default: {SEEDS}")
    ap.add_argument("--smoke", action="store_true", help="bench/run.py's demo-size inputs")
    ap.add_argument("--work", type=Path, help="keep the outputs in this new directory (default: a temporary one)")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, checkout in sides.items():
        if not (checkout / "src" / "ira" / "cli.py").is_file():
            print(f"same_outputs: {name}: no src/ira/cli.py under {checkout}", file=sys.stderr)
            return 2
    workloads = args.workload or sorted(bench.WORKLOADS)
    seeds = args.seed or list(SEEDS)
    size = bench.SMOKE if args.smoke else bench.FULL

    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        work = args.work or Path(tmp)
        results = {name: run_side(bench, checkout, work / name, workloads, seeds, size)
                   for name, checkout in sides.items()}
        diffs = diff_results(results["parent"], results["change"])
        diffs += diff_trees(work / "parent", work / "change")
        n_files = sum(1 for p in (work / "parent").rglob("*") if p.is_file())
    failed = [f"{side} {workload}/{seed} {stage}: exit code {rc}"
              for side, runs in results.items() for (workload, seed, stage), (rc, _, _) in sorted(runs.items()) if rc]
    for line in diffs:
        print(f"DIFF {line}")
    for line in failed:
        print(f"FAILED {line}")
    n_runs = len(results["parent"])
    print(f"same_outputs: {len(diffs)} differences and {len(failed)} failed stage runs, over {n_runs} stage runs "
          f"and {n_files} files per side ({', '.join(workloads)}; seeds {', '.join(map(str, seeds))})")
    return 1 if diffs or failed else 0


if __name__ == "__main__":
    sys.exit(main())
