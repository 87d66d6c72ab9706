"""Fold ``bench/run.py`` run records into one committed ``BENCH_<sha>.json``.

Usage (from the root of a checkout)::

    python3 tools/bench_fold.py --out BENCH_49d6f7a.json --parent 49d6f7a \\
        --change "one line on what the change does" \\
        --pair parent-run-1.json change-run-1.json --pair parent-run-2.json change-run-2.json

Each ``--pair`` names the record of a parent run and of a change run on the
same workload and seed (``bench/run.py`` writes them to
``.bench_work/results/``). Per workload and end-to-end metric the file holds
both sides' medians and IQRs, every pair's values, and how many pairs the
change won by the metric's direction in ``BENCHMARK.json``. It also holds
the seeds, the Python versions, ``nproc``, the ``src/`` line counts, and
whether the simulated totals were identical in every pair. Keys of an
existing output file that this tool does not write (such as ``transcribed``,
numbers copied from earlier notes rather than rerun) are kept.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
FOLDED_KEYS = ("parent", "change", "workloads")


def median_iqr(values: Sequence[float]) -> Tuple[float, float]:
    """Median and interquartile range; quartiles by the inclusive method
    (linear interpolation between order statistics), 0 for one value."""
    if len(values) < 2:
        return float(values[0]), 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def directions(benchmark: Path) -> Dict[str, str]:
    """``better`` ("higher" or "lower") of each end-to-end metric."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def _side(records: List[Dict]) -> Dict[str, List]:
    return {key: sorted({r[key] for r in records}) for key in ("python", "nproc", "src_lines")}


def fold(pairs: Sequence[Tuple[Dict, Dict]], better: Dict[str, str]) -> Dict[str, Dict]:
    """Per workload: seeds, environment, simulated identity and per-metric
    statistics of the (parent record, change record) pairs."""
    by_workload: Dict[str, List[Tuple[Dict, Dict]]] = {}
    for parent, change in pairs:
        if (parent["workload"], parent["seed"]) != (change["workload"], change["seed"]):
            raise ValueError(
                f"pair mixes {parent['workload']} seed {parent['seed']} with {change['workload']} seed {change['seed']}"
            )
        by_workload.setdefault(parent["workload"], []).append((parent, change))
    out: Dict[str, Dict] = {}
    for workload, group in sorted(by_workload.items()):
        metrics: Dict[str, Dict] = {}
        for name in sorted(group[0][0]["metrics"]):
            p = [pr["metrics"][name]["value"] for pr, _ in group]
            c = [ch["metrics"][name]["value"] for _, ch in group]
            p_med, p_iqr = median_iqr(p)
            c_med, c_iqr = median_iqr(c)
            entry = {
                "unit": group[0][0]["metrics"][name]["unit"],
                "parent_median": p_med,
                "parent_iqr": p_iqr,
                "change_median": c_med,
                "change_iqr": c_iqr,
                "change_over_parent": c_med / p_med if p_med else None,
                "pairs": [{"seed": pr["seed"], "parent": a, "change": b} for (pr, _), a, b in zip(group, p, c)],
            }
            if name in better:
                entry["better"] = better[name]
                entry["change_wins"] = sum((b > a) if better[name] == "higher" else (b < a) for a, b in zip(p, c))
            metrics[name] = entry
        out[workload] = {
            "seeds": [pr["seed"] for pr, _ in group],
            "parent_env": _side([pr for pr, _ in group]),
            "change_env": _side([ch for _, ch in group]),
            "all_correct": all(r["correct"] for pair in group for r in pair),
            "simulated_identical": all(pr["simulated_pooled"] == ch["simulated_pooled"] for pr, ch in group),
            "metrics": metrics,
        }
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<parent short sha>.json to write")
    ap.add_argument("--parent", required=True, help="short sha of the parent commit")
    ap.add_argument("--change", required=True, help="one line on what the change does")
    ap.add_argument("--pair", nargs=2, action="append", required=True, metavar=("PARENT_RECORD", "CHANGE_RECORD"))
    args = ap.parse_args(argv)
    try:
        pairs = [(json.loads(Path(p).read_text()), json.loads(Path(c).read_text())) for p, c in args.pair]
        folded = fold(pairs, directions(ROOT / "BENCHMARK.json"))
        kept = json.loads(args.out.read_text()) if args.out.exists() else {}
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_fold: {exc}", file=sys.stderr)
        return 2
    doc = {k: v for k, v in kept.items() if k not in FOLDED_KEYS}
    doc.update(parent=args.parent, change=args.change, workloads=folded)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
