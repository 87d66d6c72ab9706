"""Start-up wall of each ``ira`` command: importing its modules in a fresh interpreter.

Usage (from the root of a checkout)::

    python3 tools/startup_walls.py
    python3 tools/startup_walls.py --samples 21 PARENT CHANGE --json walls.json

For each command of a ``bench/run.py`` cycle, a fresh interpreter imports
``ira.cli`` and the ``ira`` modules that the command runs, and exits. The
first row is the bare interpreter (``-c pass``). Each checkout's ``ira``
package is copied without its ``__pycache__`` into a directory of its own,
and every interpreter runs with ``-B``, so no side has a bytecode cache of
``ira``. A sample runs each row on every checkout back to back, in an order
that alternates from sample to sample, so a slow spell on a shared machine
hits every side of a row alike. The tool prints a Markdown table of the
median walls in ms, and each one's excess over the bare interpreter's
median. ``--json`` also writes every sample.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BARE = "(bare interpreter)"

# The ira modules besides ira.cli that each command loads when it runs.
COMMAND_MODULES: Dict[str, Tuple[str, ...]] = {
    "gen-trace": ("config", "store", "workload"),
    "build-store": ("config", "store", "workload"),
    "run-primary": ("config", "store", "workload", "primary"),
    "run-baseline": ("config", "store", "workload", "primary", "backup"),
    "run-backup": ("config", "store", "workload", "primary", "backup"),
    "compare": (),
    "cachesim": ("cachesim",),
    "proto": ("protocol",),
}


def import_code(command: str) -> str:
    return "import " + ", ".join(["ira.cli", *(f"ira.{m}" for m in COMMAND_MODULES[command])])


def sample_walls(checkouts: Sequence[Path], samples: int) -> Dict[str, Dict[str, List[float]]]:
    """checkout label -> row -> wall of every sample, in seconds."""
    rows = {BARE: "pass", **{c: import_code(c) for c in COMMAND_MODULES}}
    walls: Dict[str, Dict[str, List[float]]] = {}
    with tempfile.TemporaryDirectory(prefix="startup_walls_") as tmp:
        envs = {}
        for i, checkout in enumerate(checkouts):
            label = f"{i + 1}:{checkout.name}"
            src = Path(tmp) / str(i)
            shutil.copytree(checkout / "src" / "ira", src / "ira", ignore=shutil.ignore_patterns("__pycache__"))
            envs[label] = dict(os.environ, PYTHONPATH=str(src))
            walls[label] = {row: [] for row in rows}
        for i in range(samples):
            order = list(envs.items()) if i % 2 == 0 else list(envs.items())[::-1]
            for row, code in rows.items():
                for label, env in order:
                    start = time.perf_counter()
                    subprocess.run([sys.executable, "-B", "-c", code], env=env, cwd=tmp, check=True)
                    walls[label][row].append(time.perf_counter() - start)
    return walls


def table(walls: Dict[str, Dict[str, List[float]]]) -> str:
    """Markdown: per row, each checkout's median wall and its excess over
    the bare interpreter, in ms."""
    medians = {label: {row: statistics.median(w) * 1000 for row, w in rows.items()} for label, rows in walls.items()}
    labels = list(medians)
    head = ["command"] + [f"{label} {col}" for label in labels for col in ("wall ms", "over bare ms")]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for row in medians[labels[0]]:
        cells = [row]
        for label in labels:
            m = medians[label]
            cells += [f"{m[row]:.1f}", f"{m[row] - m[BARE]:.1f}"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="*", type=Path, default=[ROOT], help="checkout roots (default: this one)")
    ap.add_argument("--samples", type=int, default=15, help="interpreters per row and checkout")
    ap.add_argument("--json", type=Path, default=None, help="also write every sample's wall (s) here")
    args = ap.parse_args(argv)
    if args.samples < 1:
        ap.error("--samples must be >= 1")
    missing = [str(c) for c in args.checkouts if not (c / "src" / "ira" / "cli.py").is_file()]
    if missing:
        print(f"startup_walls: no src/ira/cli.py under {', '.join(missing)}", file=sys.stderr)
        return 2
    walls = sample_walls(args.checkouts, args.samples)
    print(f"median of {args.samples} samples, Python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    print(table(walls))
    if args.json:
        args.json.write_text(json.dumps({"samples": args.samples, "walls_s": walls}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
