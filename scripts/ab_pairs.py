#!/usr/bin/env python3
"""Alternating A/B pairs of the radbench benchmark between two checkouts.

    python scripts/ab_pairs.py --parent DIR --change DIR --workload NAME \
        [--pairs 10] [--seed 1] [--seconds 30]

Each pair runs ``radbench/run.py --workload NAME --seed S --seconds T --trace 0``
once for each checkout, one after the other.  Before each run the side's
``src/``, ``radbench/`` and ``configs/`` are copied into one fixed staging
directory, emptied first, and the run starts there.  So each side builds what
it runs from its own sources, and both run from the same path: where a
checkout lives cannot favour it.  The parent runs first on odd pairs and the
change on even ones, so a slow drift of the host does not favour one side.
Pair i uses seed ``seed + i - 1``.  Run one batch at a time: each run
empties the staging directory.

For every pair the script prints ``run_s``, ``setup_s`` and ``peak_rss_mb`` of
both sides.  Then, per metric (all three are better when lower), it prints
each side's median and quartiles, how many pairs the change won, and
whether the gain rule holds: the change wins at least 9 of every 10 pairs
(``ceil(0.9 * pairs)``) and its median is below the parent's by more than
the parent's quartile distance.  Quartiles are the inclusive quantiles of
``statistics.quantiles``.

The exit status is 1 when any run reports ``correct: false`` or
``failed > 0``, or exits non-zero, and 0 otherwise; whether a gain rule holds
does not change it.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("run_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
STAGING = Path(tempfile.gettempdir()) / "radsolve-ab-staging"
STAGED = ("src", "radbench", "configs")


def plan(pairs: int, seed: int) -> list[tuple[int, tuple[str, str]]]:
    """(seed, run order) per pair: parent first on odd pairs, change first on even."""
    return [(seed + i, SIDES if i % 2 == 0 else SIDES[::-1]) for i in range(pairs)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, wins of the change (strictly lower) and the gain rule."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change values")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(c < p for p, c in zip(parent, change))
    need = math.ceil(0.9 * len(parent))
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "wins": wins, "pairs": len(parent), "wins_needed": need,
        "gap": p_med - c_med, "parent_iqr": p_q3 - p_q1,
        "holds": wins >= need and p_med - c_med > p_q3 - p_q1,
    }


def result_line(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run.py output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run produced no output")
    return json.loads(lines[-1])


def stage(root: Path) -> Path:
    """Empty ``STAGING`` and copy the ``STAGED`` directories of checkout ``root`` into it."""
    shutil.rmtree(STAGING, ignore_errors=True)
    for name in STAGED:
        shutil.copytree(root / name, STAGING / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return STAGING


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "radbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=stage(root), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return result_line(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    values = {side: {m: [] for m in METRICS} for side in SIDES}
    bad = []
    for i, (seed, order) in enumerate(plan(args.pairs, args.seed), start=1):
        docs = {}
        for side in order:
            try:
                docs[side] = doc = run_side(roots[side], args.workload, seed, args.seconds)
            except (RuntimeError, ValueError) as err:
                print(f"pair {i} {side}: {err}", flush=True)
                return 1
            if not doc.get("correct") or doc.get("failed", 0) > 0:
                bad.append(f"pair {i} {side}: correct {doc.get('correct')}, "
                           f"failed {doc.get('failed')}")
            for m in METRICS:
                values[side][m].append(float(doc["metrics"][m]["value"]))
        cells = "  ".join(f"{m} {values['parent'][m][-1]:.4f} -> {values['change'][m][-1]:.4f}"
                          for m in METRICS)
        print(f"pair {i:2d} seed {seed} ({order[0]} first): {cells}", flush=True)

    for m in METRICS:
        s = summarize(values["parent"][m], values["change"][m])
        fmt = "median {1:.4f} (quartiles {0:.4f}-{2:.4f})"
        print(f"{m}: parent {fmt.format(*s['parent'])}; change {fmt.format(*s['change'])}; "
              f"change wins {s['wins']}/{s['pairs']}; median gap {s['gap']:.4f} vs parent "
              f"quartile distance {s['parent_iqr']:.4f}; gain rule "
              f"{'holds' if s['holds'] else 'does not hold'}")
    for line in bad:
        print(f"FAILED {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
