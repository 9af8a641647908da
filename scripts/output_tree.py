#!/usr/bin/env python3
"""Write the outputs of every benchmark command of one checkout as a tree.

    python scripts/output_tree.py CHECKOUT DEST [--seeds 1 2]

Builds the three radbench workloads (``sweep_coupled``, ``solve_large_grid``
and ``classify_gallery``) with the checkout's own ``radbench.workloads.build``,
runs each of their commands once, in-process, through the checkout's own
``radsolve.cli.main``, and leaves under DEST:

    sweep_coupled/sweep/                 the sweep's report, table and CSVs
    solve_large_grid/configs/            the generated stress config
    solve_large_grid/solve/, verify/     the solve and the verify of its CSV
    classify_gallery/seed<N>/configs/    the generated gallery configs
    classify_gallery/seed<N>/<config>/   one classify report per config

Each command's output directory also gets a file ``exit_code`` holding its
exit status, or the exception it raised.  Only ``classify_gallery`` reads the
seed, so only it gets one subtree per seed.  Stderr, which carries timings,
is not kept.

The commands run in one fixed staging directory, which is then moved to
DEST.  So the paths a report echoes, such as the solution path in
``verify_report.json``, are the same for every checkout, and the trees of
two checkouts can be compared with ``diff -r`` and
``scripts/compare_reports.py``.  Run one at a time: each run empties the
staging directory first.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

WORKLOADS = ("sweep_coupled", "solve_large_grid", "classify_gallery")
STAGING = Path(tempfile.gettempdir()) / "radsolve-output-tree"


def _workloads(checkout: Path):
    """The checkout's ``radbench.workloads``, with radsolve imported from its ``src``."""
    sys.path.insert(0, str(checkout))
    from radbench import workloads
    if workloads.ROOT != checkout:
        raise ImportError(f"radbench was imported from {workloads.ROOT}, not {checkout}")
    workloads.import_radsolve()
    return workloads


def _exit_code(main, argv: list[str]) -> str:
    """The exit status of ``main(argv)``, or the exception it raised without the
    traceback, whose file paths would differ between checkouts."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return str(main(argv))
        except Exception as exc:
            return "raised " + "".join(traceback.format_exception_only(type(exc), exc)).strip()


def build_tree(checkout: Path, dest: Path, seeds=(1, 2), names=WORKLOADS,
               staging: Path = STAGING) -> int:
    """Write the output tree of ``checkout`` to ``dest``, which must not exist yet;
    returns the number of commands run."""
    checkout, dest = Path(checkout).resolve(), Path(dest)
    if dest.exists():
        raise FileExistsError(f"{dest} exists already")
    workloads = _workloads(checkout)
    from radsolve import cli

    shutil.rmtree(staging, ignore_errors=True)
    commands = 0
    for name in names:
        per_seed = name == "classify_gallery"
        for seed in seeds if per_seed else seeds[:1]:
            work_dir = staging / name / f"seed{seed}" if per_seed else staging / name
            for op in workloads.build(name, seed, work_dir).ops:
                code = _exit_code(cli.main, op.args(work_dir))
                (work_dir / op.out).mkdir(parents=True, exist_ok=True)
                (work_dir / op.out / "exit_code").write_text(code + "\n", encoding="utf-8")
                commands += 1
    dest.parent.mkdir(parents=True, exist_ok=True)
    shutil.move(str(staging), str(dest))
    return commands


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkout", type=Path, help="root of the checkout whose outputs to write")
    ap.add_argument("dest", type=Path, help="where the tree goes; must not exist yet")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                    help="classify_gallery seeds (default: 1 2)")
    args = ap.parse_args()
    if not (args.checkout / "radbench" / "workloads.py").is_file():
        ap.error(f"{args.checkout} has no radbench/workloads.py")
    commands = build_tree(args.checkout, args.dest, tuple(args.seeds))
    files = sum(1 for p in args.dest.rglob("*") if p.is_file())
    print(f"{commands} commands, {files} files in {args.dest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
