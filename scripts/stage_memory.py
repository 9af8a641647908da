#!/usr/bin/env python3
"""Traced memory of each stage of ``solve`` and then ``verify``, or of
``classify``, on one config.

    python scripts/stage_memory.py --config PATH [--mode solve|classify]

The ``solve`` mode (the default) runs ``radsolve solve`` on the config and then
``radsolve verify`` on the first solution CSV it wrote; the ``classify`` mode
runs ``radsolve classify``.  Each runs in-process through ``radsolve.cli.main``,
with every output in a temporary directory and ``tracemalloc`` on.  Each call
the command makes to one of its stages is measured:

    tables           build_transform_tables     (the kernels and the barriers A_j)
    iterate          iterate                    (one per central value)
    verification     verify_solution            (bounds and residuals)
    csv write        write_solution_csv
    csv read         read_solution_csv

in ``solve`` and ``verify``, and in ``classify``

    samples          ProblemSpec.diagonals      (each f_j on the probe block, once)
    F probe          estimate_F_inf             (the tail of the F integral)
    A_j probes       _probe_barriers            (every barrier tail, one call)
    C6               check_C6                   (only when F and every A_j converge)
    Keller-Osserman  check_keller_osserman      (one per component)
    Ye-Zhou          check_ye_zhou              (one per component)
    remarks          check_remark_implications
    report           canonical_json             (the report text)

Each call gets one line: the command, the stage, its peak (the highest traced
memory during the call, above what was traced when it began), what it holds
(traced memory at its end, above its start: its result and anything it left
behind) and its peak above what was traced when the command began, which
adds what earlier stages still hold.  A last line gives the run's traced peak,
above the start of tracing, and the command it fell in; the stage with the
greatest peak in that command is the one that sets it, unless the peak fell
between stages.  Sizes are MB of 2^20 bytes, the unit of the benchmark's
``peak_rss_mb``.  ``tracemalloc`` counts Python and numpy allocations, not
the interpreter's or the allocator's own overhead, so these are not
resident sizes.  A command that ends in a config error stops the script;
other exit codes are outcomes and are measured.  Put the checkout's ``src/``
on the path, e.g. ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import sys
import tempfile
import tracemalloc

from radsolve import cli, conditions
from radsolve.transforms import ProblemSpec

STAGES = {
    "build_transform_tables": "tables",
    "iterate": "iterate",
    "verify_solution": "verification",
    "write_solution_csv": "csv write",
    "read_solution_csv": "csv read",
}
# patched where the command looks them up: in cli, conditions or ProblemSpec
CLASSIFY_STAGES = {
    "diagonals": "samples",
    "estimate_F_inf": "F probe",
    "_probe_barriers": "A_j probes",
    "check_C6": "C6",
    "check_keller_osserman": "Keller-Osserman",
    "check_ye_zhou": "Ye-Zhou",
    "check_remark_implications": "remarks",
    "canonical_json": "report",
}
_MB = 2.0 ** 20


def _measured(fn, stage: str, rows: list):
    """``fn`` recording (stage, traced memory and peak before the call, traced memory
    at its end, peak during it) of each call into ``rows``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            rows.append((stage, *before, *tracemalloc.get_traced_memory()))
    return wrapper


def stage_table(config: str, mode: str = "solve"
                ) -> tuple[list[tuple[str, str, float, float, float]], tuple[float, str]]:
    """(command, stage, peak MB, held MB, peak MB above the command's start) of every
    stage call of solve, then verify, or of classify; and the run's traced peak in MB
    with the command it fell in."""
    rows: list = []
    table = []
    top = (0.0, "")
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as undo:
        for name, stage in (STAGES if mode == "solve" else CLASSIFY_STAGES).items():
            module = next(owner for owner in (cli, conditions, ProblemSpec)
                          if name in vars(owner))
            original = getattr(module, name)
            setattr(module, name, _measured(original, stage, rows))
            undo.callback(setattr, module, name, original)
        commands = {
            "solve": ["solve", "--config", config, "--out", f"{tmp}/solve"],
            "verify": ["verify", "--config", config, "--out", f"{tmp}/verify",
                       "--solution", f"{tmp}/solve/solution_000.csv"],
        } if mode == "solve" else {"classify": ["classify", "--config", config,
                                                "--out", f"{tmp}/classify"]}
        tracemalloc.start()
        try:
            for command, argv in commands.items():
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli.main(argv)
                if code == cli.EXIT_CONFIG:  # a failed check or no convergence still measures
                    raise SystemExit(f"{command} exited {code}: {err.getvalue().strip()}")
                # the peaks before each stage, during each and after the last cover the command
                in_command = max([tracemalloc.get_traced_memory()[1],
                                  *(p for row in rows for p in (row[2], row[4]))])
                top = max(top, (in_command / _MB, command))
                table += [(command, stage, (peak - start) / _MB, (end - start) / _MB,
                           (peak - base) / _MB) for stage, start, _, end, peak in rows]
                rows.clear()
        finally:
            tracemalloc.stop()
    return table, top


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--mode", choices=("solve", "classify"), default="solve",
                        help="solve then verify (default), or classify")
    args = parser.parse_args(argv)
    table, (top, where) = stage_table(args.config, args.mode)
    print(f"{'command':<8} {'stage':<15} {'peak MB':>8} {'held MB':>8} {'in cmd MB':>9}")
    for command, stage, peak, held, in_command in table:
        print(f"{command:<8} {stage:<15} {peak:8.2f} {held:8.2f} {in_command:9.2f}")
    print(f"traced peak of the run: {top:.2f} MB, in {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
