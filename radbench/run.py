"""Benchmark of the radsolve CLI.

    python3 radbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/` of that
checkout and driven in-process through `radsolve.cli.main`; every output goes
to a scratch directory under `.radbench_tmp/`, which is removed on exit.

With `--trace 0` the benchmark repeats passes over the workload's commands
for `--seconds` seconds and reports the end-to-end metrics:

    run_s        median wall seconds of one pass, tracing off
    setup_s      median seconds for a fresh interpreter to import radsolve.cli
                 and load the workload's configs (what each CLI call pays first)
    peak_rss_mb  peak resident memory of this process, which ran the passes

With `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics of `tracer.LAYER_METRICS` (medians over traced passes); a
traced pass must write the same bytes as an untraced one.

Every line but the last is for people.  The last line is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# one process, no extra threads: pin BLAS and OpenMP before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from radbench import workloads  # noqa: E402
from radbench.tracer import LAYER_METRICS, Tracer  # noqa: E402

SCRATCH = workloads.ROOT / ".radbench_tmp"
MIN_PASSES = 3
SETUP_REPEATS = 15
SETUP_SNIPPET = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from radsolve.cli import load_config\n"
    "for path in sys.argv[2:]:\n"
    "    load_config(path)\n"
)


def measure_setup(workload: workloads.Workload) -> list[float]:
    """Wall seconds of fresh interpreters that import radsolve.cli and load the configs."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(workloads.SRC),
            *map(str, workload.configs)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        # with pipes the wait ends at the child's exit; a bare timed wait polls
        # in steps of up to 50 ms, which showed up as steps in setup_s
        subprocess.run(argv, check=True, cwd=workloads.ROOT, capture_output=True, timeout=60)
        if i:  # the first start also compiles bytecode; users pay that once
            times.append(time.perf_counter() - started)
    return times


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_untraced(workload, pass_dir: Path, seconds: float):
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(workloads.run_pass(workload, fresh(pass_dir)))
    return passes


def run_traced(workload, pass_dir: Path, seconds: float):
    """Alternate untraced and traced passes; traced ones must write the same bytes."""
    plain, traced, layer = [], [], []
    reference = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(workloads.run_pass(workload, fresh(pass_dir)))
        if reference is None:
            reference = workloads.snapshot(pass_dir)
        with Tracer() as tracer:
            result = workloads.run_pass(workload, fresh(pass_dir))
        if workloads.snapshot(pass_dir) != reference:
            result.failures.append("traced pass wrote different output bytes")
        traced.append(result)
        layer.append(tracer.metrics())
    metrics = {name: statistics.median_low(m[name] for m in layer)
               for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                                   - statistics.median(p.seconds for p in plain))
    return plain + traced, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads.import_radsolve()
    except ImportError as err:
        print(f"radbench: cannot load the program: {err}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        workload = workloads.build(args.workload, args.seed, work_dir)
        pass_dir = work_dir / "pass"
        if args.trace:
            passes, layer_metrics = run_traced(workload, pass_dir, args.seconds)
        else:
            setup = measure_setup(workload)
            passes = run_untraced(workload, pass_dir, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it

    failures = [f for p in passes for f in p.failures]
    attempted = len(passes) * len(workload.ops)
    failed = min(len(failures), attempted)
    stats = {}
    for p in passes:
        for key, value in p.stats.items():
            stats[key] = max(value, stats.get(key, value))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(workload.ops)} commands")
    for f in failures[:10]:
        print(f"FAILED {f}")
    for key, value in sorted(stats.items()):
        print(f"check {key} = {value:.4g}")

    if args.trace:
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        run_s = [p.seconds for p in passes]
        metrics = {
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"run_s samples ({len(run_s)}): {' '.join(f'{t:.4f}' for t in run_s)}")
        print(f"setup_s samples ({len(setup)}): {' '.join(f'{t:.4f}' for t in setup)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.4g} ({failed} of {attempted} commands)")

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
