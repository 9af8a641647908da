"""Layer trace for radsolve, taken from outside the program.

`Tracer` replaces every public function of the six layer modules (plus the
methods of `quadrature.CumulativeInterpolant`) with a timing wrapper, in every
radsolve module namespace where callers look the name up, and puts the
originals back on exit.  No program file is edited.

Each call records a span (name, start, end, parent).  A call to a function
that is already on the span stack (the recursive `evaluate_array`, for
example) runs unwrapped, so only the outermost call is timed.  Counters are
taken at the same boundaries from the arguments and results of the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("exprlang", "quadrature", "transforms", "solver", "conditions", "cli")
CLASS_METHODS = {"quadrature": {"CumulativeInterpolant": ("__init__", "__call__")}}

# calls that may re-tabulate F internally and hand a table back to their caller
_F_CHAINS = ("transforms.ensure_covers", "transforms.invert_F_many")
_AUX_CHECKS = ("conditions.check_keller_osserman", "conditions.check_ye_zhou",
               "conditions.check_remark_implications", "conditions.check_lair_proposition")

# (metric, unit, better) in report order; each names the layer it measures
LAYER_METRICS = (
    ("transforms.F_builds", "count", "lower"),
    ("transforms.F_build_s", "s", "lower"),
    ("transforms.F_nodes_total", "count", "lower"),
    ("transforms.F_nodes_max", "count", "lower"),
    ("transforms.F_useful_ratio", "ratio", "higher"),
    ("transforms.invert_s", "s", "lower"),
    ("transforms.tables_s", "s", "lower"),
    ("transforms.A_inf_s", "s", "lower"),
    ("transforms.F_inf_s", "s", "lower"),
    ("solver.verify_bounds_s", "s", "lower"),
    ("solver.iterate_s", "s", "lower"),
    ("solver.sweeps", "count", "lower"),
    ("solver.sweep_s", "s", "lower"),
    ("solver.residual_s", "s", "lower"),
    ("cli.config_s", "s", "lower"),
    ("cli.csv_write_s", "s", "lower"),
    ("cli.csv_write_bytes", "bytes", "lower"),
    ("cli.csv_read_s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
    ("exprlang.eval_calls", "count", "lower"),
    ("exprlang.eval_elems", "count", "lower"),
    ("exprlang.eval_s", "s", "lower"),
    ("quadrature.probe_calls", "count", "lower"),
    ("quadrature.probe_s", "s", "lower"),
    ("quadrature.interp_builds", "count", "lower"),
    ("quadrature.interp_nodes", "count", "lower"),
    ("quadrature.interp_s", "s", "lower"),
    ("conditions.classify_s", "s", "lower"),
    ("conditions.C6_s", "s", "lower"),
    ("conditions.C6_gap_evals", "count", "lower"),
    ("conditions.aux_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Context manager that traces radsolve calls while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"radsolve.{layer}") for layer in LAYERS}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and name.split(".")[0] == "radsolve"]
        try:
            for layer, module in modules.items():
                for attr, fn in vars(module).items():
                    if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                            and not attr.startswith("_")):
                        wrapper = self._wrap(f"{layer}.{attr}", fn)
                        for ns in namespaces:
                            if vars(ns).get(attr) is fn:
                                self._patch(ns, attr, wrapper)
                for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                    cls = getattr(module, cls_name, None)
                    for meth in methods if cls is not None else ():
                        fn = vars(cls)[meth]
                        self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._active[name]:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            self._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
            if hook is not None:
                hook(self, span, args, result)
            return result

        return wrapper

    # -- summary -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (all but the overhead)."""
        total = Counter()
        calls = Counter()
        child = [0.0] * len(self.spans)
        for span in self.spans:
            duration = span.end - span.start
            total[span.name] += duration
            calls[span.name] += 1
            if span.parent is not None:
                child[span.parent] += duration
        self_time = Counter()
        for span, covered in zip(self.spans, child):
            self_time[span.name.split(".")[0]] += span.end - span.start - covered

        c = self.counts
        sweeps = c["sweeps"]
        out = {
            "transforms.F_builds": calls["transforms.build_F"],
            "transforms.F_build_s": total["transforms.build_F"],
            "transforms.F_nodes_total": c["F_nodes_total"],
            "transforms.F_nodes_max": c["F_nodes_max"],
            "transforms.F_useful_ratio": (c["F_nodes_kept"] / c["F_nodes_total"]
                                          if c["F_nodes_total"] else 1.0),
            "transforms.invert_s": total["transforms.invert_F_many"],
            "transforms.tables_s": total["transforms.build_transform_tables"],
            "transforms.A_inf_s": total["transforms.estimate_A_inf"],
            "transforms.F_inf_s": total["transforms.estimate_F_inf"],
            "solver.verify_bounds_s": total["solver.verify_bounds"],
            "solver.iterate_s": total["solver.iterate"],
            "solver.sweeps": sweeps,
            "solver.sweep_s": total["solver.iterate"] / sweeps if sweeps else 0.0,
            "solver.residual_s": total["solver.residual"],
            "cli.config_s": total["cli.load_config"],
            "cli.csv_write_s": total["cli.write_solution_csv"],
            "cli.csv_write_bytes": c["csv_write_bytes"],
            "cli.csv_read_s": total["cli.read_solution_csv"],
            "cli.report_s": total["cli.canonical_json"],
            "exprlang.eval_calls": calls["exprlang.evaluate_array"],
            "exprlang.eval_elems": c["eval_elems"],
            "exprlang.eval_s": total["exprlang.evaluate_array"],
            "quadrature.probe_calls": calls["quadrature.probe_divergence"],
            "quadrature.probe_s": total["quadrature.probe_divergence"],
            "quadrature.interp_builds": calls["quadrature.CumulativeInterpolant.__init__"],
            "quadrature.interp_nodes": c["interp_nodes"],
            "quadrature.interp_s": (total["quadrature.CumulativeInterpolant.__init__"]
                                    + total["quadrature.CumulativeInterpolant.__call__"]),
            "conditions.classify_s": total["conditions.classify"],
            "conditions.C6_s": total["conditions.check_C6"],
            "conditions.C6_gap_evals": c["C6_gap_evals"],
            "conditions.aux_s": sum(total[name] for name in _AUX_CHECKS),
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        return out


# -- counters taken at call boundaries ------------------------------------

def _on_build_F(tracer: Tracer, span: Span, args, table) -> None:
    nodes = len(table.s)
    tracer.counts["F_nodes_total"] += nodes
    tracer.counts["F_nodes_max"] = max(tracer.counts["F_nodes_max"], nodes)
    parent = tracer.spans[span.parent].name if span.parent is not None else None
    if parent not in _F_CHAINS:  # a direct build hands its table to the caller
        tracer.counts["F_nodes_kept"] += nodes


def _on_ensure_covers(tracer: Tracer, span: Span, args, table) -> None:
    if table is not args[0]:  # re-tabulated here; the caller keeps the last table
        tracer.counts["F_nodes_kept"] += len(table.s)


def _on_invert_F_many(tracer: Tracer, span: Span, args, result) -> None:
    _on_ensure_covers(tracer, span, args, result[1])


def _on_eval_F(tracer: Tracer, span: Span, args, result) -> None:
    if tracer._active["conditions.check_C6"]:
        tracer.counts["C6_gap_evals"] += 1


def _on_evaluate_array(tracer: Tracer, span: Span, args, result) -> None:
    tracer.counts["eval_elems"] += result.size


def _on_iterate(tracer: Tracer, span: Span, args, bundle) -> None:
    tracer.counts["sweeps"] += bundle.iterations


def _on_write_csv(tracer: Tracer, span: Span, args, result) -> None:
    tracer.counts["csv_write_bytes"] += os.path.getsize(args[0])


def _on_interp_init(tracer: Tracer, span: Span, args, result) -> None:
    tracer.counts["interp_nodes"] += len(getattr(args[0], "_nodes", ()))


_HOOKS = {
    "transforms.build_F": _on_build_F,
    "transforms.ensure_covers": _on_ensure_covers,
    "transforms.invert_F_many": _on_invert_F_many,
    "transforms.eval_F": _on_eval_F,
    "exprlang.evaluate_array": _on_evaluate_array,
    "solver.iterate": _on_iterate,
    "cli.write_solution_csv": _on_write_csv,
    "quadrature.CumulativeInterpolant.__init__": _on_interp_init,
}
