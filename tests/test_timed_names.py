"""The functions the benchmark's layer trace times, pinned by name.

``radbench/tracer.py`` wraps every public function that a layer module
defines, and reads its per-layer metrics off those names.  A timed function
that is renamed, inlined or made private is no longer wrapped, and its metric
silently reads 0.  So each of the 20 names below must stay a public function
of its module, with the call shape the trace's counters read.
"""

import dataclasses
import importlib
import inspect

import pytest

from radsolve import cli, solver

TIMED = {
    "exprlang": ("evaluate_array",),
    "quadrature": ("probe_divergence",),
    "transforms": ("build_F", "eval_F", "build_transform_tables", "estimate_A_inf",
                   "estimate_F_inf"),
    "solver": ("iterate", "residual", "verify_bounds"),
    "conditions": ("classify", "check_C6", "check_keller_osserman", "check_ye_zhou",
                   "check_remark_implications", "check_lair_proposition"),
    "cli": ("load_config", "canonical_json", "write_solution_csv", "read_solution_csv"),
}


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in TIMED.items()
                                         for name in names])
def test_timed_function_is_a_public_function_of_its_module(layer, name):
    module = importlib.import_module(f"radsolve.{layer}")
    fn = vars(module).get(name)
    assert inspect.isfunction(fn), f"radsolve.{layer}.{name} is not a function"
    assert fn.__module__ == module.__name__, f"{name} is imported into {layer}, not defined there"
    assert not name.startswith("_")


def test_timed_call_shapes_the_counters_read():
    # the CSV byte counter reads the path argument, the sweep counter the bundle's iterations
    assert next(iter(inspect.signature(cli.write_solution_csv).parameters)) == "path"
    assert "iterations" in {f.name for f in dataclasses.fields(solver.SolutionBundle)}
