"""Smoke test of ``scripts/stage_memory.py`` on a small two-component config."""

import importlib.util
import json
from pathlib import Path

from radsolve import cli, conditions
from radsolve.transforms import ProblemSpec

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("stage_memory",
                                               _ROOT / "scripts" / "stage_memory.py")
stage_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_memory)


def test_every_stage_of_solve_then_verify_is_measured_once_and_unwrapped_after(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "problem": {"N": 3, "d": 2, "p": [2.0, 2.5], "h": ["0", "0.1"], "a": ["1", "1"],
                    "f": ["u2", "u1"]},
        "grid": {"R": 1.0, "M": 100},
        "beta": [1.0, 1.5],
    }), encoding="utf-8")
    originals = {name: getattr(cli, name) for name in stage_memory.STAGES}
    table, (top, where) = stage_memory.stage_table(str(config))
    assert [(command, stage) for command, stage, *_ in table] == [
        ("solve", "tables"), ("solve", "iterate"), ("solve", "verification"),
        ("solve", "csv write"),
        ("verify", "csv read"), ("verify", "tables"), ("verify", "verification")]
    assert all(peak >= held and peak > 0 and in_command > 0 for *_, peak, held, in_command in table)
    # the run's peak is at least every stage's peak above its command's start
    assert top >= max(in_command for *_, in_command in table) and where in ("solve", "verify")
    assert {name: getattr(cli, name) for name in stage_memory.STAGES} == originals


def test_every_stage_of_classify_is_measured_in_order_and_unwrapped_after(tmp_path):
    # F and both barriers converge for f = u^3 and a decaying a, so C6 runs too
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "problem": {"N": 3, "d": 2, "p": [2.0, 2.0], "h": ["0", "0"],
                    "a": ["(1+r)^(-4)", "(1+r)^(-4)"], "f": ["u2^3", "u1^3"]},
        "grid": {"R": 1.0, "M": 100},
        "probes": {"K": 6, "nodes_per_octave": 256},
        "beta": [1.0, 1.0],
    }), encoding="utf-8")
    names = stage_memory.CLASSIFY_STAGES

    def owner(name):
        return next(o for o in (cli, conditions, ProblemSpec) if name in vars(o))

    originals = {name: vars(owner(name))[name] for name in names}
    table, (top, where) = stage_memory.stage_table(str(config), "classify")
    assert [(command, stage) for command, stage, *_ in table] == [
        ("classify", "samples"), ("classify", "F probe"), ("classify", "A_j probes"),
        ("classify", "C6"),
        ("classify", "Keller-Osserman"), ("classify", "Keller-Osserman"),
        ("classify", "Ye-Zhou"), ("classify", "Ye-Zhou"),
        ("classify", "remarks"), ("classify", "report")]
    assert all(peak >= held and peak > 0 and in_command > 0 for *_, peak, held, in_command in table)
    assert top >= max(in_command for *_, in_command in table) and where == "classify"
    assert {name: vars(owner(name))[name] for name in names} == originals
