"""Smoke test of ``scripts/stage_memory.py`` on a small two-component config."""

import importlib.util
import json
from pathlib import Path

from radsolve import cli

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
    table = stage_memory.stage_table(str(config))
    assert [(command, stage) for command, stage, _, _ in table] == [
        ("solve", "tables"), ("solve", "iterate"), ("solve", "verification"),
        ("solve", "csv write"),
        ("verify", "csv read"), ("verify", "tables"), ("verify", "verification")]
    assert all(peak >= held and peak > 0 for _, _, peak, held in table)
    assert {name: getattr(cli, name) for name in stage_memory.STAGES} == originals
