"""Smoke test of ``scripts/output_tree.py`` on the ``sweep_coupled`` workload."""

import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, _ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_tree = _script("output_tree")
compare_reports = _script("compare_reports")


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_sweep_coupled_tree_is_complete_and_reproducible(tmp_path):
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        commands = output_tree.build_tree(_ROOT, tree, names=("sweep_coupled",),
                                          staging=tmp_path / "staging")
        assert commands == 1
    assert not (tmp_path / "staging").exists()  # moved, not copied

    out = trees[0] / "sweep_coupled" / "sweep"
    assert sorted(_files(trees[0])) == sorted(
        f"sweep_coupled/sweep/{name}" for name in
        ("exit_code", "report.json", "solution_000.csv", "solution_001.csv",
         "solution_002.csv", "sweep_table.csv"))
    assert (out / "exit_code").read_text() == "0\n"
    assert json.loads((out / "report.json").read_text())["command"] == "sweep"

    assert _files(trees[0]) == _files(trees[1])
    cmp = compare_reports.compare(*trees)
    assert not cmp.mismatches and not cmp.moves
