"""Smoke test of ``scripts/output_tree.py`` on the ``sweep_coupled`` workload."""

import importlib.util
import json
from pathlib import Path

import pytest

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


def _report_tree(root: Path, notes: list[str]) -> Path:
    (root / "gallery").mkdir(parents=True)
    (root / "gallery" / "report.json").write_text(
        json.dumps({"classification": {"notes": notes}}), encoding="utf-8")
    return root


def test_compare_reports_compares_the_numbers_inside_strings(tmp_path, monkeypatch, capsys):
    note = "given central value lies outside the feasible window (1, {})"
    notes = [note.format("6.33822"), "f[0] takes values on [1, 2]"]
    a = _report_tree(tmp_path / "a", notes)
    b = _report_tree(tmp_path / "b", [note.format("6.33846"), notes[1]])
    cmp = compare_reports.compare(a, b)
    assert not cmp.mismatches
    field = "report.json.classification.notes[]"
    assert sorted(cmp.moves) == [f"{field}#1"]  # the window's right end, not its left
    rel, diff, count, where = cmp.moves[f"{field}#1"]
    assert (count, where) == (1, "gallery/report.json.classification.notes[0]#1")
    assert diff == pytest.approx(2.4e-4) and rel == pytest.approx(2.4e-4 / 6.33846)
    monkeypatch.setattr("sys.argv", ["compare_reports.py", str(a), str(b)])
    assert compare_reports.main() == 0

    # any other change to a string is still a non-numeric difference
    for k, other in enumerate([[note.format("6.33822").replace("outside", "inside"), notes[1]],
                               [notes[0], "f[1] takes values on [1, 2]"],
                               [notes[0], "f[0] takes values on [1, 2, 3]"]]):
        c = _report_tree(tmp_path / f"c{k}", other)
        assert compare_reports.compare(a, c).mismatches
        monkeypatch.setattr("sys.argv", ["compare_reports.py", str(a), str(c)])
        assert compare_reports.main() == 1
    assert "non-numeric" in capsys.readouterr().out
