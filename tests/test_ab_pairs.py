"""The statistics, the run plan and the staging of ``scripts/ab_pairs.py`` on fixed inputs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

PARENT = [1.30, 1.32, 1.28, 1.35, 1.31, 1.29, 1.33, 1.36, 1.27, 1.34]


def test_plan_alternates_the_first_side_and_takes_a_fresh_seed_per_pair():
    plan = ab_pairs.plan(4, 11)
    assert [seed for seed, _ in plan] == [11, 12, 13, 14]
    assert [order for _, order in plan] == [("parent", "change"), ("change", "parent")] * 2


def test_quartiles_are_inclusive_quantiles():
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_rule_holds_with_nine_wins_and_a_gap_beyond_the_quartile_distance():
    change = [p - 0.25 for p in PARENT]
    change[3] = 1.40  # one loss
    s = ab_pairs.summarize(PARENT, change)
    assert s["wins"] == 9 and s["wins_needed"] == 9
    assert s["parent"] == pytest.approx((1.2925, 1.315, 1.3375))
    assert s["parent_iqr"] == pytest.approx(0.045)
    assert s["gap"] > s["parent_iqr"]
    assert s["holds"]


def test_gain_rule_fails_with_eight_wins():
    change = [p - 0.25 for p in PARENT]
    change[3] = change[5] = 1.40
    s = ab_pairs.summarize(PARENT, change)
    assert s["wins"] == 8
    assert not s["holds"]


def test_gain_rule_fails_when_the_gap_is_inside_the_quartile_distance():
    change = [p - 0.01 for p in PARENT]  # wins every pair by less than the spread
    s = ab_pairs.summarize(PARENT, change)
    assert s["wins"] == 10
    assert s["gap"] == pytest.approx(0.01)
    assert not s["holds"]


def test_ties_are_not_wins_and_lengths_must_match():
    assert ab_pairs.summarize([1.0, 2.0], [1.0, 2.0])["wins"] == 0
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0], [1.0, 2.0])


def test_result_line_is_the_last_json_line():
    out = 'workload x\nrun_s = 1 s\n{"correct": true, "failed": 0, "metrics": {}}\n\n'
    assert ab_pairs.result_line(out) == {"correct": True, "failed": 0, "metrics": {}}
    with pytest.raises(ValueError):
        ab_pairs.result_line("\n")


def _checkout(root, label):
    for name in ab_pairs.STAGED:
        (root / name).mkdir(parents=True)
        (root / name / "side.txt").write_text(label)
    return root


def test_both_sides_run_from_one_staging_path_with_their_own_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(ab_pairs, "STAGING", tmp_path / "staging")
    roots = {side: _checkout(tmp_path / f"{side}_checkout", side) for side in ab_pairs.SIDES}
    seen = []

    def fake_run(argv, cwd, **kwargs):
        staged = {name: (Path(cwd) / name / "side.txt").read_text() for name in ab_pairs.STAGED}
        seen.append((Path(cwd), staged))
        doc = {"correct": True, "failed": 0,
               "metrics": {m: {"value": 1.0} for m in ab_pairs.METRICS}}
        return ab_pairs.subprocess.CompletedProcess(argv, 0, json.dumps(doc) + "\n", "")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    code = ab_pairs.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                          "--workload", "classify_gallery", "--pairs", "2"])
    assert code == 0
    assert {cwd for cwd, _ in seen} == {tmp_path / "staging"}
    sides = [side for _, order in ab_pairs.plan(2, 1) for side in order]
    assert [staged for _, staged in seen] == [dict.fromkeys(ab_pairs.STAGED, side)
                                              for side in sides]
