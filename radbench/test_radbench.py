"""Tests of the benchmark itself; run with `python -m pytest radbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from radbench import workloads
from radbench.tracer import LAYER_METRICS, LAYERS, Tracer

workloads.import_radsolve()

RUN = workloads.ROOT / "radbench" / "run.py"


def _bindings() -> dict:
    """Every name bound in a radsolve module, plus the traced class methods."""
    from radsolve.quadrature import CumulativeInterpolant

    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "radsolve":
            out.update({(name, attr): value for attr, value in vars(module).items()})
    out.update({("CumulativeInterpolant", attr): value
                for attr, value in vars(CumulativeInterpolant).items()})
    return out


def _changed(before: dict, after: dict) -> list:
    return [key for key in before.keys() | after.keys()
            if key not in before or key not in after or after[key] is not before[key]]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_writes_the_same_bytes(name, tmp_path):
    workload = workloads.build(name, 3, tmp_path / "work")
    pass_dir = tmp_path / "pass"
    pass_dir.mkdir()
    plain = workloads.run_pass(workload, pass_dir)
    reference = workloads.snapshot(pass_dir)
    shutil.rmtree(pass_dir)
    pass_dir.mkdir()
    with Tracer() as tracer:
        traced = workloads.run_pass(workload, pass_dir)

    assert plain.failures == [] and traced.failures == []
    assert any(path.endswith("report.json") for path in reference)
    if name != "classify_gallery":
        assert any(path.endswith(".csv") for path in reference)
    assert workloads.snapshot(pass_dir) == reference

    metrics = tracer.metrics()
    assert set(metrics) == {m for m, _, _ in LAYER_METRICS} - {"trace.overhead_s"}
    roots = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    self_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert self_total == pytest.approx(roots, rel=1e-9)


def test_wrappers_are_removed_after_tracing(tmp_path):
    before = _bindings()
    workload = workloads.build("solve_large_grid", 0, tmp_path / "work")
    with Tracer():
        assert _changed(before, _bindings())
        workloads.run_pass(workload, tmp_path)
    assert _changed(before, _bindings()) == []

    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _changed(before, _bindings()) == []


def test_gallery_follows_the_seed():
    from radsolve.cli import parse_config

    first = workloads.gallery(7)
    assert len(first) == workloads.GALLERY_SIZE
    assert workloads.gallery(7) == first
    assert workloads.gallery(8) != first
    for doc in first:
        parse_config(doc)


def test_failed_command_is_counted_not_raised(tmp_path):
    # a source that turns negative on the grid makes `solve` raise
    doc = {"problem": {"N": 3, "d": 1, "p": [2.0], "h": ["0"], "a": ["1-r"], "f": ["u1"]},
           "grid": {"R": 3.0, "M": 64}, "beta": 1.0}
    raising = tmp_path / "raising.json"
    raising.write_text(json.dumps(doc), encoding="utf-8")
    ops = (workloads.Op("classify missing", ("classify", "--config", str(tmp_path / "none.json")),
                        "none", frozenset({0}), lambda out, code: {}),
           workloads.Op("solve raising", ("solve", "--config", str(raising)),
                        "raising", frozenset({0}), lambda out, code: {}))
    result = workloads.run_pass(workloads.Workload("bad", ops, ()), tmp_path)
    assert len(result.failures) == 2
    assert "exit code 2" in result.failures[0] and "raised ValueError" in result.failures[1]


def test_result_line_has_the_contract_keys():
    out = subprocess.run([sys.executable, str(RUN), "--workload", "solve_large_grid",
                          "--seed", "1", "--seconds", "0.1", "--trace", "0"],
                         cwd=workloads.ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(workloads.ROOT / "radbench", tmp_path / "radbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "radbench/run.py", "--workload", "sweep_coupled",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
