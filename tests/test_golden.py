"""Byte-level regression of the CLI artifacts on the shipped configs.

The digests pin every ``report.json`` and solution CSV that ``classify`` (all
three shipped configs), ``solve`` (``sinh_oracle`` and ``bounded_cubic``) and
``sweep`` (``coupled_sweep``) write, and the ``verify_report.json`` that
``verify`` writes for the solved ``sinh_oracle`` CSV.  A refactor that is meant
to leave the numerics alone must leave these bytes alone; a change that is
meant to move a number updates the digest and says why.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from radsolve.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RUNS = (
    ("classify", "sinh_oracle"),
    ("classify", "bounded_cubic"),
    ("classify", "coupled_sweep"),
    ("solve", "sinh_oracle"),
    ("solve", "bounded_cubic"),
    ("sweep", "coupled_sweep"),
)

GOLDEN = {
    "classify_sinh_oracle": 0,
    "classify_sinh_oracle/report.json":
        "cd3684c7b1d6abd29a9c0e68b28a3b3600b5f93a767418ffee7c9b420c1aedb3",
    "classify_bounded_cubic": 0,
    "classify_bounded_cubic/report.json":
        "482f2f7df767f03875809af4efddc85a789bb5efead5acdcce2906fd52281782",
    "classify_coupled_sweep": 0,
    "classify_coupled_sweep/report.json":
        "4432d6e8cd9bbae6d6c61a52d07f2cc9598c3b22566037c92320634d012012cc",
    "solve_sinh_oracle": 0,
    "solve_sinh_oracle/report.json":
        "e8058708ae9afe901db1f0be73fe854405590cf9437726ea59050d48b4ecba51",
    "solve_sinh_oracle/solution_000.csv":
        "7338364835b3aa3fdcb31b105ce6601d8b404c1b7def29d9c08a10991feec6c5",
    "solve_bounded_cubic": 0,
    "solve_bounded_cubic/report.json":
        "ccc8c23ffe9083ec0346ac3d7a4776468bc25c9b7db10b6446cc28d6fbae5f97",
    "solve_bounded_cubic/solution_000.csv":
        "c2daeac9b79763626448462d2f26ccd41427021821ddac8e4bbc0dc83e624f74",
    "sweep_coupled_sweep": 0,
    "sweep_coupled_sweep/report.json":
        "f81aab7e4f66c42e000098471e66e2758320fffd3141683b12eb849361de6fd0",
    "sweep_coupled_sweep/solution_000.csv":
        "c3e48feaff585ec7ee6ee726e3451fabd4360329934b238ac5cc6fd3a60a1209",
    "sweep_coupled_sweep/solution_001.csv":
        "c13176158edef39dea3c504796ad30b78071e864561ef2688cba9dbb0b0eb03f",
    "sweep_coupled_sweep/solution_002.csv":
        "0ef38893c629866fbd2944e4e023cff0c61ff4fd1cf31ca1694b776269cb354e",
    "sweep_coupled_sweep/sweep_table.csv":
        "8feaa8bfa6fccadd297094e05bc5a3cb373588e59f79c94e17bdebd6b12b9dd5",
}


def artifact_digests(tmp_path: Path) -> dict[str, object]:
    """Exit code and SHA-256 of every JSON and CSV each run writes."""
    out: dict[str, object] = {}
    for command, stem in RUNS:
        run_dir = tmp_path / f"{command}_{stem}"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(CONFIGS / f"{stem}.json"),
                         "--out", str(run_dir)])
        out[f"{command}_{stem}"] = code
        for path in sorted(run_dir.iterdir()):
            if path.suffix in (".json", ".csv"):
                key = f"{command}_{stem}/{path.name}"
                out[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_shipped_config_artifacts_are_byte_identical(tmp_path):
    assert artifact_digests(tmp_path) == GOLDEN


VERIFY_GOLDEN = {
    "solve": 0,
    "verify": 0,
    "verify/verify_report.json":
        "5eb487d5eba7b0515c630069de6705d391bf5e6309fafe5c3587417ed488fb5b",
}


def test_verify_of_a_solved_csv_is_byte_identical(tmp_path, monkeypatch):
    # relative paths, so the ``solution`` path echoed in the report is stable
    monkeypatch.chdir(tmp_path)
    config = str(CONFIGS / "sinh_oracle.json")
    out: dict[str, object] = {}
    with contextlib.redirect_stderr(io.StringIO()):
        out["solve"] = main(["solve", "--config", config, "--out", "solve"])
        out["verify"] = main(["verify", "--config", config, "--out", "verify",
                              "--solution", "solve/solution_000.csv"])
    report = Path("verify") / "verify_report.json"
    out["verify/verify_report.json"] = hashlib.sha256(report.read_bytes()).hexdigest()
    assert out == VERIFY_GOLDEN
