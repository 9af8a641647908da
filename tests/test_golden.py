"""Byte-level regression of the CLI artifacts on the shipped configs.

The digests pin every ``report.json`` and solution CSV that ``classify`` (all
three shipped configs) and ``solve`` (``sinh_oracle`` and ``bounded_cubic``)
write.  A refactor that is meant to leave the numerics alone must leave these
bytes alone; a change that is meant to move a number updates the digest and
says why.  ``sweep`` and the ``coupled_sweep`` solve are left out because they
take seconds, not tenths of a second.
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
)

GOLDEN = {
    "classify_sinh_oracle": 0,
    "classify_sinh_oracle/report.json":
        "cd3684c7b1d6abd29a9c0e68b28a3b3600b5f93a767418ffee7c9b420c1aedb3",
    "classify_bounded_cubic": 0,
    "classify_bounded_cubic/report.json":
        "9a427f0d6b12475f4fda992b18e43fc51f6d76533f61bf21618c69604f9fde25",
    "classify_coupled_sweep": 0,
    "classify_coupled_sweep/report.json":
        "4432d6e8cd9bbae6d6c61a52d07f2cc9598c3b22566037c92320634d012012cc",
    "solve_sinh_oracle": 0,
    "solve_sinh_oracle/report.json":
        "e8058708ae9afe901db1f0be73fe854405590cf9437726ea59050d48b4ecba51",
    "solve_sinh_oracle/solution_000.csv":
        "cc1f5f2dc31bf0c15dec75227b12de48656159057b554fc2fe6bd7109a5fc55a",
    "solve_bounded_cubic": 0,
    "solve_bounded_cubic/report.json":
        "ccc8c23ffe9083ec0346ac3d7a4776468bc25c9b7db10b6446cc28d6fbae5f97",
    "solve_bounded_cubic/solution_000.csv":
        "7c1085d741af73b26ff3fcf7c6f19ed1cf5efcfc430708a294fc4bcf4e23275c",
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
