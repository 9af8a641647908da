"""Byte-level regression of the CLI artifacts on the shipped configs.

The digests pin every ``report.json`` and solution CSV that ``classify`` (all
three shipped configs), ``solve`` (``sinh_oracle`` and ``bounded_cubic``) and
``sweep`` (``coupled_sweep``) write, and the ``verify_report.json`` that
``verify`` writes for the solved ``sinh_oracle`` CSV, the reports of two
classify runs that probe the sharing of diagonal work, and the reports of two
classify runs whose probes stop at a domain error in mid-horizon.  A refactor that is meant
to leave the numerics alone must leave these bytes alone; a change that is
meant to move a number updates the digest and says why.
"""

import contextlib
import hashlib
import io
import json
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
        "9f87a068eadcac082ec2e8de0fdc3f4e55556ad15d31d0a37ec4554e98209f78",
    "classify_bounded_cubic": 0,
    "classify_bounded_cubic/report.json":
        "ece255841ae563a135346ffdb5b3f4fb026c412f45582ea5da95bf82311f9918",
    "classify_coupled_sweep": 0,
    "classify_coupled_sweep/report.json":
        "51f8c39850b12b650cba9408b05c3171745df51576a6176456c998b5ec838783",
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


# Two classify runs that pin the sharing of diagonal work between probes: one
# whose F anchor (2) differs from the probe start (1), so the F and remark
# probes run on other octave arrays than Ye-Zhou and the Keller-Osserman
# primitive is tabulated to another horizon than the remark one; and f =
# exp(u1), whose F, Ye-Zhou and reciprocal-power probes overflow in the last
# octave and whose primitives cannot be tabulated.
SHARING_RUNS = {
    "classify_anchor_apart": {
        "problem": {"N": 3, "d": 2, "p": [1.6, 2.5], "h": ["0", "0.5/(1+r)"],
                    "a": ["1", "exp(-r)"], "f": ["u2 + sqrt(u1)", "u1^2 + u2"],
                    "F_anchor": 2.0},
        "grid": {"R": 2.0, "M": 200},
        "probes": {"K": 10, "r_start": 1.0},
        "beta": [1.0, 1.0],
    },
    "classify_exp_overflow": {
        "problem": {"N": 3, "d": 1, "p": [2.0], "h": ["0"], "a": ["1"],
                    "f": ["exp(u1)"], "F_anchor": 1.0},
        "grid": {"R": 1.0, "M": 200},
        "beta": 1.0,
    },
}

SHARING_GOLDEN = {
    "classify_anchor_apart": 5,
    "classify_anchor_apart/report.json":
        "585b276a6d62741b9e2f35088df4f2b63bda3c9203c7463d8a0fd3514ee47ebd",
    "classify_exp_overflow": 5,
    "classify_exp_overflow/report.json":
        "0384be52fd7ed982cc6622006df7e7f597077d7b1b9061748f07fe40ec163b6e",
}


def classify_digests(tmp_path: Path, runs: dict[str, dict]) -> dict[str, object]:
    """Exit code and report SHA-256 of a ``classify`` run per config document."""
    out: dict[str, object] = {}
    for name, doc in runs.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):
            out[name] = main(["classify", "--config", str(config),
                              "--out", str(tmp_path / name)])
        report = tmp_path / name / "report.json"
        out[f"{name}/report.json"] = hashlib.sha256(report.read_bytes()).hexdigest()
    return out


def test_classify_with_shared_diagonal_work_is_byte_identical(tmp_path):
    assert classify_digests(tmp_path, SHARING_RUNS) == SHARING_GOLDEN


# Two classify runs whose probes stop at a domain error in mid-horizon, the
# octave [32, 64] that holds r = 40.  In the first, f_1 fails there on the
# diagonal (the F, Ye-Zhou and reciprocal-power probes of component 1 keep
# five octaves, and no primitive can be tabulated), and 1/f_2 is infinite at
# s = 1 although f_2 fails only at 80 (those probes keep no octave).  In the
# second, a Lair-form instance, a_1 fails at r = 40: the first nested probe
# keeps five octaves, the second and the barrier A_1 cannot be built.
FALLBACK_RUNS = {
    "classify_expr_error_midway": {
        "problem": {"N": 3, "d": 2, "p": [2.0, 3.0], "h": ["0", "1/(1+r)"],
                    "a": ["1", "exp(-r)"],
                    "f": ["u2 + sqrt(40 - u1)*0", "(u1 - 1)^2 + sqrt(80 - u2)*0"]},
        "grid": {"R": 2.0, "M": 200},
        "beta": [1.0, 1.0],
    },
    "classify_lair_expr_error_midway": {
        "problem": {"N": 3, "d": 2, "p": [2.0, 2.0], "h": ["0", "0"],
                    "a": ["1/(1+r)^3 + sqrt(40 - r)*0", "1"], "f": ["u2^0.5", "u1^0.5"]},
        "grid": {"R": 2.0, "M": 200},
        "beta": [1.0, 1.0],
    },
}

FALLBACK_GOLDEN = {
    "classify_expr_error_midway": 5,
    "classify_expr_error_midway/report.json":
        "681ca127dff01aead67fbebac044da0af927a49dcbb60ce984eb36e5a9673028",
    "classify_lair_expr_error_midway": 5,
    "classify_lair_expr_error_midway/report.json":
        "08a846858747f90af0e82bb32a49aa7ef3b48752aede8a440dfba432d0de5f2a",
}


def test_classify_with_probes_stopped_midway_is_byte_identical(tmp_path):
    assert classify_digests(tmp_path, FALLBACK_RUNS) == FALLBACK_GOLDEN
