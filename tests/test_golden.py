"""Byte-level regression of the CLI artifacts on the shipped configs.

The digests pin every ``report.json`` and solution CSV that ``classify`` (all
three shipped configs), ``solve`` (``sinh_oracle`` and ``bounded_cubic``) and
``sweep`` (``coupled_sweep``) write, and the ``verify_report.json`` that
``verify`` writes for the solved ``sinh_oracle`` CSV, the reports of two
classify runs that probe the sharing of diagonal work, the reports of two
classify runs whose probes stop at a domain error in mid-horizon, and the classify
report of each instance of the randomized test suite.  A refactor that is meant
to leave the numerics alone must leave these bytes alone; a change that is
meant to move a number updates the digest and says why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from radsolve import transforms
from radsolve.cli import main
from radsolve.exprlang import evaluate_array, unparse

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
        "f834e35bbe76c34b2ede3183c11bf42b70e43ce0816488c76e7079ae86d48b4b",
    "classify_bounded_cubic": 0,
    "classify_bounded_cubic/report.json":
        "3804b118ab0880193d44e3e6dc5508474e3a5e537a4e17c37d9da4f299af9123",
    "classify_coupled_sweep": 0,
    "classify_coupled_sweep/report.json":
        "5344bda2dbfbf24736dcc1b77682bedbef4e6c8bb33e9dddf4397877a4e772a6",
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
# primitive is taken on another block than the remark one; and f = exp(u1),
# whose F, Ye-Zhou, reciprocal-power and primitive probes all stop at the
# overflow in the last octave.
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
        "80dc287c77bbeee054fb2d7aac12987b25e962f1ee7ef3e4a08d181a763c458a",
    "classify_exp_overflow": 5,
    "classify_exp_overflow/report.json":
        "4132d9c818d42d58998baa06ec366cc27ddf504f538bf877bca146a418cdfecb",
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


def test_probes_stopped_by_an_overflow_share_their_octave_samples(tmp_path, monkeypatch):
    # f = exp(u1) overflows in the last octave, so every diagonal probe samples f
    # octave by octave; the octaves are the same read-only views for each probe, and
    # f is evaluated once per octave and once on the whole block that failed
    sizes = []

    def counting(e, env):
        s = env.get("u1")
        if isinstance(s, np.ndarray) and not s.flags.writeable:  # a probe's nodes
            sizes.append(s.size)
        return evaluate_array(e, env)

    monkeypatch.setattr(transforms, "evaluate_array", counting)
    runs = {"classify_exp_overflow": SHARING_RUNS["classify_exp_overflow"]}
    assert classify_digests(tmp_path, runs) == {
        key: value for key, value in SHARING_GOLDEN.items() if "exp_overflow" in key}
    assert len(sizes) <= 11


# Two classify runs whose probes stop at a domain error in mid-horizon, the
# octave [32, 64] that holds r = 40.  In the first, f_1 fails there on the
# diagonal (the F, Ye-Zhou, reciprocal-power and primitive probes of
# component 1 keep five octaves), and 1/f_2 is infinite at s = 1 although f_2
# fails only at 80 (those probes keep no octave, its primitive probes six).  In the
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
        "d2e78c48cd6d9ac4d1fe432aac61c1853cb1394cf98e6675660371930b4e0394",
    "classify_lair_expr_error_midway": 5,
    "classify_lair_expr_error_midway/report.json":
        "3ea97ae2d45db0a0c6f507b22f2e438db883a4f59c9e635d1ed4ed807aa3348e",
}


def test_classify_with_probes_stopped_midway_is_byte_identical(tmp_path):
    assert classify_digests(tmp_path, FALLBACK_RUNS) == FALLBACK_GOLDEN


# The full ``classify`` report (classification and the auxiliary Keller-Osserman,
# Ye-Zhou, remark and Lair probes) of each instance of the randomized suite of
# ``conftest.build_suite``, written from its expressions' ``unparse``.  The
# verdict pin in test_conditions.py cannot tell a moved digit; these can.
def _suite_config(spec, central, grid) -> dict:
    return {"problem": {"N": spec.N, "d": spec.d, "p": list(spec.p),
                        "h": [unparse(e) for e in spec.h], "a": [unparse(e) for e in spec.a],
                        "f": [unparse(e) for e in spec.f], "F_anchor": spec.anchor},
            "grid": {"R": grid.horizon, "M": grid.intervals},
            "beta": list(central.values)}


SUITE_REPORT_GOLDEN = [  # (exit code, report SHA-256)
    (0, "6d8d559d1f5506cc1bd0cc05b91007121b41d5b755bfd574342ca0ece6b5ae32"),
    (0, "62903209d191c159fbe9b92e5afb41612af1bcf4e4ca9a1778085f6658581b53"),
    (0, "2fa3ffed57f0ca20ea63a3917635a4ef764ef2ca79bf71ee6663304ff4a18289"),
    (0, "aac2e6efde17eaf247a709d44d3fcfb318e7351849616f44d628fb5da3b58560"),
    (0, "2af36998e134c63368b99a7ffe32f9d03c114f5f9e3f7701201fcc4e26881cc8"),
    (5, "de96c3fa8e74c354fa9c5f9dd9458a4d59abd0c3fc5c77b29ed01402766512d9"),
    (0, "0b80b368e21a9e6aeb7ad51c3b01d0f41abe51ad067c30659980694cdd3cc95a"),
    (5, "e30b5e5054624737f25677b203f7f46dc289e01840eb888392f028c9d6c2309b"),
    (5, "3de0aab7d4987967a7071e9d77e8c1b04077d7fad7d041ff83a1177c04ca09a2"),
    (5, "714cfcfc8dd4462d2a2e096c46549e685929c1e5d42ee1791abc3cf740964582"),
    (0, "2fe04f57a7e0c43ca9d1813192998404c5372ea4c00fb9925d684a4c92137eee"),
    (5, "9d32b8a0a0bd776a46a7b39cc51e1254698c71f1edc12ee837fdbd433c91b196"),
    (0, "9fdfe440c9ae0c83a431c05d79bdc5bd3f2ec10a1b82425943a9295ca3d412e1"),
    (0, "00f50b04fe44736255513a24b8c2acc7eaf76500272b50d6c8706792f9af5918"),
    (0, "e6e73b9a052e5c947075cf20679833c4f4ab25d3fd19f7cdba83d3c9b38a119c"),
    (5, "d1fa09be5150b02a9c449d604e4fff69e67562c093b43a75b4d2fb5257544400"),
    (5, "faf0b058f74609e349e02b87d7f6549508fb1380efcc471052b2a4376b001a11"),
    (0, "621d87eca201b02240eedf59accd5ed2cf36802151a42781e2dd52db36bf5c13"),
    (0, "7dc44f61da0773e22fdd9f17b87469ac9a6a94c1d54ab359f9b407890b607f60"),
    (0, "0794449d7d3e4434bf8967d12ab6dc097429aeeac99b4a1ad44729bdf89fde5e"),
    (0, "103cbd703504ab70440791b77fbe45dda8aed434f292508451f15762d0eb07c1"),
    (5, "29119fe2246ab86f9f08018880adb7d69c5c9519683339afbcb863daa707320a"),
    (5, "b32cade33ba2a4a04baabb889fa3d121bbe3368aecc6ee388863f50a6e81d0e6"),
    (5, "74ae16c9e7a4c4ead5eb6e2506bb93e5d3cf8cdbd3c59dde07de7a3d474c5f80"),
]


def test_classify_reports_on_the_random_suite_are_byte_identical(tmp_path, random_suite):
    runs = {f"suite_{i:02d}": _suite_config(*case) for i, case in enumerate(random_suite)}
    got = classify_digests(tmp_path, runs)
    assert [(got[name], got[f"{name}/report.json"]) for name in runs] == SUITE_REPORT_GOLDEN
