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
        "39ad5ee890bbd9b60d2632d983e9472b7245f17e9c7c352516a5af0e7a770cba",
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
        "9e63de9dc9f4c3d0bef1e2d9bfa9c37baa1bed48a79df04a18ee8f0d66a66cba",
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
    (0, "bf811212630e9f1e556e95b35723e9da1b1a1732192255db4ea9bf539cbbda8a"),
    (0, "cf41cfefc8eed545d024750c484ef94f6235794d62a20d990e640ee51841a328"),
    (5, "84e06f2f8ab1150deb3f8948e4e9ae58de4454d6753b720428c7e527be3c964b"),
    (0, "d6bdfe5c402e4d19689745052473e92e638304ea67535697da1142f626767df1"),
    (5, "fbbc7293e19ea45b314836e2a064257ab7dee5bfda0ec5dc4e2144070d0369d2"),
    (5, "816e01aefbc3e739dd0a3a2d7f4955617377663f038753423ab4801ff5786a2a"),
    (5, "0881aad7a3b92c8e13daba88b38c7920bbee24c80d3a8fa06f698fb25cb11fd6"),
    (0, "9a6bd4762985d06be8d64b9d5b5f1beb54ca885d984cf425d1050a99a58ec8cc"),
    (5, "3a18d99e29504dd9963568f1de10d311f37c07a8315be955b539ee8195f49508"),
    (0, "ef2a0ac5a156eeb6efefbbd831d5ece4caa20e3795ef040d2814dfaf1cabe64b"),
    (0, "ac91954bf4d25fd8308463db7e84d551933935a37d5d164cd119de1d23b5afd7"),
    (0, "ccf7ed2efdeac8c8a1d47e55f3058da8c64f3676b355d182c1f7f2fb9180d83c"),
    (5, "ebb88b1724998a921f19b0e34cf5283d96c3d496296b38d94a5dcfe32cba70b9"),
    (5, "8faecee2528e16518e5b898d17d3d4c8762c95f34222f5c645ce8d072988abbf"),
    (0, "ebe2e0660f239f35c6ef6dd3d02370a51cf71b7cbde0f86515fe9e4b7bfe17b2"),
    (0, "5cef0b33b71c02d7c61181cc8e50b788bddf90215d6bb9f84c1d40d2b0e19906"),
    (0, "5bf8afb82463b32a0838720dbc7c26495843e772a9b0958507336d12d5db650a"),
    (0, "103cbd703504ab70440791b77fbe45dda8aed434f292508451f15762d0eb07c1"),
    (5, "4ea4938b792840281641dccd0d16693a789c877dff2bd79ed1e42242231b94c1"),
    (5, "58aa94acc4b5805cacb9fbf91636059293bcc5f8c2b2a8f25e15100e9b83ac41"),
    (5, "83e078e238acce93ac9e9ba5b1df53613fc4a0b4d192e4f5b01670a4b4da16f0"),
]


def test_classify_reports_on_the_random_suite_are_byte_identical(tmp_path, random_suite):
    runs = {f"suite_{i:02d}": _suite_config(*case) for i, case in enumerate(random_suite)}
    got = classify_digests(tmp_path, runs)
    assert [(got[name], got[f"{name}/report.json"]) for name in runs] == SUITE_REPORT_GOLDEN
