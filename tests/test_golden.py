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
import pytest

from radsolve import transforms
from radsolve.cli import load_config, main
from radsolve.conditions import classify
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
        "d3e6bfe8e0dced204026f10e6f0ba696b219f01bcd46d5d022a21deae188f03a",
    "classify_bounded_cubic": 0,
    "classify_bounded_cubic/report.json":
        "7223569d92ff6adc38c7d37fc4d93bf0ee47ae8a359cbc605f203ca3b7e18a2b",
    "classify_coupled_sweep": 0,
    "classify_coupled_sweep/report.json":
        "0b3f407ced183eae36d903254c39a82cbe145756b08fa91206a3402c34224a75",
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
# whose exponents differ (1.6, 2.5), so the remark reuses the growth tests of
# component 1, whose p is min_p, and probes component 2 again at min_p on the same
# block; and f = exp(u1), whose F, Ye-Zhou, reciprocal-power and primitive probes
# all stop at the overflow in the last octave.
SHARING_RUNS = {
    "classify_p_apart": {
        "problem": {"N": 3, "d": 2, "p": [1.6, 2.5], "h": ["0", "0.5/(1+r)"],
                    "a": ["1", "exp(-r)"], "f": ["u2 + sqrt(u1)", "u1^2 + u2"],
                    "F_anchor": 1.0},
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
    "classify_p_apart": 5,
    "classify_p_apart/report.json":
        "21c36d35c1f49785230e0bd56b8323501e6fcfcfba43523fef47510b727c74c1",
    "classify_exp_overflow": 5,
    "classify_exp_overflow/report.json":
        "23ee757055e49c32002d1140c92d53ca63af9b9b5e938b4e6d4024387ae036c8",
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


@pytest.mark.parametrize("stem, evaluations", [("bounded_cubic", 1), ("coupled_sweep", 2)])
def test_classify_evaluates_each_f_on_the_diagonal_once(monkeypatch, stem, evaluations):
    # the F probe, the monotonicity check, C6 and both bracket checks read f_j off the
    # samples of spec.diagonal(j) on the one probe block
    cfg = load_config(CONFIGS / f"{stem}.json")
    writeable = []

    def counting(e, env):
        if "u1" in env:
            writeable.append(env["u1"].flags.writeable)
        return evaluate_array(e, env)

    monkeypatch.setattr(transforms, "evaluate_array", counting)
    classify(cfg.spec, cfg.betas[0].values, cfg.probe)
    assert writeable == [False] * evaluations


@pytest.mark.parametrize("anchor", [1e-20, 2.0])
def test_an_F_anchor_key_in_the_config_is_ignored(tmp_path, anchor):
    # F starts at probes.r_start, where every probe starts, so a config's F_anchor
    # changes nothing but the echoed config: bounded_cubic stays Thm2-bounded
    doc = json.loads((CONFIGS / "bounded_cubic.json").read_text(encoding="utf-8"))
    moved = json.loads(json.dumps(doc))
    moved["problem"]["F_anchor"] = anchor
    reports = []
    for name, config in (("shipped", doc), ("moved", moved)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["classify", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    shipped, got = reports
    assert got["classification"]["theorem"] == "Thm2-bounded"
    assert got.pop("config") == moved and shipped.pop("config") == doc
    assert got == shipped


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
        "d01a915be5301107d916a035153baf44663db48a858f524d506c9f801ab41cba",
    "classify_lair_expr_error_midway": 5,
    "classify_lair_expr_error_midway/report.json":
        "b55f3a9b5aa12bc53cffedfddd13bb8ffb5472ac16797f6843867d7789439d9b",
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
                        "f": [unparse(e) for e in spec.f], "F_anchor": 1.0},
            "grid": {"R": grid.horizon, "M": grid.intervals},
            "beta": list(central.values)}


SUITE_REPORT_GOLDEN = [  # (exit code, report SHA-256)
    (0, "bd7c6159449949630134f9d15cca9dec9721b2e26c034427622c1410d0faec0b"),
    (0, "5e4eb789d6eeee509114f149e2600983f3468a8a3db04f9f36a3d8bc56262beb"),
    (0, "b157cc67ac19e5397620db049a5fa11e492159ca0823bc60eae6f7aab2c5ce79"),
    (0, "ee1997072e0022851ef209d719d92d5f1f6664315699fe7ffeddfbd5d018e866"),
    (0, "1b9c15a7191abc1f44dd5eb7ecada9abec3679a2269c125b2786f9905a9c4b7c"),
    (5, "10496681746ca47d6040fb453de40983561aeaa36e8c2b27430af4a68bc4f6e7"),
    (0, "5e4ed53794e54c9d23addc6c9c0f6ccb366cd701140b24d8c686ec16d5f23729"),
    (5, "cb141a59c836c03484cc2ae8289441980001c90c83307718d23309cdb83c13c2"),
    (5, "feb884a86899151e5f8f027ac097a70a65261a6dc400687619c7b126964d79fc"),
    (5, "00628562284d0ec6d79168fa3f7325db71689dfcb03b809b16c14f356edae570"),
    (0, "a11dd4e8986ba8d832db385f3c960054759ce5c784cbe736382ef418c260b3ef"),
    (5, "000e506265c3c634ade659a931f4628e5bdb0e72dd83ae119f227aa685c87fc7"),
    (0, "4d8abd7a9f81d6fd8c371bb309bfa85069f19b9dce4a9917c893ad0b33b1dc00"),
    (0, "d98734885bc37de13f6fae1f21f2685b783b2c12f2eaa88305efb1abff837df8"),
    (0, "c6a0486f1476573339c2c99408cd1c81a5b698051a4f83ea4bdd107c6da79a9f"),
    (5, "0f85aecb2da1eda65135bb8c02afd0736becf4f1f57f232b3e3dc21231a8793f"),
    (5, "736fdbe695bb2ee99e1d6fc866f528e64837ac7d45ffc5cce5051e484c34b8de"),
    (0, "fb130890a907d26e449b53c2c3a25755fd10590009ecdcf0070a7737134fb6d9"),
    (0, "b119b22bbf34b513bf15205deada3deeaed114b1e8c501671841ba927ce0ae7a"),
    (0, "88d98304b6b2587b2d43bf045b260899f88ca012cec1c0fffc69535573d75118"),
    (0, "56ea15fee7893e4758d0ec7b46a745d95e90c81042106c3678a3ededc140d34b"),
    (5, "fb71f1441758c6033c66bfecddf2e3530eda776e1deeed72473ed96505952038"),
    (5, "f8f2e60c5a60ffad708238192a26cdeb06bfd37c525fd41babc12edeb4431d80"),
    (5, "aa00496bfbfda92f25d72daf5fcbadcfd7d268e2a4780f4cbd06ea5d00c98d52"),
]


def test_classify_reports_on_the_random_suite_are_byte_identical(tmp_path, random_suite):
    runs = {f"suite_{i:02d}": _suite_config(*case) for i, case in enumerate(random_suite)}
    got = classify_digests(tmp_path, runs)
    assert [(got[name], got[f"{name}/report.json"]) for name in runs] == SUITE_REPORT_GOLDEN
