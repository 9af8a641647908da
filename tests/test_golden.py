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
        "bd1c0c8e05e40b9047912bd9b88412823eba9d11915454346afcf72274784a57",
    "classify_bounded_cubic": 0,
    "classify_bounded_cubic/report.json":
        "c67c09b86533e165a146d189d2b359a5790681e1da72b7698a8115e069fd3a68",
    "classify_coupled_sweep": 0,
    "classify_coupled_sweep/report.json":
        "f94f093ca2e3dfab864f75ddc8458fa0c5c057152c12bdcd67a730f83bcdf90a",
    "solve_sinh_oracle": 0,
    "solve_sinh_oracle/report.json":
        "e8058708ae9afe901db1f0be73fe854405590cf9437726ea59050d48b4ecba51",
    "solve_sinh_oracle/solution_000.csv":
        "b7e9429b1b2e5eda299aaa8411ef6bad6537b82af897d5b80e30b1c2a3878745",
    "solve_bounded_cubic": 0,
    "solve_bounded_cubic/report.json":
        "ccc8c23ffe9083ec0346ac3d7a4776468bc25c9b7db10b6446cc28d6fbae5f97",
    "solve_bounded_cubic/solution_000.csv":
        "2cddf92fa3129a9e0b3152e1703439c7eddb2f843ad84754dc4800a998b93419",
    "sweep_coupled_sweep": 0,
    "sweep_coupled_sweep/report.json":
        "2cb4c66a34373d5d961728cb22f33b514fd96dd850aa54f47a966705ce68608c",
    "sweep_coupled_sweep/solution_000.csv":
        "a7ac9bf74f12d2c4d15710c76498c0ae31a91b00123d194816c76d2763e3376e",
    "sweep_coupled_sweep/solution_001.csv":
        "c3f3b880684e4828aedc393850df41e371bbd1bd6937fc1cd17ed2039d7791ea",
    "sweep_coupled_sweep/solution_002.csv":
        "82f078954d8fceee27d198d086b96992dc2200fff917e0c9c9a9cd7e7e774cc7",
    "sweep_coupled_sweep/sweep_table.csv":
        "657cfd944030333b9c8b11b35f2a4899625c670b1c2e15e437b0d3fa6f1379ed",
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
# all stop at the overflow in the last octave, and whose bracket checks keep the
# octave edges 1 .. 512 before it.
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
        "0bf49051297f6fe4378382dd7eebed148de27bc5b4fa1cc4e68d746a7dc922e3",
    "classify_exp_overflow": 5,
    "classify_exp_overflow/report.json":
        "f0c4ce541697cddd05c7d17888682384a5e5dcc110792eeee465fdec4bd7d1e4",
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
    # f is evaluated once per octave, once on the whole block that failed, and once on
    # the head [0, 1] of the block from 0 (2 * 256 intervals), which the primitive reads
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
    assert len(sizes) <= 12 and sizes.count(2 * 256 + 1) == 1


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
        "f0f82b7fdd2521eb69ec837a746d0bc0580bf6178dc568712ef8b2558766870d",
    "classify_lair_expr_error_midway": 5,
    "classify_lair_expr_error_midway/report.json":
        "5b0d02729d3ff3ae8c0324381601426d1931f3d381e3d8d141c699610b5932af",
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
    (0, "fec4076fd03a8e1f51b388f05dea7f7cb50fd42a179d226001d747f34157876b"),
    (0, "36883b73a3ca8d54b1682b67748cd212ce23f1013ded152d855d9ab19e390fc1"),
    (0, "c9834837f7680480cc2ddae020445b9ea6ffeb64d3f8428e84d40f2fc74abcd4"),
    (0, "78a70d5eb3c87692e01b786a708bc5fbf0e628b832dad55ea9f1538d87d2997b"),
    (0, "55eb23b7c3d2edb2be9e14c80b88e34348ee57b52e125b9be8a692d922f704bd"),
    (5, "90f562b806044233f7027a1d85b86e2c2e43ac74fd6d0e083c2d5df84693ce33"),
    (0, "56314c353a242e2ebd0c883ea138659522dcc93be9a4b93ff597cb80c82f3a22"),
    (5, "fe9646e46a3f04ec3fd0cd169b9cad0923a0adcd45d404bf30059038364e8799"),
    (5, "8d536a73e9ce731b22827e62a003fef913f0e4f670274cccf124ced10314120b"),
    (5, "5425b528257584a8feae4de5f4249c08773803975034e988de140248f593222f"),
    (0, "aa7b755daa0e024c1946c8134a5bf9a4ff20044e3f2719ddc6c594dc947bb66e"),
    (5, "1b1ff1d7a266bdca99601198c960eadd9954f0e69e00eece812d5e73d51ff3c3"),
    (0, "9fef438dabb51aafa0a71d389f06a022ff066c2ab865d016705f8fed1b09268a"),
    (0, "245e2e07a3f0594035617c621049d43ac0d51da744a794233a031cac171ded91"),
    (0, "ed2ea874052471f8ab2cc251aa3efd1f9f532cae9ef43ebb7ef5a7d0da49dfe3"),
    (5, "2c5dea7e1a0399435cc80d32f823a56287fe69b7d138f612203e573cd40d4653"),
    (5, "2f42165c5aad0b2a8b1cb1e86c15dc848a27bbc70cd056e2d59a2508d2d5c712"),
    (0, "bd44522ed1c89842cdd737c4c121fcaf5350495a1d7cc9aba9659456f8007303"),
    (0, "7d58bb54a718332a51f48f8ffcb18cc2af3b1561fbbf74493ec09d9c0b1e70cd"),
    (0, "73f2a31ac631d86edeea275d4f49555349fa6b49434ad411c31d9769944840ad"),
    (0, "08fb4c3d5167052ea6ec457bc2c657b49399f322f0f07d9b4a9cdde66a822917"),
    (5, "0ddaa8019220c910141b4e9b0580ec37f750b7687f66a125d485506cf1655f11"),
    (5, "70e1d45c3a26f5b5e1965d0616df8a5e3b8a312800d21b4420a07381169f58a0"),
    (5, "d2309856cca58b6285e89746ab23de2b319ccc6bc68a9519992dd3993ab79bb5"),
]


def test_classify_reports_on_the_random_suite_are_byte_identical(tmp_path, random_suite):
    runs = {f"suite_{i:02d}": _suite_config(*case) for i, case in enumerate(random_suite)}
    got = classify_digests(tmp_path, runs)
    assert [(got[name], got[f"{name}/report.json"]) for name in runs] == SUITE_REPORT_GOLDEN
