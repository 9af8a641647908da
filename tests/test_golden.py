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
        "66cb3584fc6e3836ce3541d2fab50c27106b6d95cdde1b85b9732209a9cb6766",
    "classify_coupled_sweep": 0,
    "classify_coupled_sweep/report.json":
        "067190910c2c74b92707520e404b352c4f9172258810c23f929e161cbf1ba1dc",
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
        "9c6e96d4537d884abd3ad333193007af8581d7daf18beef5b02618e385131057",
    "classify_exp_overflow": 5,
    "classify_exp_overflow/report.json":
        "e0cb73a7bfc66765b6a302b003f97b41974ddd02c333a6ea0963483c0144136c",
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
        "3f442f838ab23191e2a79dd9178ab07b5bcebc3d3bebc088e34aad32ab42b132",
    "classify_lair_expr_error_midway": 5,
    "classify_lair_expr_error_midway/report.json":
        "dd03a4510024fd9e579552481ea164c37856ca583cba43df9796b07514261ff0",
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
    (0, "dcbbfe9406649b05533b23dbfbd663dfe5db36a4c5a1a139d51c8d267eae1364"),
    (0, "36883b73a3ca8d54b1682b67748cd212ce23f1013ded152d855d9ab19e390fc1"),
    (0, "7e70ecd7b54f585b52b1f2eb2e411a435782d9e0d4b7a841889b79169dea082b"),
    (0, "e43750692b4ce0e3abc9ce2d30f8b4a8fa018b28f74346e504614c1d9a1c32c2"),
    (0, "3b084aa3fd9c160e40ce3b84b21e427ad586fc23d015420769d29c3cfb10a163"),
    (5, "d919f54ca3268d905e7b4568be001f313fc5f3b984bb760c16dfb61e2829def1"),
    (0, "c59a0d9161e8ae60b4f60a0405e55afa931d3983f6ad778b05fb4a5236c038e6"),
    (5, "38dbdcbdaa9d322960f1bab1ecc23066607a1a16f0812034a66dab6195a18eb7"),
    (5, "f0299516aec21261acbb603913ebe05922b531399e7294310553a349115e5a2f"),
    (5, "2463e895f5d4f710ab0b5a44f51b9009f07d06b8800a0cb7fb38dbc3a129b3c7"),
    (0, "319ed3f6ee4ab04dc65cdcb8468798708c35e8f6af145b40f1f9ce63f246811b"),
    (5, "c290c889421112f936937fa8dcddb0ce4ea84f7461a3141cac2b0d11c7c94c97"),
    (0, "90f03f0f27f548dabad37c33522749b3c967f3052988e4f36a13299e7c8c57a4"),
    (0, "8654699a692469e1bf632a2e43d103044a4018159ef365b5a5e80840a71064c6"),
    (0, "4a1e3e862367bd48365bec3bc8e6ff322fd97f2d4391c268c3be1038050d8400"),
    (5, "62b1e6f2ccc3a591c7f57db4a7b4c3c77aed477f8c971ae49cedd4adc580efab"),
    (5, "69cb5d4f1e28643dcd28d717f1bf0dbb4307af3ff1a64934c6b469cc2d2b5c6e"),
    (0, "4bb3346314cf28c44878cb9318a18920ae91057ede862e6677f4eb62da45aff3"),
    (0, "8520d8108842351d574284f8fd571bdd5dd2f57a99ae0e1fcfbc7e90097549a5"),
    (0, "cb4935355d8ad1e4e2d113b1ed4e7681b9a89e12e98b6aec114915941c220bdd"),
    (0, "b9e30b44bff58798384e185c8402475d21d012ce97eff38e1a70cd98dd33745a"),
    (5, "0f564d90ff4f585524a813b80ee082b12840ec6da47f82ce33aab8c59423db73"),
    (5, "92be8bb5a0329a458bd92b400d55bf825d18d1d95f8187f256834a2e54665025"),
    (5, "4b4078b6b4db19d5ca772f94558885b22687e96d63b06e111acb163081d092d1"),
]


def test_classify_reports_on_the_random_suite_are_byte_identical(tmp_path, random_suite):
    runs = {f"suite_{i:02d}": _suite_config(*case) for i, case in enumerate(random_suite)}
    got = classify_digests(tmp_path, runs)
    assert [(got[name], got[f"{name}/report.json"]) for name in runs] == SUITE_REPORT_GOLDEN
