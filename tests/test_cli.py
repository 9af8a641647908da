import json
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from radsolve.cli import (
    ConfigError,
    canonical_json,
    load_config,
    main,
    parse_config,
    read_solution_csv,
    write_solution_csv,
)
from radsolve import quadrature, transforms
from radsolve.quadrature import CumulativeInterpolant, RadialGrid


def base_config(**overrides):
    doc = {
        "problem": {"N": 3, "d": 1, "p": [2.0], "h": ["0"], "a": ["1"],
                    "f": ["u1"], "F_anchor": 1.0},
        "grid": {"R": 3.0, "M": 300},
        "solver": {"tol": 1e-10, "max_iter": 5000},
        "probes": {"K": 8},
        "beta": 1.0,
        "output": {"dir": "out"},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path: Path, doc) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_parse_config_happy_path():
    cfg = parse_config(base_config())
    assert cfg.spec.d == 1
    assert cfg.grid.intervals == 300
    assert cfg.betas[0].values == (1.0,)


def test_config_rejects_small_grid():
    with pytest.raises(ConfigError, match="grid.M"):
        parse_config(base_config(grid={"R": 3.0, "M": 4}))


def test_config_rejects_bad_expression_with_path():
    doc = base_config()
    doc["problem"]["f"] = ["u2"]
    with pytest.raises(ConfigError, match="problem"):
        parse_config(doc)


def test_config_rejects_missing_keys():
    doc = base_config()
    del doc["problem"]["p"]
    with pytest.raises(ConfigError, match="problem.p"):
        parse_config(doc)


def test_config_beta_forms():
    assert len(parse_config(base_config(beta=[1.0, 2.0])).betas) == 2  # d = 1 sweep
    doc = base_config()
    doc["problem"]["d"] = 2
    doc["problem"]["p"] = [2.0, 2.0]
    doc["problem"]["h"] = ["0", "0"]
    doc["problem"]["a"] = ["1", "1"]
    doc["problem"]["f"] = ["u2", "u1"]
    doc["beta"] = [1.0, 2.0]
    assert parse_config(doc).betas == (parse_config(doc).betas[0],)
    doc["beta"] = [[1.0, 1.0], [2.0, 2.0]]
    assert len(parse_config(doc).betas) == 2
    doc["beta"] = -1.0
    with pytest.raises(ConfigError, match="beta"):
        parse_config(doc)


def test_cli_exit_code_on_config_error(tmp_path):
    path = write_config(tmp_path, base_config(grid={"R": 3.0, "M": 4}))
    assert main(["solve", "--config", str(path)]) == 2


def test_solve_zero_nonlinearity_writes_constant_solution(tmp_path):
    doc = base_config(grid={"R": 2.0, "M": 64}, beta=1.5)
    doc["problem"]["f"] = ["0"]
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    r, u = read_solution_csv(out / "solution_000.csv", 1)
    assert np.all(u[0] == 1.5)
    rows = (out / "solution_000.csv").read_text().splitlines()
    assert rows[0].split(",")[2] == "lb_1"
    assert all(row.split(",")[2] == "1.5" for row in rows[1:])
    report = json.loads((out / "report.json").read_text())
    assert report["solutions"][0]["converged"] is True
    assert report["solutions"][0]["iterations"] == 1


def test_solve_is_deterministic(tmp_path):
    path = write_config(tmp_path, base_config(grid={"R": 3.0, "M": 200}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "solution_000.csv").read_bytes() == (out2 / "solution_000.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_verify_round_trip_and_perturbation(tmp_path):
    path = write_config(tmp_path, base_config(grid={"R": 3.0, "M": 200}))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    csv = out / "solution_000.csv"
    assert main(["verify", "--config", str(path), "--solution", str(csv),
                 "--out", str(out)]) == 0

    lines = csv.read_text().splitlines()
    i = len(lines) // 2
    cells = lines[i].split(",")
    cells[1] = repr(float(cells[1]) + 0.1)
    lines[i] = ",".join(cells)
    perturbed = tmp_path / "perturbed.csv"
    perturbed.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--config", str(path), "--solution", str(perturbed),
                 "--out", str(out)])
    assert code == 4
    report = json.loads((out / "verify_report.json").read_text())
    assert report["verification"]["integral_residuals"][0] >= 0.05


def test_verify_reads_only_r_and_u(tmp_path):
    # the bound columns are not parsed: a malformed bound cell leaves verify as it was
    path = write_config(tmp_path, base_config(grid={"R": 3.0, "M": 200}))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "clean"),
                 "--solution", str(out / "solution_000.csv")]) == 0
    lines = (out / "solution_000.csv").read_text().splitlines()
    cells = lines[57].split(",")
    cells[2:4] = ["abc", ""]  # lb_1 and ub
    lines[57] = ",".join(cells)
    odd = tmp_path / "odd_bounds.csv"
    odd.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "odd"),
                 "--solution", str(odd)]) == 0
    clean = json.loads((tmp_path / "clean" / "verify_report.json").read_text())
    report = json.loads((tmp_path / "odd" / "verify_report.json").read_text())
    assert report["verification"] == clean["verification"]


def test_verify_truncated_file_is_grid_mismatch(tmp_path):
    path = write_config(tmp_path, base_config(grid={"R": 3.0, "M": 200}))
    out = tmp_path / "out"
    main(["solve", "--config", str(path), "--out", str(out)])
    csv = out / "solution_000.csv"
    lines = csv.read_text().splitlines()
    truncated = tmp_path / "short.csv"
    truncated.write_text("\n".join(lines[:-5]) + "\n")
    assert main(["verify", "--config", str(path), "--solution", str(truncated),
                 "--out", str(out)]) == 2


@pytest.mark.parametrize("column, cell", [
    ("u_1", "abc"),
    ("r", ""),
    ("u_1", ""),
    ("u_1", "nan"),
    ("u_1", "1e400"),
])
def test_verify_bad_cell_is_a_config_error(tmp_path, capsys, column, cell):
    path = write_config(tmp_path, base_config(grid={"R": 3.0, "M": 200}))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "solution_000.csv").read_text().splitlines()
    cells = lines[57].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[57] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", str(path), "--solution", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert str(bad) in err and f"column {column}" in err and "row 57" in err


def _cell_by_cell_csv(grid, u, lower, upper) -> str:
    """Reference formatter: one ``repr(float(...))`` per cell, row by row."""
    d = len(u)
    header = (["r"] + [f"u_{j + 1}" for j in range(d)]
              + [f"lb_{j + 1}" for j in range(d)] + ["ub"])
    lines = [",".join(header)]
    for i, r in enumerate(grid.nodes):
        row = [repr(float(r))]
        row += [repr(float(x[i])) for x in u]
        row += [repr(float(x[i])) for x in lower] if lower is not None else [""] * d
        row.append(repr(float(upper[i])) if upper is not None else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# finite floats of every magnitude, plus values on both sides of the points
# where ``repr`` switches between positional and exponent notation
_SWITCH = st.one_of(st.floats(1e-5, 1e-3), st.floats(1e15, 1e17))
_CELL = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  _SWITCH, _SWITCH.map(lambda x: -x))


@st.composite
def _solution(draw):
    grid = RadialGrid(draw(st.floats(1e-3, 1e6)), draw(st.integers(8, 24)))
    d = draw(st.integers(1, 3))
    column = st.lists(_CELL, min_size=len(grid), max_size=len(grid)).map(np.array)
    u = [draw(column) for _ in range(d)]
    lower = [draw(column) for _ in range(d)] if draw(st.booleans()) else None
    upper = draw(column) if draw(st.booleans()) else None
    return grid, u, lower, upper


@given(_solution())
def test_solution_csv_round_trip_is_bit_identical(tmp_path_factory, solution):
    grid, u, lower, upper = solution
    path = tmp_path_factory.mktemp("csv") / "solution.csv"
    write_solution_csv(path, grid, u, lower, upper)
    assert path.read_text(encoding="utf-8") == _cell_by_cell_csv(grid, u, lower, upper)
    r, u_read = read_solution_csv(path, len(u))
    assert r.tobytes() == grid.nodes.tobytes()
    assert [x.tobytes() for x in u_read] == [x.tobytes() for x in u]
    # the reader skips the bound columns: their written cells read back to the same bits
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    bounds = [*(lower if lower is not None else [None] * len(u)), upper]
    for k, column in enumerate(bounds, start=1 + len(u)):
        cells = [row[k] for row in rows]
        if column is None:
            assert cells == [""] * len(rows)
        else:
            assert np.array([float(c) for c in cells]).tobytes() == column.tobytes()


def test_classify_command_reports_verdict(tmp_path):
    path = write_config(tmp_path, base_config(grid={"R": 2.0, "M": 64}))
    out = tmp_path / "out"
    assert main(["classify", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["classification"]["theorem"] == "Thm1-large"
    assert report["auxiliary"]["keller_osserman"][0]["verdict"] == "diverges"
    assert report["auxiliary"]["ye_zhou"][0]["verdict"] == "diverges"
    assert report["auxiliary"]["remarks"]["consistent"] is True
    assert report["auxiliary"]["lair"] is None


def test_classify_lair_cross_form(tmp_path):
    doc = base_config(grid={"R": 2.0, "M": 64})
    doc["problem"]["d"] = 2
    doc["problem"]["p"] = [2.0, 2.0]
    doc["problem"]["h"] = ["0", "0"]
    doc["problem"]["a"] = ["1", "1"]
    doc["problem"]["f"] = ["u2", "u1"]
    doc["beta"] = [1.0, 1.0]
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["classify", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    lair = report["auxiliary"]["lair"]
    assert lair["explosive_predicted"] is True
    assert lair["within_sublinear_range"] is True


def test_classify_inconclusive_exit_code(tmp_path):
    doc = base_config(grid={"R": 2.0, "M": 64})
    doc["problem"]["d"] = 2
    doc["problem"]["p"] = [2.0, 2.0]
    doc["problem"]["h"] = ["0", "0"]
    doc["problem"]["a"] = ["1", "(1+r)^(-4)"]  # mixed barrier tails
    doc["problem"]["f"] = ["u2", "u1"]
    doc["beta"] = [1.0, 1.0]
    path = write_config(tmp_path, doc)
    assert main(["classify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 5


def test_classify_reports_when_the_primitive_overflows(tmp_path):
    # exp(u1) overflows on the probe range; the Keller-Osserman primitive is
    # then not computable, which is an inconclusive probe, not a config error
    doc = base_config(grid={"R": 1.0, "M": 200})
    del doc["probes"]  # the default horizon 2^10 lies beyond the overflow of exp
    doc["problem"]["f"] = ["exp(u1)"]
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["classify", "--config", str(path), "--out", str(out)]) in (0, 5)
    report = json.loads((out / "report.json").read_text())
    ko = report["auxiliary"]["keller_osserman"][0]
    assert ko["verdict"] == "inconclusive"
    assert ko["note"].startswith("primitive not computable")


def test_classify_reports_when_the_lair_head_is_undefined(tmp_path):
    # sqrt(r-0.5) is undefined on the head [0, 0.5) of the Lair probe; the head
    # is guarded like the tail, so that side is inconclusive
    doc = base_config(grid={"R": 1.0, "M": 200})
    doc["problem"]["d"] = 2
    doc["problem"]["p"] = [2.0, 2.0]
    doc["problem"]["h"] = ["0", "0"]
    doc["problem"]["a"] = ["sqrt(r-0.5)", "1"]
    doc["problem"]["f"] = ["u2", "u1"]
    doc["beta"] = [1.0, 1.0]
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["classify", "--config", str(path), "--out", str(out)]) in (0, 5)
    lair = json.loads((out / "report.json").read_text())["auxiliary"]["lair"]
    assert lair["first"]["verdict"] == "inconclusive"
    assert "integrand error on [0,1]" in lair["first"]["note"]
    assert lair["explosive_predicted"] is None


def test_solve_reports_when_the_F_inverse_is_out_of_reach(tmp_path):
    # F = ln((1+s)/2) reaches F(1) + A(16) = 42.7 only beyond s = 2^60, so the
    # upper bound is not evaluable; the report says so instead of crashing
    doc = base_config(grid={"R": 16.0, "M": 400})
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    verification = report["solutions"][0]["verification"]
    assert verification["upper_margins"] is None
    assert "not reached within 60 octaves" in verification["upper_reason"]
    assert code == (0 if verification["passed"] else 4)


@pytest.mark.parametrize("anchor", [1e-300, 1e-321])
def test_solve_reports_when_the_F_anchor_is_too_small_to_reach_beta(tmp_path, anchor):
    # F(1) lies beyond 60 octaves of the anchor, the reach of the F inverse:
    # the upper bound is reported not evaluable before any F table is grown
    doc = base_config(grid={"R": 5.0, "M": 400})
    doc["problem"]["F_anchor"] = anchor
    out = tmp_path / "out"
    code = main(["solve", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    verification = json.loads((out / "report.json").read_text())["solutions"][0]["verification"]
    assert code == 0
    assert verification["upper_margins"] is None
    assert verification["upper_reason"] == (
        "upper bound not evaluable: F at 1 lies beyond 60 octaves of the anchor")


def test_sweep_ordering_and_linear_scaling(tmp_path):
    doc = base_config(grid={"R": 3.0, "M": 200}, beta=[1.0, 2.0])
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    _, u1 = read_solution_csv(out / "solution_000.csv", 1)
    _, u2 = read_solution_csv(out / "solution_001.csv", 1)
    # the nonlinearity is linear, so doubling beta doubles the solution
    assert np.max(np.abs(u2[0] - 2.0 * u1[0])) < 1e-6
    assert np.all(u1[0] <= u2[0])
    assert (out / "sweep_table.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["ordering"]["violations"] == []


def test_sweep_identical_betas_bitwise_equal(tmp_path):
    doc = base_config(grid={"R": 2.0, "M": 100}, beta=[1.0, 1.0])
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    a = (out / "solution_000.csv").read_bytes()
    b = (out / "solution_001.csv").read_bytes()
    assert a == b


def test_sweep_requires_two_betas(tmp_path):
    path = write_config(tmp_path, base_config(beta=1.0))
    assert main(["sweep", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_solve_non_convergence_exit_code(tmp_path):
    doc = base_config(grid={"R": 3.0, "M": 64},
                      solver={"tol": 1e-14, "max_iter": 2})
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["solutions"][0]["converged"] is False


def test_canonical_json_is_stable():
    doc = {"b": 1.5, "a": [np.float64(2.0), {"z": np.int64(3)}]}
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


def _jsonify(obj):
    """Reference: the walk that made a report JSON-ready before one ``json.dumps``."""
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _reference_canonical_json(obj) -> str:
    return json.dumps(_jsonify(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# floats on both sides of the points where ``repr`` switches to exponent notation
_REPR_SWITCH = st.one_of(st.floats(1e-5, 1e-3), st.floats(1e15, 1e17))
_LEAF = st.one_of(
    st.floats(), _REPR_SWITCH, _REPR_SWITCH.map(lambda x: -x),
    st.sampled_from([np.inf, -np.inf, np.nan, 1e-4, 1e16, -0.0]),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(), st.none(), st.text(), st.sampled_from(['"', "\\", "\n", "\x00", "é", "\u2028"]),
    st.lists(st.floats(), max_size=4).map(np.array),
)
_JSON_DOC = st.recursive(_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(), st.integers(-3, 3)), inner, max_size=4),
), max_leaves=24)


@given(_JSON_DOC)
def test_canonical_json_writes_the_bytes_of_the_reference(doc):
    assert canonical_json(doc) == _reference_canonical_json(doc)


def test_canonical_json_writes_dataclasses_by_their_fields():
    verdict = quadrature.DivergenceVerdict("converges", 2.0, (2.0, 4.0), (1.0, 1.5), "note")
    doc = {"verdicts": (verdict,), "window": (1.0, np.inf)}
    fields = {"verdict": "converges", "limit": 2.0, "horizons": [2.0, 4.0],
              "partials": [1.0, 1.5], "note": "note"}
    assert canonical_json(doc) == canonical_json({"verdicts": [fields], "window": [1.0, np.inf]})
    with pytest.raises(TypeError):
        canonical_json(quadrature.DivergenceVerdict)  # a dataclass type is not an instance


def test_report_config_echo_revalidates(tmp_path):
    path = write_config(tmp_path, base_config(grid={"R": 2.0, "M": 64}))
    out = tmp_path / "out"
    main(["solve", "--config", str(path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    echoed = parse_config(report["config"])
    assert echoed.grid.intervals == 64
    assert echoed.spec.d == 1


def test_classify_samples_each_f_once_per_probe_octave(tmp_path, monkeypatch):
    # d = 2 with F_anchor = probes.r_start: the F tail probe, Ye-Zhou and the
    # reciprocal-power remark run on the same block of octave nodes and share
    # the f_j samples; Keller-Osserman and the primitive-root remark share one table
    doc = base_config()
    doc["problem"].update(d=2, p=[2.0, 3.0], h=["0", "0.1"], a=["1", "1"],
                          f=["u2 + 1", "u1^2"])
    doc["beta"] = [1.0, 1.0]
    doc["probes"] = {"K": 8, "nodes_per_octave": 256}
    path = write_config(tmp_path, doc)

    samples: dict = {}
    evaluate = transforms.evaluate_array

    def counting_evaluate(e, env):
        arrays = list(env.values())
        if len(env) == 2 and arrays[0] is arrays[1] and not arrays[0].flags.writeable:
            key = (id(e), id(arrays[0]))
            samples.setdefault(key, [arrays[0], 0])[1] += 1
        return evaluate(e, env)

    primitives = []
    init = CumulativeInterpolant.__init__

    def counting_init(self, fn, t_max, lo=0.0, intervals=1024):
        if lo == 0.0:
            primitives.append(t_max)
        init(self, fn, t_max, lo, intervals)

    queries: dict = {}  # (table, read-only query array) -> number of interpolations
    call = CumulativeInterpolant.__call__

    def counting_call(self, t):
        if self.lo == 0.0 and isinstance(t, np.ndarray) and not t.flags.writeable:
            queries.setdefault((id(self), id(t)), [t, 0])[1] += 1
        return call(self, t)

    monkeypatch.setattr(transforms, "evaluate_array", counting_evaluate)
    monkeypatch.setattr(quadrature.CumulativeInterpolant, "__init__", counting_init)
    monkeypatch.setattr(quadrature.CumulativeInterpolant, "__call__", counting_call)
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) in (0, 5)

    assert max(count for _, count in samples.values()) == 1
    blocks = {id(xs): xs for xs, _ in samples.values()}
    assert len(blocks) == 1  # one block of all 8 octaves for the one probe start
    assert [len(xs) for xs in blocks.values()] == [8 * 257]
    assert len(samples) == 2  # each f_j sampled on that block, once
    assert primitives == [2.0 ** 8] * 2  # one primitive table per component
    # Keller-Osserman and the primitive-root remark probe the same block, so
    # each table is interpolated there once
    assert sorted(count for _, count in queries.values()) == [1, 1]
    assert {id(xs) for xs, _ in queries.values()} == set(blocks)
    # a scalar query of the shared table still gets a float back
    value = parse_config(doc).spec.diagonal(1).primitive(2.0 ** 8)(32.0)
    assert isinstance(value, float) and value == pytest.approx(32.0 ** 3 / 3.0, rel=1e-9)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    remarks = report["auxiliary"]["remarks"]
    assert len(remarks["reciprocal_power"]) == len(remarks["primitive_root"]) == 2
    assert all(len(v["horizons"]) == 8 for v in report["auxiliary"]["ye_zhou"])


@pytest.mark.parametrize("command", ["solve", "classify"])
def test_an_overflowing_number_literal_is_a_config_error(tmp_path, capsys, command):
    doc = base_config()
    doc["problem"]["a"] = ["1e400"]
    with pytest.raises(ConfigError, match="number out of range") as err:
        parse_config(doc)
    assert err.value.path == "problem"
    path = write_config(tmp_path, doc)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: problem: expression error: number out of range at position 0" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("probes", [{"K": 1100}, {"K": 1024}, {"K": 100, "r_start": 1e300}])
def test_a_horizon_beyond_the_floats_is_a_probes_config_error(tmp_path, monkeypatch, probes):
    def no_probe(*args):
        raise AssertionError("no probe may run")

    monkeypatch.setattr(quadrature, "_octaves", no_probe)
    doc = base_config(probes=probes)
    with pytest.raises(ConfigError, match="outermost horizon") as err:
        parse_config(doc)
    assert err.value.path == "probes"
    path = write_config(tmp_path, doc)
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert parse_config(base_config(probes={"K": 1023})).classifier.probe.t_max == 2.0 ** 1023


def _negative_source_config(tmp_path, a="1-r"):
    doc = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "sinh_oracle.json").read_text())
    doc["problem"]["a"] = [a]
    return write_config(tmp_path, doc)


def test_solve_with_a_negative_coefficient_is_a_config_error(tmp_path, capsys):
    path = _negative_source_config(tmp_path)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: problem.a[0]: takes negative values on [0, 5]" in err
    doc = json.loads(path.read_text())
    doc["problem"]["a"], doc["problem"]["h"] = ["1"], ["r-1"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: problem.h[0]: takes negative values on [0, 5]" in capsys.readouterr().err


def test_verify_with_a_negative_coefficient_is_a_config_error(tmp_path, capsys):
    good = _negative_source_config(tmp_path, a="1")
    assert main(["solve", "--config", str(good), "--out", str(tmp_path / "solved")]) == 0
    bad = _negative_source_config(tmp_path / "solved")
    assert main(["verify", "--config", str(bad), "--out", str(tmp_path / "verify"),
                 "--solution", str(tmp_path / "solved" / "solution_000.csv")]) == 2
    assert "config error: problem.a[0]: takes negative values on [0, 5]" in capsys.readouterr().err


def test_classify_with_a_negative_coefficient_stays_inconclusive(tmp_path):
    path = _negative_source_config(tmp_path)
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) == 5
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["classification"]["theorem"] == "inconclusive"
    assert "a[0] takes negative values" in report["classification"]["A_inf"][0]["note"]


def test_solve_with_an_overflowing_iterate_is_a_config_error(tmp_path, capsys):
    # the sinh oracle with its horizon at R = 800, where beta * sinh(r)/r has
    # left the double range: the run stops at the first overflowing sweep and
    # names the horizon as the key to change
    path = write_config(tmp_path, base_config(grid={"R": 800.0, "M": 4000}))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert ("config error: grid.R: iterate not finite at sweep 223 near r = 799.4; "
            "the solution leaves the floating-point range before the horizon") in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_solve_and_verify_build_each_kernel_once(tmp_path, monkeypatch):
    # the iteration, the barriers A_j and the residual share one kernel per component
    doc = base_config(grid={"R": 2.0, "M": 100}, beta=[1.0, 1.0, 1.0])
    doc["problem"].update(d=3, p=[2.0, 2.5, 2.0], h=["0", "0.1", "0"], a=["1"] * 3,
                          f=["u2", "u3", "u1"])
    builds = []
    init = transforms.RadialKernel.__init__
    monkeypatch.setattr(transforms.RadialKernel, "__init__",
                        lambda self, spec, j, nodes: builds.append(j) or init(self, spec, j, nodes))
    path = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "solve")]) == 0
    assert sorted(builds) == [0, 1, 2]
    builds.clear()
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "verify"),
                 "--solution", str(tmp_path / "solve" / "solution_000.csv")]) == 0
    assert sorted(builds) == [0, 1, 2]
    builds.clear()
    doc["beta"] = [[1.0, 1.0, 1.0], [1.5, 1.5, 1.5]]
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) == 0
    assert sorted(builds) == [0, 1, 2]  # two central values, one build per component


@pytest.mark.parametrize("beta, probes", [([1.0, 2.0], 0), ([1.0, 1.0], 1)])
def test_solve_probes_F_only_for_a_uniform_central_value(tmp_path, monkeypatch, beta, probes):
    # only the upper bound of a uniform central value reads the F table and its
    # tail estimate, so a solve without one builds neither
    doc = base_config()
    doc["problem"].update(d=2, p=[2.0, 2.0], h=["0", "0"], a=["1", "1"], f=["u2", "u1"])
    doc["beta"] = beta
    calls, builds = [], []
    probe, build_F = transforms.probe_divergence, transforms.build_F
    monkeypatch.setattr(transforms, "probe_divergence", lambda *a: calls.append(1) or probe(*a))
    monkeypatch.setattr(transforms, "build_F", lambda *a: builds.append(1) or build_F(*a))
    assert main(["solve", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == len(builds) == probes
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    upper = report["solutions"][0]["verification"]["upper_margins"]
    assert (upper is not None) == (probes == 1)
