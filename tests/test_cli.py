import itertools
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from radsolve.cli import (
    ConfigError,
    canonical_json,
    load_config,
    main,
    parse_config,
    read_solution_csv,
    write_solution_csv,
)
from radsolve import cli, conditions, quadrature, transforms
from radsolve.quadrature import RadialGrid


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


@pytest.mark.parametrize("command", ["solve", "classify", "verify", "sweep"])
def test_a_grid_too_large_to_allocate_is_a_config_error_naming_grid_M(tmp_path, capsys, command):
    # numpy refuses the 7.11 PiB of nodes of M = 1e15 without allocating them; never test a
    # value that fits in memory
    with pytest.raises(ConfigError, match="too many nodes") as err:
        parse_config(base_config(grid={"R": 1.0, "M": 1e15}))
    assert err.value.path == "grid.M"
    path = write_config(tmp_path, base_config(grid={"R": 1.0, "M": 1e15}, beta=[1.0, 2.0]))
    extra = ["--solution", str(tmp_path / "none.csv")] if command == "verify" else []
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out"), *extra]) == 2
    assert "config error: grid.M: too many nodes: " in capsys.readouterr().err


def test_an_odd_nodes_per_octave_is_a_config_error_naming_its_key(tmp_path, capsys):
    # Simpson's rule takes the intervals of an octave in pairs
    doc = base_config(probes={"K": 8, "nodes_per_octave": 255})
    with pytest.raises(ConfigError, match="must be even, got 255") as err:
        parse_config(doc)
    assert err.value.path == "probes.nodes_per_octave"
    path = write_config(tmp_path, doc)
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error: probes.nodes_per_octave: must be even, got 255" in (
        capsys.readouterr().err)


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


def test_classify_on_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(base_config()).encode().replace(b'"out"', b'"out\xff"'))
    with pytest.raises(ConfigError, match="not UTF-8 text") as err:
        load_config(path)
    assert err.value.path == str(path)
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_verify_of_a_csv_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # 0xff in a bound cell of a row past the first decoded chunk: the reader does not
    # parse the bound columns, but it cannot read the line without decoding it
    path = write_config(tmp_path, base_config(grid={"R": 3.0, "M": 2000}))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "solution_000.csv").read_bytes().split(b"\n")
    cells = lines[1500].split(b",")
    cells[-1] = b"\xff"  # ub
    lines[1500] = b",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["verify", "--config", str(path), "--solution", str(bad),
                 "--out", str(tmp_path / "verify")]) == 2
    assert f"config error: {bad}: not UTF-8 text: invalid start byte\n" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="not UTF-8 text") as err:
        read_solution_csv(bad, 1)
    assert err.value.path == str(bad)


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


# finite floats of every magnitude, values on both sides of the points where
# ``repr`` switches between positional and exponent notation, and the cells the
# writer leaves to ``float.__repr__``: zeros, subnormals, powers of two, the
# largest float; a bound cell may also be inf or nan, as the reader skips bounds
_SWITCH = st.one_of(st.floats(1e-5, 1e-3), st.floats(1e15, 1e17))
_REPR_ONLY = st.one_of(st.sampled_from([0.0, 5e-324, 1.7976931348623157e308]),
                       st.floats(0.0, 2.2250738585072014e-308),
                       st.integers(-1074, 1023).map(lambda k: 2.0 ** k))
_CELL = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _SWITCH, _REPR_ONLY,
                  _SWITCH.map(lambda x: -x), _REPR_ONLY.map(lambda x: -x))
_BOUND = st.one_of(_CELL, st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def _solution(draw):
    grid = RadialGrid(draw(st.floats(1e-3, 1e6)), draw(st.integers(8, 24)))
    d = draw(st.integers(1, 3))
    column = st.lists(_CELL, min_size=len(grid), max_size=len(grid)).map(np.array)
    bound = st.lists(_BOUND, min_size=len(grid), max_size=len(grid)).map(np.array)
    u = [draw(column) for _ in range(d)]
    lower = [draw(bound) for _ in range(d)] if draw(st.booleans()) else None
    upper = draw(bound) if draw(st.booleans()) else None
    return grid, u, lower, upper


# cells left to float.__repr__, the ends of the certified range, and for a bound
# column inf, nan and values at the notation switches
_EDGES = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 0.5, -1024.0,
                   1.7976931348623157e308, 1e-280, 1e280])
_BOUND_EDGES = np.array([math.inf, -math.inf, math.nan, 1e16, 1e-4, 9999999999999998.0,
                        1e-5, 0.1, 1e23])


@given(_solution())
@example((RadialGrid(1.0, 8), [_EDGES], [_BOUND_EDGES], _EDGES[::-1]))
@example((RadialGrid(1e-3, 8), [_EDGES[::-1], -_EDGES], None, _BOUND_EDGES[::-1]))
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


class _Nodes:
    """A grid stand-in with any number of nodes; a ``RadialGrid`` has at least 9."""

    def __init__(self, nodes):
        self.nodes = nodes

    def __len__(self):
        return len(self.nodes)


def _random_solution(rows: int, d: int):
    """Nodes, u and lower columns of every sign and magnitude, ``rows`` long."""
    rng = np.random.default_rng(rows)
    shape = (1 + 2 * d, rows)
    columns = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    return _Nodes(np.sort(np.abs(columns[0]))), list(columns[1:1 + d]), list(columns[1 + d:])


def test_the_writer_formats_every_float_as_float_repr_does(tmp_path):
    # random bit patterns (both signs, every exponent, subnormals, inf and nan) and the
    # floats next to 1e16 and 1e-4, where repr switches notation, beside the reference
    rng = np.random.default_rng(18)
    bits = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
    near = (np.array([1e16, -1e16, 1e-4, -1e-4]).view(np.int64)[:, None]
            + np.arange(-500, 501)).view(np.float64).ravel()
    cells = np.concatenate([bits, near])
    grid, u = _Nodes(cells), [cells[::-1].copy()]
    path = tmp_path / "solution.csv"
    write_solution_csv(path, grid, u, None, None)
    assert path.read_text(encoding="utf-8") == _cell_by_cell_csv(grid, u, None, None)


@pytest.mark.parametrize("rows", [1, cli._CSV_BLOCK - 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1,
                                  2 * cli._CSV_BLOCK + 1])
def test_solution_csv_round_trip_is_bit_identical_across_blocks(tmp_path, rows):
    grid, u, lower = _random_solution(rows, 2)
    for bounds in ((lower, u[0]), (None, None)):
        path = tmp_path / "solution.csv"
        write_solution_csv(path, grid, u, *bounds)
        assert path.read_text(encoding="utf-8") == _cell_by_cell_csv(grid, u, *bounds)
        r, u_read = read_solution_csv(path, 2)
        assert r.tobytes() == grid.nodes.tobytes()
        assert [x.tobytes() for x in u_read] == [x.tobytes() for x in u]


@pytest.mark.parametrize("row, column, cell, message", [
    (cli._CSV_BLOCK + 5, 2, "abc", "column u_2, row {row}: not a number: 'abc'"),
    (cli._CSV_BLOCK + 5, 0, "", "column r, row {row}: not a number: ''"),
    (2 * cli._CSV_BLOCK + 1, 1, "-inf", "column u_1, row {row}: not finite: '-inf'"),
    (2 * cli._CSV_BLOCK, 2, "1e400", "column u_2, row {row}: not finite: '1e400'"),
    (cli._CSV_BLOCK + 1, None, None, "malformed CSV row"),
])
def test_a_bad_cell_or_row_in_a_later_block_names_its_row_in_the_file(tmp_path, row, column,
                                                                     cell, message):
    grid, u, lower = _random_solution(2 * cli._CSV_BLOCK + 1, 2)
    path = tmp_path / "solution.csv"
    write_solution_csv(path, grid, u, lower, None)
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[row].split(",")
    if column is None:
        cells.append("1.0")
    else:
        cells[column] = cell
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        read_solution_csv(path, 2)
    assert str(err.value) == f"{path}: " + message.format(row=row)


def test_solution_csv_cells_parse_as_float_does(tmp_path):
    # underscores, other scripts' digits, padding and CRLF line ends, as float() reads them
    path = tmp_path / "solution.csv"
    path.write_bytes("r,u_1,lb_1,ub\r\n0,1_0,,\r\n 0.5 ,\u0661\u0662,x,\r\n1.0,2_5.0,,\r\n"
                     .encode("utf-8"))
    r, (u,) = read_solution_csv(path, 1)
    assert r.tolist() == [0.0, 0.5, 1.0]
    assert u.tolist() == [10.0, 12.0, 25.0]


def _whole_text_reader(path: Path, d: int):
    """The reader as it was before it streamed: the file's stripped text, split and
    parsed a block of rows at a time (the reference for the streaming reader)."""
    try:
        text = path.read_text(encoding="utf-8").strip()
    except FileNotFoundError:
        raise ConfigError(str(path), "solution file not found") from None
    breaks = [m.start() for m in itertools.islice(re.finditer("\n", text), 0, None,
                                                  cli._CSV_BLOCK)]
    breaks.append(len(text))
    header, width = text[:breaks[0]].split(","), 2 * d + 2
    if header != cli._csv_header(d):
        raise ConfigError(str(path), f"unexpected CSV header {header!r}")
    data, done = np.empty((1 + d, text.count("\n"))), 0
    for lo, hi in zip(breaks, breaks[1:]):
        lines = text[lo + 1:hi].split("\n")
        if any(line.count(",") != width - 1 for line in lines):
            raise ConfigError(str(path), "malformed CSV row")
        cells = ",".join(lines).split(",")
        texts = [cells[k::width] for k in range(1 + d)]
        try:
            values = np.array(texts, dtype=float)
        except ValueError:
            values = None
        if values is None or not np.all(np.isfinite(values)):
            for k, column in enumerate(texts):
                for row, cell in enumerate(column, start=done + 1):
                    try:
                        fault = "" if math.isfinite(float(cell)) else "not finite"
                    except ValueError:
                        fault = "not a number"
                    if fault:
                        raise ConfigError(str(path), f"column {header[k]}, row {row}: "
                                          f"{fault}: {cell!r}")
        data[:, done:done + len(lines)] = values
        done += len(lines)
    r, *u = data
    return r, u


_SPACE = st.sampled_from(["", " ", "\t", "\n", "\n\n", " \n\t\n ", "\r\n \r\n"])
# a cell of the r or u_j columns: a number, or one of the faults the reader names
_READ_CELL = st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-9, 9).map(str),
                       st.sampled_from(["abc", "", "inf", "-inf", "nan", "1e400", " 2 "]))


@st.composite
def _csv_text(draw):
    """(d, text) of a solution file: rows of valid or faulty cells, blank, whitespace-only
    or malformed lines anywhere, any line ends, whitespace around it, maybe no header."""
    d = draw(st.integers(1, 2))
    header = ",".join(cli._csv_header(d)) if draw(st.integers(0, 9)) else "r,u_1,ub"
    lines = [header]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t "])))  # blank line
        elif kind == 1:
            lines.append("1,2")  # too few cells
        else:
            cells = [draw(_READ_CELL if kind == 2 else st.floats(0, 9).map(repr))
                     for _ in range(1 + d)]
            lines.append(",".join(cells + ["0.5"] * d + [draw(st.sampled_from(["", "1"]))]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    final = end if draw(st.booleans()) else ""
    return d, draw(_SPACE) + end.join(lines) + final + draw(_SPACE)


@given(_csv_text())
@example((1, "  \n r,u_1,lb_1,ub\n0,1,,\n1,2,,  \n \n\n"))  # whitespace at both ends
@example((1, "r,u_1,lb_1,ub\r\n0,1,,\r\n\r\n1,2,,"))  # a blank line inside, CRLF
@example((2, "r,u_1,u_2,lb_1,lb_2,ub\n"))  # a header only
@example((1, "r,u_1,lb_1,ub\n0,x,,\n" + "1,1,,\n" * 8))  # a fault in the first block
@example((1, "r,u_1,lb_1,ub\n" + "1,1,,\n" * 4 + "0,inf,,\n" + "1,1,,\n" * 4))  # middle
@example((1, "r,u_1,lb_1,ub\n" + "1,1,,\n" * 7 + "0,1,,\n 1e400,1,,"))  # last block
@example((1, "r,u_1,lb_1,ub\n" + "1,1,,\n" * 7 + "0,1\n"))  # malformed in the last block
def test_streaming_csv_reader_matches_the_whole_text_reader(tmp_path_factory, case):
    d, text = case
    path = tmp_path_factory.mktemp("csv") / "solution.csv"
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    with mock.patch.object(cli, "_CSV_BLOCK", 3):  # several blocks from a few rows
        for reader in (_whole_text_reader, read_solution_csv):
            try:
                r, u = reader(path, d)
                outcomes.append([x.tobytes() for x in (r, *u)])
            except ConfigError as err:
                outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]


def test_solution_csv_functions_hold_one_block_of_strings(tmp_path):
    # d = 3 on M = 20000, the benchmark's stress grid, without the bound columns,
    # whose 60 000 more cells would take tracing past a second.  Joining the whole
    # text peaked at 5.5 MB here, splitting every cell into a string at 9.8 MB, and
    # reading the whole text (its bytes, the text, its strip()) at 2.7 MB
    grid = RadialGrid(20.0, 20000)
    u = [b + np.sin(grid.nodes + b) ** 2 * grid.nodes ** 2 for b in (1.0, 1.5, 2.0)]
    path = tmp_path / "solution.csv"
    mb = 2.0 ** 20
    tracemalloc.start()
    try:
        write_solution_csv(path, grid, u, None, None)
        write_peak = tracemalloc.get_traced_memory()[1] / mb
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        r, u_read = read_solution_csv(path, 3)
        read_peak = (tracemalloc.get_traced_memory()[1] - start) / mb
    finally:
        tracemalloc.stop()
    assert write_peak <= 1.0
    assert read_peak <= 2.0
    assert [x.tobytes() for x in u_read] == [x.tobytes() for x in u]


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


def test_classify_makes_no_lair_prediction_off_a_negative_integrand(tmp_path):
    # a negative a_1 = -(1+r)^-4 makes both integrands negative, with octave
    # increments in a geometric ratio near 1/4: read as a tail, they would converge
    doc = base_config(grid={"R": 1.0, "M": 64})
    doc["problem"].update(d=2, p=[2.0, 2.0], h=["0", "0"], a=["0 - (1+r)^-4", "(1+r)^-4"],
                          f=["u2", "u1"])
    doc["beta"] = [1.0, 1.0]
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["classify", "--config", str(path), "--out", str(out)]) == 5
    lair = json.loads((out / "report.json").read_text())["auxiliary"]["lair"]
    for side in ("first", "second"):
        assert lair[side]["verdict"] == "inconclusive"
        # the head's first node past 0: 2 * 256 intervals over [0, 1]
        assert lair[side]["note"] == f"integrand negative near r = {2.0 ** -9:g}"
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
    # F starts at probes.r_start, so F(1) lies beyond 60 octaves of that anchor, the
    # reach of the F inverse: the upper bound is reported not evaluable before any F
    # table is grown
    doc = base_config(grid={"R": 5.0, "M": 400}, probes={"K": 8, "r_start": anchor})
    out = tmp_path / "out"
    code = main(["solve", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    verification = json.loads((out / "report.json").read_text())["solutions"][0]["verification"]
    assert code == 0
    assert verification["upper_margins"] is None
    assert verification["upper_reason"] == (
        "upper bound not evaluable: F at 1 lies beyond 60 octaves of the anchor")


def test_solve_bounds_a_huge_anchor_within_the_largest_double(tmp_path):
    # from r_start = 1e300 only 27 octaves stay finite, so the F table stops there; F(s)
    # = s - r_start for f = 0, and the upper bound is beta itself, as the solution is
    doc = base_config(grid={"R": 2.0, "M": 100}, probes={"K": 8, "r_start": 1e300}, beta=2e300)
    doc["problem"]["f"] = ["0"]
    out = tmp_path / "out"
    code = main(["solve", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    verification = json.loads((out / "report.json").read_text())["solutions"][0]["verification"]
    assert code == 0
    assert verification["upper_margins"] == [0.0] and verification["upper_reason"] == ""
    rows = (out / "solution_000.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert all(row.endswith(",2e+300,2e+300,2e+300") for row in rows)  # u_1, lb_1 and ub


def test_solve_bounds_a_nonlinearity_that_turns_negative_beyond_the_bound(tmp_path):
    # f = u1 (2e6 - u1) is negative only past 2e6; the upper bound stays near beta, so
    # the F table that ends before 2e6 serves it, and the solve passes
    doc = base_config(grid={"R": 2.0, "M": 100})
    doc["problem"].update(a=["1e-9*(1+r)^(-4)"], f=["u1*(2e6-u1)"])
    out = tmp_path / "out"
    code = main(["solve", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    verification = json.loads((out / "report.json").read_text())["solutions"][0]["verification"]
    assert code == 0 and verification["passed"]
    assert verification["upper_margins"] is not None and verification["upper_reason"] == ""


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


@pytest.mark.parametrize("doc, text", [
    ([], "[]"),
    ([-0.0], "[\n  -0.0\n]"),
    ([np.inf], '[\n  "inf"\n]'),
    ([np.nan], '[\n  "nan"\n]'),
    ([np.float64(1.5)], "[\n  1.5\n]"),
    ([1.0, True], "[\n  1.0,\n  true\n]"),
    ([1, 2.5], "[\n  1,\n  2.5\n]"),
    ([1e308, 1e308], "[\n  1e+308,\n  1e+308\n]"),
    (((1.0, 2.0), (-0.0, (3.5,)), ()),
     "[\n  [\n    1.0,\n    2.0\n  ],\n  [\n    -0.0,\n    [\n      3.5\n    ]\n  ],\n  []\n]"),
])
def test_canonical_json_of_edge_lists(doc, text):
    assert canonical_json(doc) == text + "\n" == _reference_canonical_json(doc)


def test_report_config_echo_revalidates(tmp_path):
    path = write_config(tmp_path, base_config(grid={"R": 2.0, "M": 64}))
    out = tmp_path / "out"
    main(["solve", "--config", str(path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    echoed = parse_config(report["config"])
    assert echoed.grid.intervals == 64
    assert echoed.spec.d == 1


def test_classify_samples_each_f_once_per_probe_octave(tmp_path, monkeypatch):
    # d = 2: the F tail probe, Ye-Zhou and the reciprocal-power remark run on the
    # same block of octave nodes and share the f_j samples; Keller-Osserman and the
    # primitive-root remark share one primitive on that block, made from those
    # samples and the samples on the head [0, r_start] of the block from 0
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
        if len(env) == 2 and arrays[0] is arrays[1]:
            key = (id(e), id(arrays[0]))
            samples.setdefault(key, [arrays[0], 0])[1] += 1
        return evaluate(e, env)

    monkeypatch.setattr(transforms, "evaluate_array", counting_evaluate)
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) in (0, 5)

    assert max(count for _, count in samples.values()) == 1
    assert all(not xs.flags.writeable for xs, _ in samples.values())
    blocks = {id(xs): xs for xs, _ in samples.values()}
    # one block of all 8 octaves for the one probe start, and the head: 2 * 256 intervals
    # on [0, 1]
    assert sorted(len(xs) for xs in blocks.values()) == [2 * 256 + 1, 8 * 256 + 1]
    assert len(samples) == 4  # each f_j sampled on each, once
    # the primitive on the block: P = t^3 / 3 for f_2 = u1^2 on the diagonal, exact on the
    # head and the block, since Simpson's and the three-point rule are exact for t^2
    cfg = parse_config(doc)
    P, why = cfg.spec.diagonal(1).primitive(cfg.probe)
    assert why == "" and P.shape == (8 * 256 + 1,)
    np.testing.assert_allclose(P, quadrature.probe_block(1.0, cfg.probe) ** 3 / 3.0,
                               rtol=1e-13)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    remarks = report["auxiliary"]["remarks"]
    assert len(remarks["reciprocal_power"]) == len(remarks["primitive_root"]) == 2
    assert all(len(v["horizons"]) == 8 for v in report["auxiliary"]["ye_zhou"])


def test_classify_growth_tests_at_p_3_read_as_the_remark_does(tmp_path):
    # p = 3, f = u1^1.5: the Keller-Osserman integrand P^(-1/3) ~ s^(-5/6) and the
    # reciprocal one f^(-1/2) = s^(-3/4) both diverge (at the Laplacian's exponents
    # 1/2 and 1 both would converge); with d = 1 the remark's entries are the same
    # probes.  The bracket 1 + s^1.5 under the root is ~ s^0.75,
    # sublinear, so Theorem 3's large facet applies
    doc = base_config()
    doc["problem"].update(p=[3.0], a=["(1+r)^(-4)"], f=["u1^1.5"])
    path = write_config(tmp_path, doc)
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["classification"]["theorem"] == "Thm3-large"
    aux = report["auxiliary"]
    assert [v["verdict"] for v in aux["keller_osserman"] + aux["ye_zhou"]] == ["diverges"] * 2
    assert aux["keller_osserman"] == aux["remarks"]["primitive_root"]
    assert aux["ye_zhou"] == aux["remarks"]["reciprocal_power"]


def test_classify_probes_each_growth_integral_once(tmp_path, monkeypatch):
    # d = 2, p = (2, 3): Keller-Osserman and Ye-Zhou probe each
    # component at its own p (4 probes), and the remark reuses component 1's, whose p is
    # min_p, and probes only component 2 at min_p (2 more): 6 auxiliary probes, not 8
    doc = base_config()
    doc["problem"].update(d=2, p=[2.0, 3.0], h=["0", "0.1"], a=["1", "1"],
                          f=["u2 + 1", "u1^2"])
    doc["beta"] = [1.0, 1.0]
    doc["probes"] = {"K": 8, "nodes_per_octave": 256}
    path = write_config(tmp_path, doc)
    calls = []
    probe_samples = quadrature.probe_samples
    counting = lambda *args, **kw: calls.append(1) or probe_samples(*args, **kw)
    for module in (quadrature, transforms, conditions):
        monkeypatch.setattr(module, "probe_samples", counting)
    in_classify = []
    classify = cli.classify

    def counting_classify(*args):
        before = len(calls)
        out = classify(*args)
        in_classify.append(len(calls) - before)
        return out

    monkeypatch.setattr(cli, "classify", counting_classify)
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) in (0, 5)
    assert in_classify == [3]  # F and one barrier per component
    assert len(calls) - in_classify[0] == 6


def test_classify_of_a_decreasing_nonlinearity_is_inconclusive(tmp_path):
    # f = 1/(1+u1) decreases, against the theorems' monotonicity hypothesis; the F
    # probe's samples of f on its block show it
    doc = base_config()
    doc["problem"]["f"] = ["1/(1+u1)"]
    path = write_config(tmp_path, doc)
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) == 5
    classification = json.loads((tmp_path / "out" / "report.json").read_text())["classification"]
    assert classification["theorem"] == "inconclusive"
    assert ("f[0] decreases on the diagonal near s = 1, against the monotonicity every "
            "theorem assumes") in classification["notes"]


def test_classify_checks_f_only_up_to_the_probe_horizon(tmp_path):
    # f = u1 * (2e6 - u1) turns negative only past 2e6, beyond the block's 1024 = 2^K, so
    # nothing sees it: F diverges (f ~ 2e6 s on the block) and A converges
    doc = base_config()
    doc["problem"].update(a=["(1+r)^(-4)"], f=["u1*(2e6-u1)"])
    doc["probes"] = {}
    path = write_config(tmp_path, doc)
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["classification"]["theorem"] == "Thm1-bounded"


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


@pytest.mark.parametrize("literal", ["Infinity", "NaN", "1e400"])
@pytest.mark.parametrize("key", ["grid.M", "grid.R", "problem.N", "problem.p[0]", "probes.K",
                                 "solver.max_iter", "beta"])
def test_a_non_finite_number_is_a_config_error_naming_its_key(tmp_path, capsys, key, literal):
    # JSON as Python reads it takes Infinity, NaN and 1e400 (which overflows to inf)
    doc = base_config()
    *parents, last = key.replace("[0]", "").split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[last] = ["X"] if key.endswith("[0]") else "X"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"X"', literal), encoding="utf-8")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {key}: expected a finite number, got " in capsys.readouterr().err


def test_an_output_path_that_is_a_file_is_a_file_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    path = write_config(tmp_path, base_config(grid={"R": 1.0, "M": 64}))
    assert main(["solve", "--config", str(path), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[radsolve] file error: ") and str(taken) in err


def test_verify_of_a_solution_path_that_is_a_directory_is_a_file_error(tmp_path, capsys):
    path = write_config(tmp_path, base_config(grid={"R": 1.0, "M": 64}))
    assert main(["verify", "--config", str(path), "--solution", str(tmp_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[radsolve] file error: ") and str(tmp_path) in err


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
    assert parse_config(base_config(probes={"K": 1023})).probe.t_max == 2.0 ** 1023


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


@pytest.mark.parametrize("command, where", [("classify", "[1, 2]"), ("solve", "[1, 1]")])
def test_a_negative_nonlinearity_is_a_config_error_without_a_warning(tmp_path, capsys,
                                                                     command, where):
    # f = u1 - 5 is negative below 5 and 1 + f vanishes at 4: the F probe (on the
    # diagonal's first octave [1, 2], after the block) and the first sweep (on the
    # iterate u = 1) check the samples of f before any power of them is taken
    doc = base_config(grid={"R": 1.0, "M": 64})
    doc["problem"].update(a=["(1+r)^-4"], f=["u1 - 5"])
    path = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: problem.f[0]: takes negative values on {where}\n" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out" / "report.json").exists()


def test_verify_with_a_nonlinearity_negative_at_the_central_values_is_a_config_error(
        tmp_path, capsys):
    good = _negative_source_config(tmp_path, a="1")
    assert main(["solve", "--config", str(good), "--out", str(tmp_path / "solved")]) == 0
    doc = json.loads(good.read_text())
    doc["problem"]["f"] = ["u1 - 5"]
    bad = write_config(tmp_path / "solved", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", str(bad), "--out", str(tmp_path / "verify"),
                     "--solution", str(tmp_path / "solved" / "solution_000.csv")]) == 2
    assert doc["beta"] == 1.0
    assert "config error: problem.f[0]: takes negative values on [1, 1]" in capsys.readouterr().err


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


def test_a_kernel_that_overflows_on_the_grid_is_a_config_error(tmp_path, capsys):
    # exp(integral of h) = exp(100 r) leaves the double range near r = 7.1 < R = 10
    doc = base_config(grid={"R": 10.0, "M": 200})
    good = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(good), "--out", str(tmp_path / "solved")]) == 0
    doc["problem"]["h"] = ["100"]
    path = write_config(tmp_path / "solved", doc)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--solution", str(tmp_path / "solved" / "solution_000.csv")]) == 2
    doc["beta"] = [[1.0], [2.0]]
    path = write_config(tmp_path / "solved", doc)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: grid.R: integrand not finite near t = 7.1\n") == 3
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


@pytest.mark.parametrize("command, beta", [("solve", 1.0), ("sweep", [1.0, 2.0])])
def test_a_decreasing_nonlinearity_ends_in_a_report_with_the_consistency_exit_code(
        tmp_path, capsys, command, beta):
    # f = 1/(1+u) decreases, so the operator is not monotone and a sweep lowers the
    # iterate; the report names the sampled hypothesis that fails
    doc = base_config(grid={"R": 2.0, "M": 200}, beta=beta)
    doc["problem"]["f"] = ["1/(1+u1)"]
    path = write_config(tmp_path, doc)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["command"] == command and report["tag"] == "hypotheses unverified"
    assert report["error"].startswith("iterate decreased by 0.0154605 at some node")
    failed = [name for name, h in report["hypotheses"].items() if not h["passed"]]
    assert failed == ["f[0] nondecreasing"]
    assert report["hypotheses"]["f[0] nondecreasing"]["witness_point"] is not None
    assert "monotone iteration failed: iterate decreased" in capsys.readouterr().err


def test_classify_empties_the_diagonal_store_after_the_remarks_and_keeps_its_report(
        tmp_path, monkeypatch):
    # coupled_sweep has the Lair form, so the Lair probes run after the remarks
    config = Path(__file__).resolve().parent.parent / "configs" / "coupled_sweep.json"
    stores = []
    match = cli.match_lair_form
    monkeypatch.setattr(cli, "match_lair_form",
                        lambda spec: stores.append(len(spec._diagonals)) or match(spec))
    assert main(["classify", "--config", str(config), "--out", str(tmp_path / "released")]) == 0
    monkeypatch.setattr(transforms.ProblemSpec, "release_diagonals", lambda self: None)
    assert main(["classify", "--config", str(config), "--out", str(tmp_path / "kept")]) == 0
    assert stores == [0, 2]  # empty once released; both components' diagonals otherwise
    assert ((tmp_path / "released" / "report.json").read_bytes()
            == (tmp_path / "kept" / "report.json").read_bytes())
    assert json.loads((tmp_path / "kept" / "report.json").read_text())["auxiliary"]["lair"]
