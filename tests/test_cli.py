import argparse
import gc
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from mvgear import (AlphaVector, CovMatrix, cli, diversity, moments, robust, serialize,
                    solvers)
from mvgear.cli import MAX_GRID_POINTS, SWEEP_HEADER, main, parse_grid
from mvgear.cli import CliError
from mvgear.errors import MvgearError
from mvgear.geometry import alpha_angle, kantorovich_bound
from mvgear.moments import estimate_moments, load_returns_csv
from mvgear.robust import ShrinkageSpec, ShrinkMode
from mvgear.serialize import dumps, fmt_float, portfolio_to_dict
from mvgear.solvers import PROGRAMS, Program

from conftest import (forget_loads, odd_surface_instance, reference_csv,
                      reference_surface, true_sigma_p, write_micro_csv)


@pytest.fixture
def micro_csv(tmp_path):
    return write_micro_csv(tmp_path / "returns.csv")


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# Grid parsing
# ---------------------------------------------------------------------------

def test_parse_grid_inclusive_endpoints():
    grid = parse_grid("0.1:0.01:0.3")
    assert len(grid) == 21
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(0.3)


def test_parse_grid_degenerate():
    npt.assert_allclose(parse_grid("1:1:1"), [1.0])
    npt.assert_allclose(parse_grid("2.5"), [2.5])


def test_parse_grid_rejects_garbage():
    with pytest.raises(CliError):
        parse_grid("0:0:1")
    with pytest.raises(CliError):
        parse_grid("a:b:c")
    with pytest.raises(CliError):
        parse_grid("1:2")


@pytest.mark.parametrize("text", ["0:1e-12:1", "0:1e-320:1", "-1e308:1:1e308"])
def test_parse_grid_rejects_oversized_grid_before_allocating(text):
    tracemalloc.start()
    try:
        with pytest.raises(CliError) as info:
            parse_grid(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.code == "BadGrid"
    assert peak < 1_000_000


def test_parse_grid_accepts_grid_at_the_cap():
    assert parse_grid(f"0:1:{MAX_GRID_POINTS - 1}").size == MAX_GRID_POINTS
    with pytest.raises(CliError):
        parse_grid(f"0:1:{MAX_GRID_POINTS}")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "inf:1:inf",
                                  "0:1:nan", "0:inf:1"])
def test_parse_grid_refuses_a_non_finite_value_in_either_form(text):
    with pytest.raises(CliError) as info:
        parse_grid(text)
    assert info.value.code == "BadGrid"


# Each grid flag, with the other flags its subcommand needs.
GRID_FLAGS = [
    ("surface", "--alpha-grid", ["--g0", "1"]),
    ("surface", "--g0", ["--alpha-grid", "0.1"]),
    ("frontier", "--alpha-grid", []),
    ("shrink-sweep", "--grid", ["--mode", "simple"]),
]


@pytest.mark.parametrize("command,flag,rest", GRID_FLAGS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "inf:1:inf", "0:0.1:nan"])
def test_non_finite_grid_exits_2_with_one_line(micro_csv, capsys, command, flag, rest,
                                               value):
    assert run([command, "--input", micro_csv, f"{flag}={value}", *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("code=BadGrid ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("g0", ["nan", "inf", "-inf"])
def test_frontier_non_finite_gearing_exits_2_like_the_surface(micro_csv, capsys, g0):
    # frontier's --g0 is the surface's one-point gearing grid
    assert run(["frontier", "--input", micro_csv, "--alpha-grid", "0.1",
                f"--g0={g0}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=BadGrid ")
    assert len(err.splitlines()) == 1


def test_oversized_frontier_exits_2(micro_csv, capsys):
    assert run(["frontier", "--input", micro_csv, "--alpha-grid", "0:1e-12:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=BadGrid")
    assert len(err.splitlines()) == 1


def test_surface_caps_the_product_of_its_grids(micro_csv, capsys):
    # 1001 x 1001 points: each grid is small, their product is over the cap
    assert run(["surface", "--input", micro_csv, "--g0", "0:0.001:1",
                "--alpha-grid", "0:0.001:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=BadGrid")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# estimate / solve
# ---------------------------------------------------------------------------

def test_estimate_micro(micro_csv, tmp_path):
    out = tmp_path / "m.json"
    assert run(["estimate", "--input", micro_csv, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["assets"] == ["EQT", "BND"]
    npt.assert_allclose(doc["alpha"], [0.1, 0.2], atol=1e-14)
    npt.assert_allclose(doc["covariance"], np.eye(2), atol=1e-14)
    assert doc["condition_number"] == pytest.approx(1.0, abs=1e-12)


def test_solve_vii_micro(micro_csv, tmp_path):
    out = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VII",
                "--gamma", 1, "--g0", 1, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["program"] == "VII"
    npt.assert_allclose(doc["weights"], [0.45, 0.55], atol=1e-12)
    assert doc["gearing"] == pytest.approx(1.0, abs=1e-12)
    assert doc["assets"] == ["EQT", "BND"]


def test_solve_is_byte_deterministic(micro_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["solve", "--input", micro_csv, "--program", "VI",
                    "--alpha0", 0.2, "--g0", 1, "--output", out]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e150, 1e152, 1e155])
@pytest.mark.parametrize("argv", [
    ["estimate"], ["solve", "--program", "VII", "--gamma", "1", "--g0", "1"],
    ["qoqc", "--gamma", "1", "--g0", "1", "--n0", "2"],
    ["shrink-sweep", "--mode", "simple", "--grid", "0:0.5:1"],
], ids=["estimate", "solve", "qoqc", "shrink-sweep"])
def test_returns_near_the_float_limit_exit_with_one_line(tmp_path, monkeypatch, capsys,
                                                         scale, argv):
    # A 3-asset, 8-period panel times 1e150, 1e152 or 1e155: the sample
    # covariance nears or passes the largest float. The load decomposes what
    # is finite, refuses what is not (NonFiniteData), and no request ends in
    # a traceback or a numpy warning: exit 0, or 2 or 3 with one code= line.
    rows = np.random.default_rng(5).standard_normal((8, 3)) * scale
    path = tmp_path / "r.csv"
    path.write_text("a,b,c\n" + "\n".join(",".join(map(repr, row.tolist())) for row in rows)
                    + "\n")
    forget_loads(monkeypatch)
    code = run([argv[0], "--input", path, *argv[1:], "--output", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("code=")
    if scale == 1e155:
        assert err == "code=NonFiniteData sample covariance overflows: the returns are too " \
                      "large to square\n"


def test_non_utf8_csv_exits_3(tmp_path, capsys):
    path = tmp_path / "r.csv"
    # the offset counts from the start of the file, byte-order mark included
    path.write_bytes(b"\xef\xbb\xbfa,b\n0.1,0.2\n0.3,0.4\xe9\n")
    assert run(["estimate", "--input", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("code=NonFiniteData")
    assert "byte 0xe9 at offset 22 is not UTF-8" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("row", [1, 3])
def test_overlong_cell_exits_3(tmp_path, capsys, row):
    # one cell over the csv module's field limit, in the header or in a data row
    long = "x" * 200_000
    lines = [f"{long},b" if row == 1 else "a,b", "0.1,0.2",
             f"0.3,{long}" if row == 3 else "0.3,0.4"]
    path = tmp_path / "r.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["estimate", "--input", path]) == 3
    assert capsys.readouterr().err == (
        f"code=NonFiniteData {path}: row {row} cannot be read as CSV: "
        "field larger than field limit (131072)\n")


@pytest.mark.parametrize("cell", ["1_0", "\u0663"])
def test_cell_only_python_float_reads_exits_3(tmp_path, capsys, cell):
    path = tmp_path / "r.csv"
    path.write_text(f"a,b\n0.1,0.2\n0.3,{cell}\n", encoding="utf-8")
    assert run(["estimate", "--input", path]) == 3
    assert capsys.readouterr().err == (
        f"code=NonFiniteData {path}: cell at row 3, column 2 is not a number: {cell!r}\n")


def test_solve_missing_parameter_exits_2(micro_csv, capsys):
    assert run(["solve", "--input", micro_csv, "--program", "VII",
                "--gamma", 1]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=MissingParameter")
    assert len(err.strip().splitlines()) == 1


def test_solve_module_error_exits_3(micro_csv, capsys):
    assert run(["solve", "--input", micro_csv, "--program", "I",
                "--sigma0", -0.5]) == 3
    assert capsys.readouterr().err.startswith("code=NonPositiveParameter")


# The flags each program requires, as the CLI has always enforced them.
REQUIRED_FLAGS = {
    Program.I: ("sigma0",), Program.II: ("alpha0",), Program.III: ("gamma",),
    Program.IV: (), Program.V: (), Program.VI: ("alpha0", "g0"),
    Program.VII: ("gamma", "g0"), Program.VIII: ("g0",), Program.GMV: (),
    Program.RISKY: (), Program.QOQC: ("gamma", "g0", "n0"),
}
# The programs --program names: the table, less QOQC, which is its own command.
CHOICES = [Program(choice) for choice in cli.PROGRAM_CHOICES]
FLAG_VALUES = {"sigma0": 0.5, "alpha0": 0.2, "gamma": 1, "g0": 1, "n0": 2}
SWEEP_ARGS = ["--mode", "simple", "--grid", "0:0.5:1"]


def flags(names):
    return [arg for name in names for arg in (f"--{name}", FLAG_VALUES[name])]


# Each program parameter that is used in arithmetic without a sign check, and
# QOQC's gamma and g0, with each command that runs it.
NON_FINITE_CASES = [(Program.II, "alpha0"), (Program.IV, "g0"), (Program.V, "g0"),
                    (Program.VI, "alpha0"), (Program.VI, "g0"), (Program.VII, "g0"),
                    (Program.VIII, "g0")]
NON_FINITE_RUNS = [*((program, name, command) for command in ("solve", "shrink-sweep")
                     for program, name in NON_FINITE_CASES),
                   (Program.QOQC, "gamma", "qoqc"), (Program.QOQC, "g0", "qoqc")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("program,name,command", NON_FINITE_RUNS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_program_parameter_exits_3_before_any_arithmetic(
        micro_csv, capsys, command, program, name, value):
    # a numpy RuntimeWarning raised as an error here would be a traceback
    others = [n for n in REQUIRED_FLAGS[program] if n != name]
    program_flag = [] if command == "qoqc" else ["--program", program.value]
    argv = [command, "--input", micro_csv, *program_flag,
            *flags(others), f"--{name}", value]
    if command == "shrink-sweep":
        argv += SWEEP_ARGS
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"code=NonPositiveParameter {name} must be finite, got {value}\n"


def negative_b_csv(path, sign=1.0):
    """30 periods of 4 assets drawn from N(0.001, 0.02^2): B = -0.770, with
    A = 8133 and C = 0.0934, so the GMV return B/A is -9.5e-5. With
    ``sign`` -1 the returns are negated: the same Sigma, A and C, and
    B = +0.770."""
    rows = sign * (np.random.default_rng(3).standard_normal((30, 4)) * 0.02 + 0.001)
    path.write_text("a,b,c,d\n" + "\n".join(",".join(map(repr, row.tolist())) for row in rows)
                    + "\n")
    return path


# The Sharpe programs at --g0, which refuse g0 B <= 0: their overflow runs
# on the negated panel, where B > 0, except a shrunk solve: shrinking either
# panel halfway to the identity flips the sign of B, to 0.0028 on the
# negative-B panel.
SHARPE_AT_G0 = {(Program.IV, "g0"), (Program.V, "g0"), (Program.VIII, "g0")}


# (value, program, parameter) whose weights leave the float range on the
# negative-B panel (the positive-B one for SHARPE_AT_G0): solved, shrunk
# halfway to the identity, or both.
OVERFLOW_CASES = [
    *(("1e-310", program, "gamma") for program in (Program.III, Program.VII)),
    *(("1e308", program, name)
      for program, name in [(Program.I, "sigma0"), (Program.II, "alpha0"), (Program.IV, "g0"),
                            (Program.V, "g0"), (Program.V, "sigma0"), (Program.VI, "alpha0"),
                            (Program.VIII, "g0")]),
    ("-1e308", Program.VI, "alpha0"),
]
OVERFLOW_RUNS = [*((command, *case) for case in OVERFLOW_CASES
                   for command in ("solve", "shrunk-solve", "shrink-sweep")),
                 *((command, value, Program.VI, "g0") for value in ("1e308", "-1e308")
                   for command in ("shrunk-solve", "shrink-sweep"))]
# (command, value, program, parameter) whose weights stay finite, and whose
# theta'Sigma theta leaves the float range though sigma_p does not.
# A sweep over q = 0, 0.5 and 1 of a Sharpe program at --g0 meets B of both
# signs, and is refused for that; it has no run here.
PAST_SQUARE_RUNS = [
    *((command, value, program, name)
      for value, program, name in [
          *(("1e-300", program, "gamma") for program in (Program.III, Program.VII)),
          *(("1e300", program, name)
            for program, name in [(Program.I, "sigma0"), (Program.II, "alpha0"),
                                  (Program.IV, "g0"), (Program.V, "g0"), (Program.V, "sigma0"),
                                  (Program.VI, "alpha0"), (Program.VI, "g0"),
                                  (Program.VII, "g0"), (Program.VIII, "g0")]),
          ("1e308", Program.VII, "g0"), ("-1e308", Program.VII, "g0")]
      for command in ("solve", "shrunk-solve", "shrink-sweep")
      if command != "shrink-sweep" or (program, name) not in SHARPE_AT_G0),
    ("solve", "1e308", Program.VI, "g0"), ("solve", "-1e308", Program.VI, "g0"),
]


def overflow_argv(csv, command, value, program, name, q=0.5):
    others = [n for n in REQUIRED_FLAGS[program] if n != name]
    argv = ["--input", csv, "--program", program.value, *flags(others), f"--{name}={value}"]
    if command == "shrink-sweep":
        return ["shrink-sweep", *argv, *SWEEP_ARGS]
    return ["solve", *argv, *(["--shrink-mode", "simple", "--q", q]
                              if command == "shrunk-solve" else [])]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
@pytest.mark.parametrize("command,value,program,name", OVERFLOW_RUNS)
def test_an_overflowing_parameter_exits_3_with_one_non_finite_data_line(
        tmp_path, capsys, command, value, program, name):
    # A finite parameter whose weights, or whose sigma_p, leave the float
    # range: one code=NonFiniteData line naming the program, and no numpy
    # warning first. The sweep fails too, with the line solve --shrink-mode
    # simple --q prints at one of its points.
    negated = (program, name) in SHARPE_AT_G0 and command != "shrunk-solve"
    csv = negative_b_csv(tmp_path / "r.csv", -1.0 if negated else 1.0)
    assert run(overflow_argv(csv, command, value, program, name)) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"code=NonFiniteData program {program.value} ")
    if command == "shrink-sweep":
        twins = []
        for q in parse_grid(SWEEP_ARGS[-1]):
            run(overflow_argv(csv, "shrunk-solve", value, program, name, q))
            twins.append(capsys.readouterr().err)
        assert err in twins


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
@pytest.mark.parametrize("command,value,program,name", PAST_SQUARE_RUNS)
def test_a_sigma_p_past_the_squares_range_is_written_and_verified(
        tmp_path, capsys, command, value, program, name):
    # theta'Sigma theta overflows, but sigma_p, formed on the weights scaled
    # by a power of two, is finite: the record is written with the true
    # sigma_p, and verify's sigma_p row passes it. (A constraint row may
    # fail: its tolerance is absolute, and these weights are near 1e300.)
    # The sweep writes each point's weights as solve --shrink-mode simple --q
    # writes them.
    negated = (program, name) in SHARPE_AT_G0 and command != "shrunk-solve"
    csv = negative_b_csv(tmp_path / "r.csv", -1.0 if negated else 1.0)
    out, report = tmp_path / "p.json", tmp_path / "v.json"
    if command == "shrink-sweep":
        swept = tmp_path / "s.csv"
        assert run([*overflow_argv(csv, command, value, program, name), "--output", swept]) == 0
        lines = swept.read_text().splitlines()[1:]
        grid = parse_grid(SWEEP_ARGS[-1])
        assert len(lines) == len(grid)
        _, cov = estimate_moments(load_returns_csv(csv))
        past = []
        for q, line in zip(grid, lines):
            assert run([*overflow_argv(csv, "shrunk-solve", value, program, name, q),
                        "--output", out]) == 0
            solved = json.loads(out.read_text())["weights"]
            assert json.loads(line.split(',"')[1].rstrip('"')) == solved
            with np.errstate(over="ignore", invalid="ignore"):
                past.append(not np.isfinite(cov.quad(np.array(solved))))
        assert any(past)
        capsys.readouterr()
        return
    assert run([*overflow_argv(csv, command, value, program, name), "--output", out]) == 0
    record = json.loads(out.read_text())
    _, cov = estimate_moments(load_returns_csv(csv))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(cov.quad(np.array(record["weights"])))
    assert record["sigma_p"] == pytest.approx(float(true_sigma_p(csv, record["weights"])),
                                              rel=1e-13)
    run(["verify", "--input", csv, "--portfolio", out, "--output", report])
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["sigma_p"]["passed"] is True


def wide_return_csv(path):
    """30 periods of 4 assets drawn from N(0.5, 3^2): program III's weights
    at gamma are about 7e-2 / gamma."""
    rows = np.random.default_rng(1).standard_normal((30, 4)) * 3 + 0.5
    path.write_text("a,b,c,d\n" + "\n".join(",".join(map(repr, row)) for row in rows.tolist())
                    + "\n")
    return path


def _longdouble_solve(matrix, rhs):
    """matrix^-1 rhs by Gaussian elimination with partial pivoting in
    ``np.longdouble``, whose exponent range holds these weights' products."""
    a, b = np.array(matrix, np.longdouble), np.array(rhs, np.longdouble)
    n = b.size
    for k in range(n):
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, pivot]], b[[k, pivot]] = a[[pivot, k]], b[[pivot, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:] -= factors[:, None] * a[k]
        b[k + 1:] -= factors * b[k]
    x = np.zeros(n, np.longdouble)
    for i in reversed(range(n)):
        x[i] = (b[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mean,argv", [
    (5e2, ["VII", "--gamma", "1", "--g0", "1e305"]),
    (5e2, ["VII", "--gamma", "1", "--g0", "-1e305"]),
    (5e2, ["VII", "--gamma", "1e-300", "--g0", "1e305"]),
    (3e3, ["III", "--gamma", "1e-305"]),
])
def test_a_gearing_past_the_float_range_over_a_is_solved_and_verified(tmp_path, mean, argv):
    # 30 periods of 4 assets from N(mean, 3000^2): A = 1'Sigma^-1 1 is
    # 6.4e-7, so gearing / A overflows though the weights, about gearing / 4,
    # do not. The record's weights agree with Sigma^-1 (c_alpha alpha + c_1 1)
    # formed in long double within n kappa eps, and verify passes it.
    csv, out = tmp_path / "r.csv", tmp_path / "p.json"
    rows = np.random.default_rng(1).standard_normal((30, 4)) * 3e3 + mean
    csv.write_text("a,b,c,d\n" + "\n".join(",".join(map(repr, row)) for row in rows.tolist())
                   + "\n")
    assert run(["solve", "--input", csv, "--program", *argv, "--output", out]) == 0
    weights = np.array(json.loads(out.read_text())["weights"])
    alpha, cov = estimate_moments(load_returns_csv(csv))
    to_alpha = _longdouble_solve(cov.entries, alpha.entries)
    to_ones = _longdouble_solve(cov.entries, np.ones(4))
    c_alpha = 1 / np.longdouble(argv[2])
    c_ones = ((np.longdouble(argv[4]) - c_alpha * to_alpha.sum()) / to_ones.sum()
              if argv[0] == "VII" else 0)
    reference = c_alpha * to_alpha + c_ones * to_ones
    scale = np.abs(reference).max()
    assert np.abs(weights - reference).max() <= 4 * cov.condition_number * 2.0**-52 * scale
    assert run(["verify", "--input", csv, "--portfolio", out, "--output", tmp_path / "v.json"]) == 0
    assert json.loads((tmp_path / "v.json").read_text())["passed"] is True


def test_a_sweep_point_whose_sigma_p_overflows_fails_as_its_solve_does(tmp_path, capsys):
    # gamma = 1e-308: the weights are near 1e307, finite, but at q = 1 sigma_p
    # itself is past the float range; the sweep refuses that point with
    # solve's line.
    csv = wide_return_csv(tmp_path / "r.csv")
    params = ["--input", csv, "--program", "III", "--gamma", "1e-308"]
    assert run(["shrink-sweep", *params, "--mode", "simple", "--grid", "0:0.5:1"]) == 3
    swept = capsys.readouterr()
    assert run(["solve", *params, "--shrink-mode", "simple", "--q", "1"]) == 3
    solved = capsys.readouterr()
    assert swept.out == solved.out == ""
    assert swept.err == solved.err == (
        "code=NonFiniteData program III sigma_p is inf: "
        "a parameter is too large or too small for these moments\n")


@pytest.mark.parametrize("gamma", ["1e-151", "1e-300"])
def test_sweep_points_near_the_overflow_bound_are_solved_alone_and_written(
        tmp_path, monkeypatch, gamma):
    # gamma = 1e-151: weights near 7e150 pass no overflow bound, but every
    # figure is finite, so each point is solved alone and writes solve's
    # weights; so too at gamma = 1e-300, whose weights near 1e299 have
    # theta'Sigma theta past the float range, and sigma_p near 3.5e299.
    csv, out = wide_return_csv(tmp_path / "r.csv"), tmp_path / "s.csv"
    alone, real = [], robust._sweep_point
    monkeypatch.setattr(robust, "_sweep_point", lambda *args: alone.append(1) or real(*args))
    params = ["--input", csv, "--program", "III", "--gamma", gamma]
    assert run(["shrink-sweep", *params, "--mode", "simple", "--grid", "0:0.5:1",
                "--output", out]) == 0
    assert len(alone) == 3
    lines = out.read_text().splitlines()[1:]
    for q, line in zip(["0", "0.5", "1"], lines):
        assert run(["solve", *params, "--shrink-mode", "simple", "--q", q,
                    "--output", tmp_path / "p.json"]) == 0
        solved = json.loads((tmp_path / "p.json").read_text())["weights"]
        assert json.loads(line.split(',"')[1].rstrip('"')) == solved


@pytest.mark.parametrize("gamma", ["1e-300", "1e-310"])
def test_qoqc_at_a_tiny_gamma_runs_without_a_numpy_warning(tmp_path, capsys, gamma):
    # gamma rho near 1e-303 (1e-313, subnormal): the secular iteration would
    # square reciprocals of gaps that small, so it runs on d scaled by a power
    # of two. RuntimeWarning is an error in this suite. The ridge shift
    # dwarfs gamma Sigma there, so the weights are those at gamma = 1e-100.
    csv = negative_b_csv(tmp_path / "r.csv")
    ref, out, report = tmp_path / "ref.json", tmp_path / "q.json", tmp_path / "v.json"
    for g, path in (("1e-100", ref), (gamma, out)):
        assert run(["qoqc", "--input", csv, "--gamma", g, "--g0", 1, "--n0", 2,
                    "--output", path]) == 0
    assert capsys.readouterr().err == ""
    npt.assert_allclose(json.loads(out.read_text())["weights"],
                        json.loads(ref.read_text())["weights"], rtol=0, atol=1e-12)
    assert run(["verify", "--input", csv, "--portfolio", out, "--output", report]) == 0


@pytest.mark.parametrize("g0", ["1e300", "1e308", "-1e308"])
def test_qoqc_at_a_gearing_whose_square_overflows_exits_3_infeasible(micro_csv, capsys, g0):
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, f"--g0={g0}", "--n0", 2]) == 3
    err = capsys.readouterr().err
    assert err.startswith("code=Infeasible g0^2/n = inf exceeds 1/n0 = 0.5")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command,flag,value", [
    ("solve", "--g0", "-1e-3"), ("solve", "--g0", "-.5e-1"),
    ("frontier", "--alpha-grid", "-1e-3:1e-3:1e-2"),
    ("surface", "--g0", "-1E-1:1e-1:1e-1"),
])
def test_negative_value_after_a_space_reads_as_with_equals(micro_csv, tmp_path,
                                                          command, flag, value):
    # argparse alone takes only -1 and -0.5 for values; -1e-3 read as a flag
    args = {"solve": ["--program", "VII", "--gamma", "1"], "frontier": ["--g0", "1"],
            "surface": ["--alpha-grid", "0.1:0.05:0.2"]}[command]
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run([command, "--input", micro_csv, *args, flag, value,
                "--output", spaced]) == 0
    assert run([command, "--input", micro_csv, *args, f"{flag}={value}",
                "--output", joined]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("tail", [["--g0", "1", "--bogus"], ["--g0", "-x"],
                                  ["--g0", "1", "-1"]])
def test_unknown_flag_still_exits_2(micro_csv, capsys, tail):
    assert run(["solve", "--input", micro_csv, "--program", "VII", "--gamma", "1",
                *tail]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=BadArguments")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["--program", "VII", "--gamma", "1", "--g0", "inf"],
    ["--program", "VI", "--alpha0", "inf", "--g0", "1"],
    ["--program", "IV", "--g0", "inf"],
])
def test_non_finite_program_parameter_prints_one_line_from_a_fresh_process(tmp_path,
                                                                           argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "mvgear.cli", "solve", "--input",
         str(write_micro_csv(tmp_path / "r.csv")), *argv],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("code=NonPositiveParameter ")
    assert len(proc.stderr.splitlines()) == 1


def test_program_table_requires_the_flags_the_cli_requires():
    assert {p: e.required for p, e in PROGRAMS.items()} == REQUIRED_FLAGS
    assert PROGRAMS[Program.IV].optional == ("g0",)
    assert PROGRAMS[Program.V].one_of == ("sigma0", "g0")


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
@pytest.mark.parametrize("program", CHOICES)
def test_program_runs_with_its_table_flags(micro_csv, command, program):
    entry = PROGRAMS[program]
    extra = SWEEP_ARGS if command == "shrink-sweep" else []
    assert run([command, "--input", micro_csv, "--program", program.value, *extra,
                *flags(entry.required + entry.one_of[:1])]) == 0


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
@pytest.mark.parametrize("program,dropped", [
    (program, name) for program in CHOICES for name in PROGRAMS[program].required
])
def test_dropping_a_required_flag_exits_2(micro_csv, capsys, command, program, dropped):
    entry = PROGRAMS[program]
    kept = [name for name in entry.required if name != dropped]
    extra = SWEEP_ARGS if command == "shrink-sweep" else []
    assert run([command, "--input", micro_csv, "--program", program.value, *extra,
                *flags(kept + list(entry.one_of[:1]))]) == 2
    assert capsys.readouterr().err == (
        f"code=MissingParameter program {program.value} requires --{dropped}\n")


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
@pytest.mark.parametrize("given", [(), ("sigma0", "g0")])
def test_program_v_takes_exactly_one_of_sigma0_and_g0(micro_csv, capsys, command, given):
    extra = SWEEP_ARGS if command == "shrink-sweep" else []
    assert run([command, "--input", micro_csv, "--program", "V", *extra,
                *flags(given)]) == 2
    assert capsys.readouterr().err == (
        "code=MissingParameter program V takes exactly one of --sigma0 / --g0\n")


@pytest.mark.parametrize("argv,err", [
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1, "--q", 0.5],
     "--q needs --shrink-mode"),
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1, "--k", 0.1],
     "--k needs --shrink-mode"),
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1, "--shrink-mode", "simple",
      "--q", 0.5, "--k", 0.2], "simple shrink takes --q, not --k"),
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1, "--shrink-mode", "angle",
      "--k", 0.1, "--q", 0.2], "angle shrink takes --k, not --q"),
    (["shrink-sweep", "--mode", "simple", "--grid", "0:0.5:1", "--gamma", 5],
     "--gamma needs --program"),
    (["solve", "--program", "III", "--gamma", 1, "--g0", 7], "program III takes no --g0"),
])
def test_a_flag_the_run_would_ignore_exits_2(micro_csv, tmp_path, capsys, argv, err):
    out = tmp_path / "out"
    assert run([*argv, "--input", micro_csv, "--output", out]) == 2
    assert capsys.readouterr().err == f"code=BadArguments {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
@pytest.mark.parametrize("program,name", [
    (program, name) for program in CHOICES for name in FLAG_VALUES
    if name != "n0" and name not in (*PROGRAMS[program].required,
                                     *PROGRAMS[program].optional, *PROGRAMS[program].one_of)
])
def test_a_parameter_the_program_does_not_take_exits_2(micro_csv, capsys, command,
                                                        program, name):
    entry = PROGRAMS[program]
    extra = SWEEP_ARGS if command == "shrink-sweep" else []
    assert run([command, "--input", micro_csv, "--program", program.value, *extra,
                *flags(entry.required + entry.one_of[:1] + (name,))]) == 2
    assert capsys.readouterr().err == (
        f"code=BadArguments program {program.value} takes no --{name}\n")


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
def test_program_choices_are_the_table_keys(command):
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    choices = next(a.choices for a in commands[command]._actions if a.dest == "program")
    assert choices == cli.PROGRAM_CHOICES
    assert choices == [program.value for program in PROGRAMS if program is not Program.QOQC]
    assert choices == ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "GMV", "RISKY"]


# The flags each subcommand has always accepted.
SUBCOMMAND_FLAGS = {
    "estimate": set(),
    "solve": {"--program", "--sigma0", "--alpha0", "--gamma", "--g0", "--shrink-mode",
              "--k", "--q"},
    "frontier": {"--g0", "--alpha-grid"},
    "surface": {"--g0", "--alpha-grid"},
    "bounds": {"--portfolio", "--theta", "--psi"},
    "shrink-sweep": {"--mode", "--grid", "--program", "--sigma0", "--alpha0", "--gamma",
                     "--g0"},
    "qoqc": {"--gamma", "--g0", "--n0"},
    "verify": {"--portfolio", "--seed", "--samples"},
}


def test_each_subcommand_accepts_its_flags():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(cli.COMMANDS) == set(SUBCOMMAND_FLAGS)
    for command, sub in commands.items():
        accepted = {flag for a in sub._actions for flag in a.option_strings}
        assert accepted == {"-h", "--help", "--input", "--output",
                            *SUBCOMMAND_FLAGS[command]}, command


# Request sequences whose later requests would read an earlier one's flags
# if parsing left state on the parser.
PARSER_REUSE_CASES = {
    "error_then_valid": [
        ["solve", "--program", "VII", "--gamma", "x", "--g0", "1"],
        ["solve", "--program", "VII", "--gamma", "10", "--g0", "1"],
    ],
    "program_then_none": [
        ["solve", "--program", "VII", "--gamma", "10", "--g0", "1"],
        ["shrink-sweep", "--mode", "simple", "--grid", "0:0.5:1"],
    ],
    "solve_then_qoqc": [
        ["solve", "--program", "VII", "--gamma", "10", "--g0", "1",
         "--shrink-mode", "simple", "--q", "0.5"],
        ["qoqc", "--gamma", "10", "--g0", "1", "--n0", "2"],
    ],
}


@pytest.mark.parametrize("case", PARSER_REUSE_CASES)
def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys, case):
    csv = sweep_csv(tmp_path)

    def request(argv):
        code = run([*argv, "--input", csv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    requests = PARSER_REUSE_CASES[case]
    fresh = []
    for argv in requests:
        cli._build_parser.cache_clear()
        fresh.append(request(argv))
    cli._build_parser.cache_clear()
    assert [request(argv) for argv in requests] == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [2 if case == "error_then_valid" else 0, 0]


def test_bad_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("code=BadArguments")


def test_solve_with_shrink(micro_csv, tmp_path):
    out = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VII",
                "--gamma", 1, "--g0", 1, "--shrink-mode", "simple",
                "--q", 0.5, "--output", out]) == 0
    doc = json.loads(out.read_text())
    # identity moments: shrinking is a no-op
    npt.assert_allclose(doc["weights"], [0.45, 0.55], atol=1e-12)
    assert doc["params"]["shrink_mode"] == "simple"


@pytest.mark.parametrize("q", [0, 0.5])
def test_a_shrunk_gmv_record_holds_no_alpha_p(tmp_path, q):
    # GMV reads no returns, shrunk or not; at q = 0 the shrink is Sigma itself,
    # and the record is solve's with the shrink added
    csv = sweep_csv(tmp_path)
    plain, shrunk = tmp_path / "plain.json", tmp_path / "shrunk.json"
    assert run(["solve", "--input", csv, "--program", "GMV", "--output", plain]) == 0
    assert run(["solve", "--input", csv, "--program", "GMV", "--shrink-mode", "simple",
                "--q", q, "--output", shrunk]) == 0
    doc, expected = json.loads(shrunk.read_text()), json.loads(plain.read_text())
    assert doc["alpha_p"] is None and expected["alpha_p"] is None
    if q == 0:
        expected["params"].update(shrink_mode="simple", shrink_k=0.0)
        assert doc == expected


# ---------------------------------------------------------------------------
# frontier / surface
# ---------------------------------------------------------------------------

def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_surface_inflection_audit(micro_csv, tmp_path):
    out = tmp_path / "s.csv"
    assert run(["surface", "--input", micro_csv, "--g0", "1:1:1",
                "--alpha-grid", "0.1:0.01:0.3", "--output", out]) == 0
    header, rows = read_csv(out)
    assert header == ["alpha_p", "g0", "sigma_p", "is_gmv_line", "is_risky_line"]
    assert len(rows) == 21
    sigmas = [float(r[2]) for r in rows]
    alphas = [float(r[0]) for r in rows]
    # minimum sigma_p sits at the grid point nearest g0 B / A = 0.15
    best = int(np.argmin(sigmas))
    assert alphas[best] == pytest.approx(0.15, abs=1e-12)
    flagged = [r for r in rows if r[3] == "1"]
    assert len(flagged) == 1 and float(flagged[0][0]) == pytest.approx(0.15)


def test_surface_deterministic(micro_csv, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["surface", "--input", micro_csv, "--g0", "0.5:0.25:1.5",
                    "--alpha-grid", "0.05:0.05:0.3", "--output", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_frontier_slice(micro_csv, tmp_path):
    out = tmp_path / "f.csv"
    assert run(["frontier", "--input", micro_csv, "--g0", 1.0,
                "--alpha-grid", "0.1:0.05:0.2", "--output", out]) == 0
    header, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == [1.0, 1.0, 1.0]
    # sigma^2 = (2 a^2 - 0.6 a + 0.05) / 0.01 at g0 = 1
    for r in rows:
        a_p, sigma = float(r[0]), float(r[2])
        assert sigma**2 == pytest.approx(
            (2 * a_p**2 - 0.6 * a_p + 0.05) / 0.01, rel=1e-10
        )


@pytest.mark.parametrize("argv,point", [
    (["surface", "--g0", "1", "--alpha-grid", "1e200"], "alpha_p = 1e+200, g0 = 1.0"),
    (["frontier", "--g0", "1e300", "--alpha-grid", "0"], "alpha_p = 0.0, g0 = 1e+300"),
    (["surface", "--g0", "1", "--alpha-grid", "1e153"], "alpha_p = 1e+153, g0 = 1.0"),
])
def test_non_finite_variance_exits_3_naming_the_point(micro_csv, capsys, argv, point):
    # the square of 1e200 and of 1e300 overflows; 1e153 squares to a finite
    # 1e306, which A = 2 and D = 0.01 carry over the largest double
    assert run([*argv, "--input", micro_csv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"code=NonFiniteData variance at {point} is inf\n"


def exponent_instance():
    """The micro moments on grids whose ``%.17g`` text has a decimal exponent."""
    edges = np.array([1e-5, 9.999999999999999e-05, 1e-4, 1e16, 9.999999999999998e16,
                      1e17, -1e17])
    return (AlphaVector(np.array([0.1, 0.2])), CovMatrix.identity(2), edges,
            edges[[0, 3, 5]])


def zero_b_instance():
    """1'Sigma^-1 alpha = 0 exactly: no point is on the risky line."""
    return (AlphaVector(np.array([0.1, -0.1])), CovMatrix.identity(2),
            np.linspace(-0.3, 0.3, 13), np.array([-1.0, 0.0, 1.0, 2.0]))


def signed_zero_instance():
    """The odd squares, g0 = 0 and both lines, with -0.0 in both grids."""
    alpha, cov, alphas, gearings = odd_surface_instance()
    return alpha, cov, np.append(alphas, -0.0), np.append(gearings, -0.0)


SURFACE_CASES = {"odd": odd_surface_instance, "signed_zero": signed_zero_instance,
                 "zero_b": zero_b_instance, "exponent": exponent_instance}


@pytest.mark.parametrize("case", SURFACE_CASES)
def test_surface_text_equals_the_per_point_writer(monkeypatch, capsys, case):
    alpha, cov, alphas, gearings = SURFACE_CASES[case]()
    monkeypatch.setattr(cli, "_moments", lambda args: (None, alpha, cov))
    monkeypatch.setattr(cli, "parse_grid", {"A": alphas, "G": gearings}.__getitem__)
    assert run(["surface", "--input", "-", "--alpha-grid", "A", "--g0", "G"]) == 0
    text = capsys.readouterr().out
    assert text == reference_csv(reference_surface(alpha, cov, alphas, gearings))
    for g0 in gearings.tolist():
        assert run(["frontier", "--input", "-", "--alpha-grid", "A",
                    "--g0", repr(g0)]) == 0
        assert capsys.readouterr().out == reference_csv(
            reference_surface(alpha, cov, alphas, [g0]))
    if case == "signed_zero":
        assert "\n-0,-0,0,1,1\n" in text
    if case == "zero_b":
        assert all(line.endswith(",0") for line in text.splitlines()[1:])
    if case == "exponent":
        assert "\n1e+17,1e+17," in text
        assert "\n1.0000000000000001e-05,10000000000000000," in text


def test_surface_on_a_panel_equals_the_per_point_writer(tmp_path):
    csv = sweep_csv(tmp_path)
    alpha, cov = estimate_moments(load_returns_csv(csv))
    grids = {"surface": ("-0.1:0.002:0.298", "0:0.05:2"),
             "frontier": ("-0.2:0.0004:0.2", "1")}
    for command, (alpha_text, g0_text) in grids.items():
        alphas = parse_grid(alpha_text)
        gearings = parse_grid(g0_text)
        out = tmp_path / f"{command}.csv"
        assert run([command, "--input", csv, f"--alpha-grid={alpha_text}",
                    "--g0", g0_text, "--output", out]) == 0
        assert out.read_bytes().decode() == reference_csv(
            reference_surface(alpha, cov, alphas, gearings))
        assert (alphas.size, gearings.size) == {"surface": (200, 41),
                                                "frontier": (1001, 1)}[command]


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_collinear_theta(micro_csv, tmp_path):
    out = tmp_path / "b.json"
    assert run(["bounds", "--input", micro_csv, "--theta", "0.1,0.2",
                "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["cos_phi"] == pytest.approx(1.0, abs=1e-12)
    assert doc["slack"] == pytest.approx(1.0 - doc["bound_kantorovich"], abs=1e-12)


def test_bounds_from_portfolio_file(micro_csv, tmp_path):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VII",
                "--gamma", 1, "--g0", 1, "--output", port]) == 0
    out = tmp_path / "b.json"
    assert run(["bounds", "--input", micro_csv, "--portfolio", port,
                "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["slack"] >= -1e-10


def test_bounds_refuses_a_psi_below_the_smallest_admissible_angle(tmp_path, capsys):
    # below the angle of the pair x = L^-1 alpha, y = L'theta the
    # Bauer-Householder bound need not hold: at psi = 0 it would read
    # 0.6109 > cos phi = 0.4483, a slack of -0.1626
    rows = np.random.default_rng(1).standard_normal((8, 3)) * 0.05 + [0.01, 0.03, 0.02]
    csv, port = tmp_path / "r.csv", tmp_path / "p.json"
    csv.write_text("a,b,c\n" + "\n".join(",".join(map(repr, row.tolist())) for row in rows)
                   + "\n")
    assert run(["solve", "--input", csv, "--program", "VII", "--gamma", 1, "--g0", 1,
                "--output", port]) == 0
    assert run(["bounds", "--input", csv, "--portfolio", port]) == 0
    text = capsys.readouterr().out
    smallest = json.loads(text)["psi"]
    assert json.loads(text)["slack"] > 0.14
    assert run(["bounds", "--input", csv, "--portfolio", port, "--psi", 0]) == 3
    assert capsys.readouterr().err == (
        f"code=InvalidPsi psi = 0.0 below the smallest admissible angle {smallest!r}\n")
    assert run(["bounds", "--input", csv, "--portfolio", port, "--psi", smallest]) == 0
    assert capsys.readouterr().out == text


def test_bounds_requires_exactly_one_source(micro_csv, capsys):
    assert run(["bounds", "--input", micro_csv]) == 2
    assert capsys.readouterr().err.startswith("code=MissingParameter")


@pytest.mark.parametrize("theta", ["nan,0.5", "inf,1", "0.5,-inf"])
def test_bounds_refuses_a_non_finite_theta(micro_csv, capsys, theta):
    # max(-1, nan) is -1: such a theta was reported as cos_phi = -1
    assert run(["bounds", "--input", micro_csv, f"--theta={theta}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=BadArguments")
    assert len(err.splitlines()) == 1


def bounds_text(csv, theta, capsys) -> str:
    """The report ``bounds --theta`` prints, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["bounds", "--input", csv, "--theta=" + ",".join(repr(float(x)) for x in theta)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600, 1e155, 1e200, 1e-200])
def test_bounds_are_the_same_at_any_scale_of_theta(tmp_path, capsys, scale):
    # The angle, psi and the slack depend on theta's direction alone. A theta
    # whose squared norm overflows or underflows is scaled by a power of two
    # first, which is exact: 2^600 theta gives theta's report itself, and any
    # other scale one within 4 eps of it.
    csv = sweep_csv(tmp_path)
    theta = np.array([1.0, 1.0, 0.5])
    text = bounds_text(csv, theta, capsys)
    base = json.loads(text)
    assert base["psi"] is not None
    scaled = bounds_text(csv, theta * scale, capsys)
    if np.log2(scale).is_integer():
        assert scaled == text
    for name, value in json.loads(scaled).items():
        assert value == pytest.approx(base[name], rel=4 * np.finfo(float).eps, abs=0), name


@pytest.fixture
def five_asset_panels(tmp_path):
    """The same returns with columns A..E, and with the columns reversed."""
    rng = np.random.default_rng(2)
    rows = rng.normal(0.0, 0.04, size=(60, 5)) + np.linspace(0.005, 0.02, 5)
    names = ["A", "B", "C", "D", "E"]
    forward, reverse = tmp_path / "fwd.csv", tmp_path / "rev.csv"
    for path, order in ((forward, slice(None)), (reverse, slice(None, None, -1))):
        lines = [",".join(names[order])]
        lines += [",".join(repr(float(v)) for v in row[order]) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    port = tmp_path / "p.json"
    assert run(["solve", "--input", forward, "--program", "VII",
                "--gamma", 10, "--g0", 1, "--output", port]) == 0
    return forward, reverse, port


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_portfolio_on_reordered_panel_exits_2(five_asset_panels, capsys, command):
    forward, reverse, port = five_asset_panels
    assert run([command, "--input", forward, "--portfolio", port,
                "--output", port.with_suffix(".out")]) == 0
    capsys.readouterr()
    assert run([command, "--input", reverse, "--portfolio", port]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=AssetMismatch")
    assert "'A' for column 1, the panel has 'E'" in err
    assert len(err.splitlines()) == 1


def test_portfolio_naming_fewer_assets_exits_2(five_asset_panels, capsys):
    forward, _, port = five_asset_panels
    doc = json.loads(port.read_text())
    doc["assets"] = doc["assets"][:4]
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", forward, "--portfolio", port]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=AssetMismatch")
    assert "None for column 5, the panel has 'E'" in err


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_portfolio_without_assets_skips_the_name_check(five_asset_panels, command):
    _, reverse, port = five_asset_panels
    doc = json.loads(port.read_text())
    doc["assets"] = None
    port.write_text(json.dumps(doc))
    out = port.with_suffix(".out")
    # the check is skipped; verify then audits the weights on the wrong columns
    expected = 0 if command == "bounds" else 3
    assert run([command, "--input", reverse, "--portfolio", port,
                "--output", out]) == expected


def test_bounds_theta_skips_the_name_check(five_asset_panels):
    _, reverse, port = five_asset_panels
    theta = ",".join(repr(w) for w in json.loads(port.read_text())["weights"])
    assert run(["bounds", "--input", reverse, f"--theta={theta}"]) == 0


# ---------------------------------------------------------------------------
# shrink-sweep / qoqc
# ---------------------------------------------------------------------------

def sweep_csv(tmp_path):
    """A 3-asset panel whose moments have a real condition number, so that a
    shrink sweep actually moves."""
    csv = tmp_path / "r.csv"
    rng = np.random.default_rng(2)
    base = rng.multivariate_normal([0.01, 0.02, 0.015],
                                   [[4.0, 1.0, 0.0], [1.0, 2.0, 0.3], [0.0, 0.3, 1.0]],
                                   size=40)
    csv.write_text("a,b,c\n" + "\n".join(",".join(repr(float(v)) for v in row)
                                         for row in base) + "\n")
    return csv


def test_shrink_sweep(tmp_path):
    csv = sweep_csv(tmp_path)
    out = tmp_path / "sweep.csv"
    assert run(["shrink-sweep", "--input", csv, "--mode", "simple",
                "--grid", "0:0.1:1", "--program", "VII", "--gamma", 1,
                "--g0", 1, "--output", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,kappa_tilde,cos_phi_risky,cos_phi_optimal,bound_kantorovich,weights_json"
    assert len(lines) == 12
    kappas = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(x >= y - 1e-12 for x, y in zip(kappas, kappas[1:]))
    cos_risky = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(y >= x - 1e-12 for x, y in zip(cos_risky, cos_risky[1:]))
    weights = json.loads(lines[1].split('"')[1])
    assert len(weights) == 3


@pytest.mark.parametrize("mode,grid,program", [
    ("simple", "0:0.1:1", ["--program", "VII", "--gamma", 1, "--g0", 1]),
    ("diagonal", "0:0.25:1", []),
    ("angle", "0:0.125:0.625", ["--program", "VI", "--alpha0", 0.3, "--g0", 1]),
])
def test_shrink_sweep_shrinks_once_per_point(tmp_path, monkeypatch, mode, grid, program):
    # The sweep against the library's composition, one shrink and solve per
    # point: k, kappa~ and the bound bit for bit; the weights and both
    # cosines, which the batched pass forms in other products, within
    # kappa eps, normwise for the weights. No point calls shrink_covariance.
    csv = sweep_csv(tmp_path)
    alpha, cov = estimate_moments(load_returns_csv(csv))
    name = program[1] if program else "RISKY"
    params = {key.lstrip("-"): float(value)
              for key, value in zip(program[2::2], program[3::2])}
    rows = []
    for k in parse_grid(grid):
        spec = ShrinkageSpec(mode=ShrinkMode(mode), k=float(k))
        shrunk = robust.shrink_covariance(cov, alpha, spec)
        risky = robust.solve_robust(Program.RISKY, alpha, cov, spec).weights
        optimal = robust.solve_robust(name, alpha, cov, spec, **params).weights
        rows.append([float(k), shrunk.condition_number, alpha_angle(alpha, risky),
                     alpha_angle(alpha, optimal),
                     kantorovich_bound(shrunk.condition_number), optimal])
    real, calls = robust.shrink_covariance, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(robust, "shrink_covariance", counting)
    out = tmp_path / "sweep.csv"
    assert run(["shrink-sweep", "--input", csv, "--mode", mode, "--grid", grid,
                *program, "--output", out]) == 0
    assert calls == []
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER) and len(lines) == len(rows) + 1
    tolerance = cov.condition_number * np.finfo(float).eps
    for line, (k, kappa, cos_risky, cos_optimal, bound, weights) in zip(lines[1:], rows):
        cells = line.split(",", 5)
        assert [cells[0], cells[1], cells[4]] == [fmt_float(k), fmt_float(kappa),
                                                  fmt_float(bound)]
        assert abs(float(cells[2]) - cos_risky) <= tolerance
        assert abs(float(cells[3]) - cos_optimal) <= tolerance
        swept = np.array(json.loads(cells[5].strip('"')))
        assert np.abs(swept - weights).max() <= tolerance * np.abs(weights).max()


def count_calls(monkeypatch, name):
    """The argument tuples of every call to ``numpy.linalg.<name>`` from now on."""
    real, calls = getattr(np.linalg, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("mode,fresh,warm", [
    ("simple", (1, 0), (0, 0)), ("angle", (1, 0), (0, 0)), ("diagonal", (2, 9), (0, 0)),
], ids=["simple", "angle", "diagonal"])
def test_shrink_sweep_decomposes_each_covariance_once(tmp_path, monkeypatch, mode,
                                                      fresh, warm):
    # (eigh, eigvalsh) calls per request. A fresh load decomposes Sigma, and
    # identity shrinks map its spectrum. Diagonal shrinks map the spectrum of
    # Sigma's correlation matrix R, decomposed once, and each of the 9
    # interior points reads its own eigenvalues for kappa~ (q = 0 is Sigma and
    # q = 1 is D, whose spectra are known). A warm request on the same bytes
    # reuses both decompositions and the kept kappa~, and writes the same bytes.
    csv = sweep_csv(tmp_path)
    grid = "0:0.1:1"
    if mode == "angle":
        k0 = robust.angle_floor(*estimate_moments(load_returns_csv(csv)))
        grid = f"0:{k0 / 11!r}:{10 * k0 / 11!r}"
    assert parse_grid(grid).size == 11
    eigh, eigvalsh = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch, "eigvalsh")
    forget_loads(monkeypatch)
    argv = ["shrink-sweep", "--input", csv, "--mode", mode, "--grid", grid,
            "--program", "VII", "--gamma", 1, "--g0", 1]
    for name, expected in (("fresh", fresh), ("warm", warm)):
        eigh.clear(), eigvalsh.clear()
        assert run([*argv, "--output", tmp_path / f"{name}.csv"]) == 0
        assert (len(eigh), len(eigvalsh)) == expected, name
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_diagonal_shrunk_solve_and_verify_read_no_shrunk_spectrum(tmp_path, monkeypatch):
    # the solves run through R's spectrum; only kappa~ needs the shrunk
    # matrix's own eigenvalues, and neither solve nor verify reports it
    csv = sweep_csv(tmp_path)
    eigh, eigvalsh = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch, "eigvalsh")
    forget_loads(monkeypatch)
    out = tmp_path / "p.json"
    assert run(["solve", "--input", csv, "--program", "VII", "--gamma", 1, "--g0", 1,
                "--shrink-mode", "diagonal", "--q", 0.3, "--output", out]) == 0
    assert (len(eigh), len(eigvalsh)) == (2, 0)
    assert run(["verify", "--input", csv, "--portfolio", out]) == 0
    assert (len(eigh), len(eigvalsh)) == (2, 0)
    # verify on a fresh load decomposes Sigma alone: it certifies the record
    # on the shrunk entries, and solves nothing on R's spectrum
    forget_loads(monkeypatch)
    eigh.clear()
    assert run(["verify", "--input", csv, "--portfolio", out]) == 0
    assert (len(eigh), len(eigvalsh)) == (1, 0)


def test_the_ones_column_is_formed_once_per_covariance(tmp_path, monkeypatch):
    # U'1 is kept with the basis it was formed with: repeated solves on the
    # memoised covariance form it once, and the whole sweep forms it never:
    # its points below w = 1 share that basis, and the identity's U'1 is 1.
    # Each solve forms one product for alpha, and a sweep one per frame
    # group: the four points below w = 1 share one, and the identity's point
    # takes one.
    csv = sweep_csv(tmp_path)
    forget_loads(monkeypatch)
    monkeypatch.setattr(moments, "_last_identity", None)
    real, calls = moments._Frame.project, []

    def counting(self, x):
        calls.append(bool(np.all(np.asarray(x) == 1.0)))
        return real(self, x)

    monkeypatch.setattr(moments._Frame, "project", counting)
    for program in (["VII", "--gamma", 1, "--g0", 1], ["RISKY"], ["VI", "--alpha0", 0.5,
                                                                  "--g0", 1]):
        assert run(["solve", "--input", csv, "--program", *program,
                    "--output", tmp_path / "p.json"]) == 0
    assert calls == [True, False, False, False]
    sweep = ["shrink-sweep", "--input", csv, "--mode", "simple", "--grid", "0:0.25:1",
             "--program", "VII", "--gamma", 1, "--g0", 1, "--output", tmp_path / "s.csv"]
    for _ in range(2):
        calls.clear()
        assert run(sweep) == 0
        assert calls == [False, False]


def test_an_angle_sweep_solves_for_k0_once(tmp_path, monkeypatch, capsys):
    # k0 = cos(alpha, Sigma^-1 alpha) is the same at every point of a sweep:
    # one solve with the unshrunk covariance, not one per point. A k at or
    # past k0 still exits 3.
    csv = sweep_csv(tmp_path)
    forget_loads(monkeypatch)
    alpha, cov = estimate_moments(load_returns_csv(csv))
    k0 = robust.angle_floor(alpha, cov)
    real, solved = CovMatrix.solve, []

    def counting(self, x):
        solved.append(self)
        return real(self, x)

    monkeypatch.setattr(CovMatrix, "solve", counting)
    grid = f"0:{k0 / 11!r}:{10 * k0 / 11!r}"
    assert parse_grid(grid).size == 11
    assert run(["shrink-sweep", "--input", csv, "--mode", "angle", "--grid", grid,
                "--output", tmp_path / "s.csv"]) == 0
    assert estimate_moments(load_returns_csv(csv))[1] is cov
    assert sum(matrix is cov for matrix in solved) == 1
    for k in (k0, 1.5 * k0):
        capsys.readouterr()
        assert run(["shrink-sweep", "--input", csv, "--mode", "angle",
                    "--grid", repr(k)]) == 3
        assert capsys.readouterr().err.startswith("code=InvalidK")


def test_shrink_sweep_builds_no_portfolio(tmp_path, monkeypatch):
    # each point takes its two weight vectors from the table's weights step
    csv = sweep_csv(tmp_path)
    built, real = [], solvers.Portfolio.__post_init__

    def counting(self):
        built.append(self.program)
        real(self)

    monkeypatch.setattr(solvers.Portfolio, "__post_init__", counting)
    for program in (["VII", "--gamma", 1, "--g0", 1], ["GMV"], []):
        assert run(["shrink-sweep", "--input", csv, "--mode", "simple", "--grid", "0:0.5:1",
                    *(["--program", *program] if program else []),
                    "--output", tmp_path / "s.csv"]) == 0
    assert built == []


def one_digit_panel(path, n, t, seed):
    """A t x n panel of returns in {-4, ..., 4}: two or three bytes a cell, so
    that the file is well under one n x n float64 array."""
    rows = np.random.default_rng(seed).integers(-4, 5, size=(t, n))
    path.write_text(",".join(f"a{j}" for j in range(n)) + "\n"
                    + "\n".join(",".join(map(str, row)) for row in rows) + "\n")
    return path


def test_a_sweep_point_forms_no_n_by_n_array(tmp_path, monkeypatch):
    # An identity shrink holds only its factor, and the identity of the last
    # dimension is kept, so once the panel and its moments are memoised a
    # sweep up to w = 1 allocates less than one n x n array in all: the
    # file's bytes, the weights and the CSV text.
    n = 300
    csv = one_digit_panel(tmp_path / "r.csv", n, 320, seed=3)
    forget_loads(monkeypatch)
    alpha, cov = estimate_moments(load_returns_csv(csv))
    k0 = robust.angle_floor(alpha, cov)
    assert os.path.getsize(csv) < n * n * 8 // 2
    for mode, grid in (("simple", "0:0.1:1"), ("angle", f"0:{k0 / 8!r}:{k0 / 2!r}")):
        sweep = ["shrink-sweep", "--input", csv, "--mode", mode, "--grid", grid,
                 "--program", "VII", "--gamma", 1, "--g0", 1, "--output", tmp_path / "s.csv"]
        assert run(sweep) == 0
        tracemalloc.start()
        try:
            assert run(sweep) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, mode


def count_sweep_work(monkeypatch):
    """The work each shrink-sweep request does from now on: products with a
    basis (U'S^-1 of alpha, of 1, and S^-1 U of coordinates), and the
    covariances, frontier objects and shrink_covariance calls it builds."""
    work = {"alpha": 0, "ones": 0, "weights": 0, "cov": 0, "frontier": 0, "shrink": 0}
    project, back = moments._Frame.project, CovMatrix.from_coordinates
    factored, init = CovMatrix.__dict__["_factored"].__func__, CovMatrix.__init__
    frontier, shrink = solvers.FrontierScalars.__post_init__, robust.shrink_covariance

    def counted(key, real):
        def call(*args, **kwargs):
            work[key] += 1
            return real(*args, **kwargs)
        return call

    def projected(self, x):
        work["ones" if np.all(np.asarray(x) == 1.0) else "alpha"] += 1
        return project(self, x)

    monkeypatch.setattr(moments._Frame, "project", projected)
    monkeypatch.setattr(CovMatrix, "from_coordinates", counted("weights", back))
    monkeypatch.setattr(CovMatrix, "_factored", classmethod(counted("cov", factored)))
    monkeypatch.setattr(CovMatrix, "__init__", counted("cov", init))
    monkeypatch.setattr(solvers.FrontierScalars, "__post_init__",
                        counted("frontier", frontier))
    monkeypatch.setattr(robust, "shrink_covariance", counted("shrink", shrink))
    return work


@pytest.mark.parametrize("mode,groups", [("angle", 1), ("simple", 2), ("diagonal", 3)])
@pytest.mark.parametrize("program", [[], ["--program", "VII", "--gamma", 1, "--g0", 1]])
def test_a_sweep_solves_each_frame_group_with_two_products(tmp_path, monkeypatch, mode,
                                                           groups, program):
    # Points whose shrinks share a basis and scaling form one group: one
    # stack, one frontier object, one product with the basis for alpha and one
    # for every weight column of the group. Angle shrinks stay below w = 1;
    # simple ones add the identity at w = 1; diagonal ones take Sigma's frame
    # at 0, R's inside (0, 1) and the sorted unit vectors at 1. No per-point
    # covariance, frontier object or shrink_covariance call: at most two
    # matrices per group, a shrink and its stack. An angle sweep adds k0's
    # one solve with Sigma: a product for alpha and one for its weights.
    csv = sweep_csv(tmp_path)
    grid = "0:0.1:1"
    if mode == "angle":
        k0 = robust.angle_floor(*estimate_moments(load_returns_csv(csv)))
        grid = f"0:{k0 / 11!r}:{10 * k0 / 11!r}"
    argv = ["shrink-sweep", "--input", csv, "--mode", mode, "--grid", grid, *program,
            "--output", tmp_path / "s.csv"]
    assert run(argv) == 0  # the load and R's decomposition, once per covariance
    work = count_sweep_work(monkeypatch)
    assert run(argv) == 0
    assert parse_grid(grid).size == 11
    cov, k0_solves = work.pop("cov"), int(mode == "angle")
    assert work == {"alpha": groups + k0_solves, "ones": 0, "weights": groups + k0_solves,
                    "frontier": groups, "shrink": 0}
    assert cov <= 2 * groups


def flat_sum_csv(path):
    """24 periods of 3 assets in eighths, whose column means 1/4, 1/4 and
    -1/2 sum to exactly 0: 1'Sigma~^-1 alpha = 0 at the full shrink to the
    identity, and only there."""
    rows = np.random.default_rng(3).integers(-8, 9, size=(24, 3)) / 8.0
    rows[-1] = np.array([6.0, 6.0, -12.0]) - rows[:-1].sum(axis=0)
    path.write_text("a,b,c\n" + "\n".join(",".join(map(repr, row.tolist())) for row in rows)
                    + "\n")
    return path


def solved_alone(csv, mode, grid, program, params):
    """Each point of a sweep solved alone, in grid order, up to the first that
    raises: its shrink, the maximum-Sharpe direction's weights (IV at
    g0 = sign(B), RISKY's where B > 0) and ``program``'s, the artifact's
    text of them, kappa~ and the two angles. Returns ``program``'s weights
    of each point and the stderr line of the error ('' if none); warnings
    go to the caller's filters."""
    alpha, cov = estimate_moments(load_returns_csv(csv))
    rows = []
    for k in parse_grid(grid):
        spec = ShrinkageSpec(ShrinkMode(mode), float(k))
        try:
            shrunk = robust.shrink_covariance(cov, alpha, spec)
            sign = float(np.sign(solvers.FrontierScalars(alpha, shrunk).B))
            risky = robust.solve_robust(Program.IV, alpha, cov, spec, g0=sign).weights
            optimal = robust.solve_robust(program, alpha, cov, spec, **params).weights
            dumps(optimal), shrunk.condition_number
            alpha_angle(alpha, risky), alpha_angle(alpha, optimal)
        except MvgearError as exc:
            return rows, f"code={type(exc).__name__} {exc}\n"
        rows.append(optimal)
    return rows, ""


def check_solved_alone(tmp_path, capsys, mode, grid, program):
    """Sweep ``program`` (its name, then its flags) on the flat-sum panel and
    check it against each point solved alone: the same warnings in the same
    order, the same stderr line and, where no point fails, solve_robust's
    weights bit for bit. Returns the stderr line and the sweep's warnings."""
    csv = flat_sum_csv(tmp_path / "r.csv")
    params = {key.lstrip("-"): float(value) for key, value in zip(program[1::2], program[2::2])}
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rows, err = solved_alone(csv, mode, grid, program[0], params)
    out = tmp_path / "s.csv"
    with warnings.catch_warnings(record=True) as swept:
        warnings.simplefilter("always")
        assert run(["shrink-sweep", "--input", csv, "--mode", mode, "--grid", grid,
                    "--program", *program, "--output", out]) == (3 if err else 0)
    assert capsys.readouterr().err == err
    assert ([(w.category, str(w.message)) for w in swept]
            == [(w.category, str(w.message)) for w in seen])
    if not err:
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == len(rows)
        for line, weights in zip(lines, rows):
            assert np.array_equal(np.array(json.loads(line.split(",", 5)[5].strip('"'))),
                                  weights)
    return err, swept


@pytest.mark.parametrize("grid,points,err", [
    ("0:0.1:1", 10, "code=ZeroB B = 1'Sigma^-1 alpha = 0; risky portfolio undefined\n"),
    ("0:0.15:1.2", 7, "code=InvalidK q = 1.05 outside [0, 1]\n"),
    ("1.2:-0.15:0", 0, "code=InvalidK q = 1.2 outside [0, 1]\n"),
    ("0:0.25:0.75", 4, ""),
])
def test_a_failing_point_deep_in_the_grid_raises_after_each_earlier_warning(
        tmp_path, capsys, grid, points, err):
    # Each point raises what solving it alone would, in grid order, and VI's
    # warning comes once per point below its inflection, with its text, up to
    # the point that fails: ZeroB at the full shrink, the last point, or
    # InvalidK at the first q past 1, which the points before it warn ahead of.
    # Where none fails, every point warns and is solved alone, so each row
    # holds solve_robust's weights bit for bit.
    got, swept = check_solved_alone(tmp_path, capsys, "simple", grid,
                                    ["VI", "--alpha0", -5, "--g0", 1])
    assert got == err
    assert [w.category for w in swept] == [solvers.InefficientBranchWarning] * points
    assert len({str(w.message) for w in swept}) == points


@pytest.mark.parametrize("mode,grid,program,code", [
    ("angle", "0:0.2:5", ["VI", "--alpha0", -1, "--g0", 1], "InvalidK"),
    ("simple", "-0.5:0.5:1", ["VII", "--gamma", -1, "--g0", 1], "InvalidK"),
    ("simple", "0:0.5:1", ["VIII", "--g0", 0], "NonPositiveParameter"),
    ("simple", "0.499999999999999:0.5:0.999999999999999", ["VII", "--gamma", 1, "--g0", 1],
     "ZeroB"),
], ids=["past-k0", "bad-q-before-bad-gamma", "zero-g0", "tiny-b"])
def test_a_failing_sweep_prints_its_point_solved_alone(tmp_path, capsys, mode, grid,
                                                       program, code):
    # The first failing point's line, text for text, whichever check fails
    # there: a k at or past k0 after two points that warn, an invalid q ahead
    # of an invalid gamma, a g0 the program refuses, and a B of -1.3e-15 whose
    # weights are finite but refused (in the risky column: at the point
    # before it B = -0.15 < 0, which RISKY as the program would refuse).
    err, _ = check_solved_alone(tmp_path, capsys, mode, grid, program)
    assert err.startswith(f"code={code} ")


def test_shrink_sweep_without_a_risky_portfolio_exits_3(tmp_path, capsys):
    # alpha = (0.1, -0.1) and Sigma = I: 1'Sigma~^-1 alpha = 0 at every shrink
    csv = tmp_path / "r.csv"
    csv.write_text("a,b\n1.1,0.9\n-0.9,-1.1\n1.1,-1.1\n-0.9,0.9\n0.1,-0.1\n")
    assert run(["shrink-sweep", "--input", csv, "--mode", "simple",
                "--grid", "0:0.5:1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("code=ZeroB")
    assert len(err.splitlines()) == 1


def test_qoqc_command(micro_csv, tmp_path):
    out = tmp_path / "q.json"
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", 1,
                "--n0", 1, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["program"] == "QOQC"
    npt.assert_allclose(doc["weights"], [0.0, 1.0], atol=1e-10)
    assert doc["params"]["lambda1"] == pytest.approx(0.45, abs=1e-10)


def test_qoqc_infeasible_exits_3(micro_csv, capsys):
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", 2,
                "--n0", 1]) == 3
    assert capsys.readouterr().err.startswith("code=Infeasible")


@pytest.mark.parametrize("g0", ["nan", "inf"])
def test_qoqc_non_finite_g0_exits_3(micro_csv, capsys, g0):
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", g0,
                "--n0", 1]) == 3
    err = capsys.readouterr().err
    assert err.startswith("code=NonPositiveParameter g0 must be finite")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# verify round-trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solve_args", [
    ["--program", "VII", "--gamma", 1, "--g0", 1],
    ["--program", "VI", "--alpha0", 0.2, "--g0", 1],
    ["--program", "VIII", "--g0", 2],
    ["--program", "GMV"],
    ["--program", "V", "--sigma0", 0.9],
    ["--program", "III", "--gamma", 2],
    ["--program", "I", "--sigma0", 0.5],
    ["--program", "II", "--alpha0", 0.05],
    ["--program", "RISKY"],
])
def test_verify_round_trip(micro_csv, tmp_path, solve_args):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, *solve_args, "--output", port]) == 0
    report = tmp_path / "v.json"
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--samples", 20000, "--output", report]) == 0
    text = report.read_text()
    assert "np.float64(" not in text
    doc = json.loads(text)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_shrunk_solve_round_trip(tmp_path):
    csv = tmp_path / "r.csv"
    rng = np.random.default_rng(8)
    base = rng.multivariate_normal(
        [0.01, 0.02, 0.015],
        [[4.0, 1.0, 0.0], [1.0, 2.0, 0.3], [0.0, 0.3, 1.0]], size=60)
    csv.write_text("a,b,c\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in base) + "\n")
    port = tmp_path / "p.json"
    assert run(["solve", "--input", csv, "--program", "VII", "--gamma", 1,
                "--g0", 1, "--shrink-mode", "simple", "--q", 0.4,
                "--output", port]) == 0
    report = tmp_path / "v.json"
    assert run(["verify", "--input", csv, "--portfolio", port,
                "--output", report]) == 0
    assert json.loads(report.read_text())["passed"] is True


def test_verify_qoqc_round_trip(micro_csv, tmp_path):
    port = tmp_path / "q.json"
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", 1,
                "--n0", 1, "--output", port]) == 0
    report = tmp_path / "v.json"
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 0
    assert json.loads(report.read_text())["passed"] is True


FIELDS = ["gearing_field", "leverage_field", "alpha_p", "sigma_p", "stationarity"]
GEARING, RETURN, RISK = "gearing_constraint", "return_constraint", "risk_constraint"
SHRINK = ["--shrink-mode", "simple", "--q", 0.4]


# A record of each program of the table, and the checks verify runs on it.
VERIFIED = [
    (["solve", "--program", "GMV"],
     ["gearing_field", "leverage_field", "sigma_p", "stationarity", GEARING,
      "bound_slack"]),
    (["solve", "--program", "RISKY"],
     FIELDS + [GEARING, "bound_slack", "sharpe_dominance"]),
    (["solve", "--program", "I", "--sigma0", 0.5], FIELDS + [RISK, "bound_slack"]),
    (["solve", "--program", "II", "--alpha0", 0.02], FIELDS + [RETURN, "bound_slack"]),
    (["solve", "--program", "III", "--gamma", 2], FIELDS + ["bound_slack"]),
    (["solve", "--program", "IV"], FIELDS + [GEARING, "bound_slack", "sharpe_dominance"]),
    (["solve", "--program", "V", "--sigma0", 0.9],
     FIELDS + [GEARING, RISK, "bound_slack", "sharpe_dominance"]),
    (["solve", "--program", "V", "--g0", 1.5],
     FIELDS + [GEARING, "bound_slack", "sharpe_dominance"]),
    (["solve", "--program", "VI", "--alpha0", 0.02, "--g0", 1],
     FIELDS + [GEARING, RETURN, "bound_slack"]),
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1],
     FIELDS + [GEARING, "bound_slack"]),
    (["solve", "--program", "VIII", "--g0", 2],
     FIELDS + [GEARING, "bound_slack", "sharpe_dominance"]),
    (["solve", "--program", "VI", "--alpha0", 0.02, "--g0", 1, *SHRINK],
     FIELDS + [GEARING, RETURN, "bound_slack"]),
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1, *SHRINK],
     FIELDS + [GEARING, "bound_slack"]),
    (["solve", "--program", "V", "--sigma0", 0.9, *SHRINK],
     FIELDS + [GEARING, RISK, "bound_slack"]),
    (["qoqc", "--gamma", 1, "--g0", 1, "--n0", 2],
     FIELDS + [GEARING, "diversity_constraint", "bound_slack"]),
]


@pytest.mark.parametrize("command,expected", VERIFIED)
def test_verify_audits_each_program(tmp_path, command, expected):
    csv = tmp_path / "r.csv"
    rng = np.random.default_rng(8)
    base = rng.multivariate_normal(
        [0.01, 0.02, 0.015],
        [[4.0, 1.0, 0.0], [1.0, 2.0, 0.3], [0.0, 0.3, 1.0]], size=60)
    csv.write_text("a,b,c\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in base) + "\n")
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run([command[0], "--input", csv, *command[1:], "--output", port]) == 0
    assert run(["verify", "--input", csv, "--portfolio", port, "--samples", 2000,
                "--output", report]) == 0
    assert [c["name"] for c in json.loads(report.read_text())["checks"]] == expected


def test_table_audits_are_verify_audits_in_verify_order():
    for program, entry in PROGRAMS.items():
        assert [name for name in cli.AUDITS if name in entry.audits] == list(entry.audits)
        assert "bound" not in entry.audits, program


def _three_asset_csv(tmp_path):
    """The panel ``test_verify_audits_each_program`` solves on."""
    csv = tmp_path / "r.csv"
    rng = np.random.default_rng(8)
    base = rng.multivariate_normal(
        [0.01, 0.02, 0.015],
        [[4.0, 1.0, 0.0], [1.0, 2.0, 0.3], [0.0, 0.3, 1.0]], size=60)
    csv.write_text("a,b,c\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in base) + "\n")
    return csv


@pytest.mark.parametrize("command", [command for command, _ in VERIFIED])
def test_a_record_stores_the_figures_verify_measures_bit_for_bit(tmp_path, command):
    # solve and verify form the four figures by one function, so a written
    # record, read back, matches its measurement to the last bit
    csv, port = _three_asset_csv(tmp_path), tmp_path / "p.json"
    assert run([command[0], "--input", csv, *command[1:], "--output", port]) == 0
    record = serialize.load_portfolio_json(port)
    alpha, cov = estimate_moments(load_returns_csv(csv))
    measured = solvers._measure(record.weights, alpha, cov)
    for name, value in measured.items():
        stored = getattr(record, name)
        if stored is not None:
            assert stored.hex() == value.hex(), name


def test_verify_measures_the_record_once(tmp_path, monkeypatch):
    # the field checks and the gearing, risk and Sharpe audits all read one
    # measurement of the record's weights
    csv, port = _three_asset_csv(tmp_path), tmp_path / "p.json"
    assert run(["solve", "--input", csv, "--program", "V", "--sigma0", 0.9,
                "--output", port]) == 0
    loaded, measured = [], []
    load, measure = cli._load_portfolio, solvers._measure
    monkeypatch.setattr(cli, "_load_portfolio",
                        lambda *args: loaded.append(load(*args)) or loaded[-1])
    monkeypatch.setattr(solvers, "_measure",
                        lambda w, *args: measured.append(w) or measure(w, *args))
    assert run(["verify", "--input", csv, "--portfolio", port, "--samples", 200,
                "--output", tmp_path / "v.json"]) == 0
    assert [w is loaded[0].weights for w in measured].count(True) == 1


def _edited_record(tmp_path, csv, solve_args, edit):
    """A solved record, with ``edit`` applied to its JSON, and its verify checks."""
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run(["solve", "--input", csv, *solve_args, "--output", port]) == 0
    doc = json.loads(port.read_text())
    edit(doc)
    port.write_text(json.dumps(doc))
    run(["verify", "--input", csv, "--portfolio", port, "--output", report])
    return {c["name"]: c["passed"] for c in json.loads(report.read_text())["checks"]}


@pytest.mark.parametrize("factor,passed", [(0.5, True), (2.0, False)])
@pytest.mark.parametrize("g0", [1e-3, 1e3])
def test_verify_compares_within_rtol_of_the_target(tmp_path, factor, passed, g0):
    # one rule for a field and a constraint: |value - target| <= rtol
    # max(1, |target|), here with rtol 1e-12 on the stored leverage and 1e-10
    # on the recorded g0, each moved by half or twice that from its value
    csv, args = _three_asset_csv(tmp_path), ["--program", "VII", "--gamma", 1, "--g0", g0]

    def move_leverage(doc):
        doc["leverage"] += factor * 1e-12 * max(1.0, doc["leverage"])

    def move_g0(doc):
        doc["params"]["g0"] = doc["gearing"] + factor * 1e-10 * max(1.0, g0)

    assert _edited_record(tmp_path, csv, args, move_leverage)["leverage_field"] is passed
    assert _edited_record(tmp_path, csv, args, move_g0)[GEARING] is passed


def _negated(doc):
    doc["weights"] = [-w for w in doc["weights"]]
    doc.update(gearing=-doc["gearing"], alpha_p=-doc["alpha_p"])


def _zeroed(doc):
    doc["weights"] = [0.0 for _ in doc["weights"]]
    doc.update(gearing=0.0, leverage=0.0, alpha_p=0.0, sigma_p=0.0)


@pytest.mark.parametrize("solve_args,edit,failed", [
    (["--program", "VII", "--gamma", 1, "--g0", 1],
     lambda doc: doc["params"].update(gamma=1.01), "stationarity"),
    (["--program", "III", "--gamma", 2],
     lambda doc: doc["params"].update(gamma=2.02), "stationarity"),
    (["--program", "VII", "--gamma", 1, "--g0", 1, *SHRINK],
     lambda doc: doc["params"].update(shrink_k=0.404), "stationarity"),
    (["--program", "VII", "--gamma", 1, "--g0", 1, "--shrink-mode", "diagonal", "--q", 0.4],
     lambda doc: doc["params"].update(shrink_k=0.404), "stationarity"),
    (["--program", "RISKY"], _negated, "stationarity"),
    (["--program", "VI", "--alpha0", 0.02, "--g0", 1],
     lambda doc: doc["params"].update(alpha0=0.0202), RETURN),
    (["--program", "I", "--sigma0", 0.5, *SHRINK],
     lambda doc: doc["params"].update(sigma0=0.505), RISK),
    (["--program", "V", "--sigma0", 0.9, *SHRINK],
     lambda doc: doc["params"].update(sigma0=0.909), RISK),
    (["--program", "I", "--sigma0", 0.5, *SHRINK], _zeroed, RISK),
])
def test_verify_fails_a_record_one_parameter_off(tmp_path, solve_args, edit, failed):
    # the certificate checks the optimum the record's params state, not the
    # solve that wrote it: gamma or q off by 1% is a point off the program's
    # frontier, and RISKY negated (B > 0) is the Sharpe minimum, nu_alpha < 0.
    # VI's alpha0 moves the point along the frontier, where its return fails,
    # and a shrunk sigma0, or zero weights, moves it off the shrunk risk.
    csv = _three_asset_csv(tmp_path)
    assert all(_edited_record(tmp_path, csv, solve_args, lambda doc: None).values())
    checks = _edited_record(tmp_path, csv, solve_args, edit)
    assert checks[failed] is False
    assert checks["stationarity"] is (failed != "stationarity")


def test_verify_reaches_no_solver(tmp_path, monkeypatch):
    # records of every program, unshrunk and at each shrink, written by the
    # library, pass verify with every solver refusing to run
    csv = _three_asset_csv(tmp_path)
    alpha, cov = estimate_moments(load_returns_csv(csv))
    params = {Program.I: {"sigma0": 0.5}, Program.II: {"alpha0": 0.02},
              Program.III: {"gamma": 2.0}, Program.V: {"sigma0": 0.9},
              Program.VI: {"alpha0": 0.02, "g0": 1.0}, Program.VII: {"gamma": 1.0, "g0": 1.0},
              Program.VIII: {"g0": 2.0}, Program.QOQC: {"gamma": 1.0, "g0": 1.0, "n0": 2.0}}
    specs = [None, ShrinkageSpec(ShrinkMode.SIMPLE, 0.4), ShrinkageSpec(ShrinkMode.DIAGONAL, 0.4),
             ShrinkageSpec(ShrinkMode.ANGLE_TARGETED, 0.5 * robust.angle_floor(alpha, cov))]
    records = []
    for program in PROGRAMS:
        for spec in specs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", solvers.InefficientBranchWarning)
                port = robust.solve_robust(program, alpha, cov, spec, **params.get(program, {}))
            records.append(tmp_path / f"{program.value}-{len(records)}.json")
            records[-1].write_text(dumps(portfolio_to_dict(port)))

    def refuse(*args, **kwargs):
        raise AssertionError("verify reached a solver")

    for module, name in ((robust, "solve_robust"), (solvers, "solve"),
                         (solvers, "program_weights"), (solvers, "solve_qoqc"),
                         (diversity, "solve_qoqc")):
        monkeypatch.setattr(module, name, refuse)
    for record in records:
        report = tmp_path / "v.json"
        assert run(["verify", "--input", csv, "--portfolio", record, "--samples", 200,
                    "--output", report]) == 0, record.name
        assert json.loads(report.read_text())["passed"] is True


def _overflow_csv(tmp_path, scale=1.0):
    """30 periods of 4 assets on which weights of about 1e160 or more have a
    variance past the float range; returns times ``scale``."""
    rows = scale * (np.random.default_rng(1).standard_normal((30, 4)) * 0.02 + 0.01)
    path = tmp_path / "r.csv"
    path.write_text("a,b,c,d\n" + "\n".join(",".join(map(repr, row.tolist())) for row in rows)
                    + "\n")
    return path


def _overflow_record(tmp_path, weights, leverage):
    """A VII record at g0 = 0 with ``weights``, whose stored figures are finite."""
    port = tmp_path / "p.json"
    port.write_text(json.dumps({
        "program": "VII", "params": {"gamma": 1, "g0": 0}, "assets": list("abcd"),
        "weights": weights, "gearing": 0.0, "leverage": leverage, "alpha_p": 0.0,
        "sigma_p": 1.0}))
    return port


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("returns,scale,leverage,failed", [
    (1.0, 1e160, 4e160, "sigma_p"), (1e5, 1e306, 4e306, "sigma_p"),
    (1.0, 1e308, 4.0, "leverage_field")])
def test_verify_fails_a_figure_recomputed_past_the_float_range(tmp_path, capsys, returns,
                                                               scale, leverage, failed):
    # theta' Sigma theta (and at 1e308 the leverage) overflows: the stored
    # finite figure does not match the one recomputed, and no numpy warning
    # is printed. sigma_p is recomputed on the weights scaled by a power of
    # two: near 4e158 at 1e160, and past the float range on returns 1e5 times
    # as large.
    csv, report = _overflow_csv(tmp_path, returns), tmp_path / "v.json"
    weights = [scale, -scale, scale, -scale]
    port = _overflow_record(tmp_path, weights, leverage)
    assert run(["verify", "--input", csv, "--portfolio", port, "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks[failed]["passed"] is False
    recomputed = float(checks[failed]["detail"].rsplit(" vs recomputed ", 1)[1])
    true = true_sigma_p(csv, weights) if failed == "sigma_p" else math.inf
    assert recomputed == (pytest.approx(float(true), rel=1e-13) if true < 1e308 else math.inf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["bounds", "verify"])
@pytest.mark.parametrize("signs", [[1, -1, 1, -1], [1, 1, 1, 1]])
def test_a_record_whose_weight_sums_overflow_loads_without_a_warning(tmp_path, capsys,
                                                                     command, signs):
    # the record holds gearing and leverage, so the load forms no default
    # sum; the weight sum it checks the gearing against reads inf, and refuses
    csv = _overflow_csv(tmp_path)
    port = _overflow_record(tmp_path, [1e308 * sign for sign in signs], 4.0)
    code = run([command, "--input", csv, "--portfolio", port, "--output", tmp_path / "o"])
    err = capsys.readouterr().err
    if sum(signs):
        assert (code, err) == (3, "code=InvalidPortfolio gearing field does not equal the "
                                  "weight sum\n")
    elif command == "bounds":
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (3, "code=VerificationFailed one or more checks failed\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_a_record_whose_weight_sums_overflow_and_that_stores_no_gearing_is_refused(
        tmp_path, capsys, command):
    # with no gearing or leverage field the load forms both from the weights,
    # whose sums read inf: refused, not taken into the record as if stored
    csv = _overflow_csv(tmp_path)
    port = _overflow_record(tmp_path, [1e308] * 4, 4.0)
    doc = json.loads(port.read_text())
    del doc["gearing"], doc["leverage"]
    port.write_text(json.dumps(doc))
    code = run([command, "--input", csv, "--portfolio", port, "--output", tmp_path / "o"])
    assert (code, capsys.readouterr().err) == (
        3, "code=InvalidPortfolio gearing must be finite, got inf\n")


def test_verify_passes_a_qoqc_record_on_the_boundary(tmp_path):
    # n0 = n/g0^2: g0 e is the only feasible point, and the multipliers the
    # record carries certify nothing, so the stationarity row says so and
    # passes; the constraints are still audited
    csv = _three_asset_csv(tmp_path)
    port, report = tmp_path / "q.json", tmp_path / "v.json"
    assert run(["qoqc", "--input", csv, "--gamma", 1, "--g0", 1, "--n0", 3,
                "--output", port]) == 0
    assert run(["verify", "--input", csv, "--portfolio", port,
                "--output", report]) == 0
    checks = json.loads(report.read_text())["checks"]
    assert [c["name"] for c in checks] == FIELDS + [
        GEARING, "diversity_constraint", "bound_slack"]
    assert all(c["passed"] for c in checks)
    assert checks[FIELDS.index("stationarity")]["detail"] == (
        "g0 e is the only feasible point: no multipliers to certify")


def test_verify_audits_stationarity_off_the_boundary(tmp_path):
    # gamma Sigma theta - alpha - 2 lambda1 theta - lambda2 1 = 0 with the
    # recorded multipliers, to a backward error of at most 8 n eps, as
    # diversity.stationarity_residual measures it, relative to the data
    csv = _three_asset_csv(tmp_path)
    port, report = tmp_path / "q.json", tmp_path / "v.json"
    assert run(["qoqc", "--input", csv, "--gamma", 1, "--g0", 1, "--n0", 2.999,
                "--output", port]) == 0
    assert run(["verify", "--input", csv, "--portfolio", port,
                "--output", report]) == 0
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    _, alpha, cov = cli._moments(argparse.Namespace(input=csv))
    doc = json.loads(port.read_text())
    params, theta = doc["params"], np.array(doc["weights"])
    residual = diversity.stationarity_residual(
        alpha.entries, cov, params["gamma"], theta, params["lambda1"], params["lambda2"])
    scale = (params["gamma"] * np.abs(cov.entries).sum(axis=1).max() * np.abs(theta).max()
             + np.abs(alpha.entries).max() + abs(params["lambda2"])
             + 2 * abs(params["lambda1"]) * np.abs(theta).max())
    error = float(checks["stationarity"]["detail"].split()[2])
    tolerance = 8 * 3 * np.finfo(float).eps
    assert checks["stationarity"]["passed"] and error <= tolerance
    assert residual / scale <= tolerance


def test_verify_audits_a_shrunk_qoqc_record(tmp_path):
    # the qoqc command takes no shrink flags; the library writes the record
    csv = _three_asset_csv(tmp_path)
    alpha, cov = estimate_moments(load_returns_csv(csv))
    port = robust.solve_robust(Program.QOQC, alpha, cov, ShrinkageSpec(ShrinkMode.SIMPLE, 0.4),
                               gamma=1.0, g0=1.0, n0=2.0)
    path, report = tmp_path / "q.json", tmp_path / "v.json"
    path.write_text(dumps(portfolio_to_dict(port)))
    assert run(["verify", "--input", csv, "--portfolio", path, "--output", report]) == 0
    checks = json.loads(report.read_text())["checks"]
    # stationarity holds on the shrunk covariance, and is certified there
    assert [c["name"] for c in checks] == FIELDS + [
        GEARING, "diversity_constraint", "bound_slack"]
    assert all(c["passed"] for c in checks)
    assert checks[FIELDS.index("stationarity")]["detail"].startswith("backward error ")


def test_verify_fails_a_qoqc_record_whose_gearing_squares_past_the_float_range(
        tmp_path, capsys):
    csv = _three_asset_csv(tmp_path)
    port, report = tmp_path / "q.json", tmp_path / "v.json"
    assert run(["qoqc", "--input", csv, "--gamma", 1, "--g0", 1, "--n0", 2,
                "--output", port]) == 0
    doc = json.loads(port.read_text())
    doc["params"]["g0"] = 1e300
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", csv, "--portfolio", port, "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = {c["name"]: c["passed"] for c in json.loads(report.read_text())["checks"]}
    assert not checks["stationarity"] and not checks[GEARING]


def test_verify_fails_the_return_audit_of_a_vi_record_without_alpha0(tmp_path, capsys):
    csv = _three_asset_csv(tmp_path)
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run(["solve", "--input", csv, "--program", "VI", "--alpha0", 0.02, "--g0", 1,
                "--output", port]) == 0
    doc = json.loads(port.read_text())
    del doc["params"]["alpha0"]
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", csv, "--portfolio", port, "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = json.loads(report.read_text())["checks"]
    assert [c["name"] for c in checks] == FIELDS + [GEARING, RETURN, "bound_slack"]
    missing = "MissingParameter: program VI requires --alpha0"
    for c in checks:
        if c["name"] in ("stationarity", RETURN):
            assert c == {"name": c["name"], "passed": False, "detail": missing}
        else:
            assert c["passed"] is True


def test_verify_fails_a_sharpe_record_with_zero_weights(tmp_path, capsys):
    csv = _three_asset_csv(tmp_path)
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run(["solve", "--input", csv, "--program", "RISKY", "--output", port]) == 0
    doc = json.loads(port.read_text())
    doc.update(weights=[0.0, 0.0, 0.0], gearing=0.0, leverage=0.0, alpha_p=0.0,
               sigma_p=0.0)
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", csv, "--portfolio", port, "--samples", 200,
                "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["sharpe_dominance"] == {
        "name": "sharpe_dominance", "passed": False,
        "detail": "ZeroDivisionError: float division by zero"}


@pytest.mark.parametrize("program", ["IV", "VIII"])
@pytest.mark.parametrize("g0", [0.5, 1, 2])
def test_verify_passes_a_geared_sharpe_record(tmp_path, program, g0):
    csv = _three_asset_csv(tmp_path)
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run(["solve", "--input", csv, "--program", program, "--g0", g0,
                "--output", port]) == 0
    assert run(["verify", "--input", csv, "--portfolio", port, "--samples", 20000,
                "--output", report]) == 0
    checks = {c["name"]: c["passed"] for c in json.loads(report.read_text())["checks"]}
    assert checks["sharpe_dominance"] and checks["bound_slack"] and all(checks.values())


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
@pytest.mark.parametrize("alpha0", ["0", "-1"])
def test_verify_skips_the_bound_of_a_vi_record_whose_return_is_not_positive(
        tmp_path, capsys, alpha0):
    # x'y = alpha'theta = alpha0 <= 0: no psi < pi/2 is admissible and the
    # bound claims nothing, so verify skips it; bounds, asked for a psi,
    # still refuses the record
    csv = negative_b_csv(tmp_path / "r.csv")
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run(["solve", "--input", csv, "--program", "VI", f"--alpha0={alpha0}",
                "--g0", 1, "--output", port]) == 0
    assert run(["verify", "--input", csv, "--portfolio", port, "--samples", 200,
                "--output", report]) == 0
    checks = json.loads(report.read_text())["checks"]
    assert [c["name"] for c in checks] == FIELDS + [GEARING, RETURN]
    assert all(c["passed"] for c in checks)
    for psi in ([], ["--psi", 1]):
        assert run(["bounds", "--input", csv, "--portfolio", port, *psi]) == 3
        assert capsys.readouterr().err.startswith("code=InvalidPsi ")


@pytest.mark.parametrize("program", [["RISKY"], ["IV"], ["IV", "--g0", 1], ["VIII", "--g0", 1],
                                     ["V", "--g0", 1], ["VIII", "--g0", 0]])
def test_a_sharpe_program_at_negative_b_refuses_a_gearing_with_no_maximum(tmp_path, capsys,
                                                                          program):
    # B < 0: at g0 > 0 (RISKY's g0 = 1, IV's default) g0 theta_alpha is the
    # Sharpe minimum, and no maximum exists
    csv, out = negative_b_csv(tmp_path / "r.csv"), tmp_path / "p.json"
    g0 = float(program[2]) if len(program) > 1 else 1.0
    assert run(["solve", "--input", csv, "--program", *program, "--output", out]) == 3
    assert capsys.readouterr().err == (
        "code=NonPositiveParameter g0 B must be positive for a Sharpe maximum, "
        f"got g0 = {g0!r}, B = -0.76977\n")
    assert not out.exists()


def test_a_sweep_at_negative_b_bounds_the_maximum_sharpe_direction(tmp_path, capsys):
    # B < 0 at k = 0 and B~ > 0 from k = 0.1 on: the risky column is
    # sign(B~) theta_alpha, the direction Kantorovich bounds, so
    # cos phi >= 2 sqrt(kappa~) / (kappa~ + 1) at every point
    csv, out = negative_b_csv(tmp_path / "r.csv"), tmp_path / "s.csv"
    assert run(["shrink-sweep", "--input", csv, "--mode", "simple", "--grid", "0:0.1:1",
                "--program", "VII", "--gamma", 5, "--g0", 1, "--output", out]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",")[:5] for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 11
    for _, _, cos_risky, _, bound in rows:
        assert float(cos_risky) >= float(bound) - 1e-12


def test_a_sweep_with_no_program_at_negative_b_keeps_riskys_portfolio(tmp_path, capsys):
    # With no program both columns are theta_alpha = Sigma~^-1 alpha / B~ at
    # every point, 1'theta = 1, also at k = 0, where B < 0 makes it the
    # Sharpe minimum (cos phi < 0) that solve --program RISKY refuses
    csv, out = negative_b_csv(tmp_path / "r.csv"), tmp_path / "s.csv"
    assert run(["shrink-sweep", "--input", csv, "--mode", "simple", "--grid", "0:0.1:1",
                "--output", out]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",", 5) for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 11
    for _, _, cos_risky, cos_optimal, _, weights in rows:
        assert cos_optimal == cos_risky
        npt.assert_allclose(sum(json.loads(weights.strip('"'))), 1.0, rtol=0, atol=1e-12)
    assert float(rows[0][2]) < 0
    frontier = solvers.FrontierScalars(*estimate_moments(load_returns_csv(csv)))
    assert frontier.B < 0
    npt.assert_allclose(json.loads(rows[0][5].strip('"')),
                        frontier.weights(1.0 / frontier.B, 1.0), rtol=1e-12)
    assert run(["solve", "--input", csv, "--program", "RISKY", "--output", out]) == 3


@pytest.mark.parametrize("program", [["VIII", "--g0", -1], ["IV", "--g0", -2], ["V", "--g0", -1],
                                     ["V", "--sigma0", 0.02]])
def test_verify_passes_a_sharpe_maximum_on_a_panel_with_negative_b(tmp_path, capsys, program):
    # B < 0: at g0 < 0, g0 theta_alpha is the Sharpe maximum, which no sample
    # beats; V at sigma0 is a positive multiple of Sigma^-1 alpha, g0 < 0
    csv = negative_b_csv(tmp_path / "r.csv")
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run(["solve", "--input", csv, "--program", *program, "--output", port]) == 0
    assert json.loads(port.read_text())["params"]["g0"] < 0
    assert run(["verify", "--input", csv, "--portfolio", port, "--samples", 2000,
                "--output", report]) == 0
    checks = {c["name"]: c["passed"] for c in json.loads(report.read_text())["checks"]}
    assert checks["sharpe_dominance"] is True
    assert all(checks.values())


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
@pytest.mark.parametrize("program", ["IV", "VIII"])
@pytest.mark.parametrize("g0", ["-1", "0"])
def test_a_sharpe_program_refuses_a_gearing_that_is_not_positive(
        tmp_path, capsys, command, program, g0):
    # B > 0: on 1'theta = g0 < 0, g0 theta_alpha is the Sharpe minimum and no
    # maximum exists; at g0 = 0 it is the zero portfolio. A sweep fails at
    # its first point, k = 0, where B~ = B.
    csv, out = _three_asset_csv(tmp_path), tmp_path / "out"
    argv = [command, "--input", csv, "--program", program, f"--g0={g0}", "--output", out]
    if command == "shrink-sweep":
        argv += SWEEP_ARGS
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        "code=NonPositiveParameter g0 B must be positive for a Sharpe maximum, "
        f"got g0 = {float(g0)!r}, B = 0.00214083\n")
    assert not out.exists()


def test_verify_flags_tampered_weights(micro_csv, tmp_path, capsys):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VII",
                "--gamma", 1, "--g0", 1, "--output", port]) == 0
    doc = json.loads(port.read_text())
    doc["weights"] = [0.25, 0.75]
    doc["gearing"] = 1.0
    doc["leverage"] = 1.0
    port.write_text(json.dumps(doc))
    report = tmp_path / "v.json"
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 3
    assert capsys.readouterr().err.startswith("code=VerificationFailed")
    doc = json.loads(report.read_text())
    assert not doc["passed"]
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert "stationarity" in failed


@pytest.mark.parametrize("solve_args,edit,detail", [
    (["--program", "VII", "--gamma", 1, "--g0", 1],
     lambda params: params.pop("gamma"),
     "MissingParameter: program VII requires --gamma"),
    (["--program", "VI", "--alpha0", 0.2, "--g0", 1, *SHRINK],
     lambda params: params.pop("g0"),
     "MissingParameter: program VI requires --g0"),
    (["--program", "V", "--g0", 1],
     lambda params: params.update(shrink_mode="max"),
     "InvalidPortfolio: unknown shrink mode 'max'; expected one of angle, simple, diagonal"),
])
def test_verify_fails_a_file_its_program_cannot_resolve(
        micro_csv, tmp_path, capsys, solve_args, edit, detail):
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run(["solve", "--input", micro_csv, *solve_args, "--output", port]) == 0
    doc = json.loads(port.read_text())
    edit(doc["params"])
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--samples", 200, "--output", report]) == 3
    assert capsys.readouterr().err.startswith("code=VerificationFailed")
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["stationarity"] == {
        "name": "stationarity", "passed": False, "detail": detail}


@pytest.mark.parametrize("name", ["gamma", "g0", "n0", "lambda1", "lambda2"])
def test_verify_fails_a_qoqc_file_without_a_param(micro_csv, tmp_path, capsys, name):
    port, report = tmp_path / "q.json", tmp_path / "v.json"
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", 1, "--n0", 1,
                "--output", port]) == 0
    doc = json.loads(port.read_text())
    del doc["params"][name]
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = json.loads(report.read_text())["checks"]
    # every audit still runs; the certificate and each audit that reads the name fail
    assert [c["name"] for c in checks] == FIELDS + [
        GEARING, "diversity_constraint", "bound_slack"]
    needs = {"stationarity": {"gamma", "g0", "n0", "lambda1", "lambda2"}, GEARING: {"g0"},
             "diversity_constraint": {"n0"}}
    missing = f"MissingParameter: program QOQC requires --{name}"
    for c in checks:
        if name in needs.get(c["name"], ()):
            assert c == {"name": c["name"], "passed": False, "detail": missing}
        else:
            assert c["passed"] is True


def test_verify_fails_a_qoqc_file_with_zero_n0(micro_csv, tmp_path, capsys):
    port, report = tmp_path / "q.json", tmp_path / "v.json"
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", 1, "--n0", 1,
                "--output", port]) == 0
    doc = json.loads(port.read_text())
    doc["params"]["n0"] = 0
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["stationarity"]["detail"].startswith("Infeasible: ")
    assert checks["diversity_constraint"] == {
        "name": "diversity_constraint", "passed": False,
        "detail": "ZeroDivisionError: float division by zero"}


def _solved_record(tmp_path, csv, edit):
    """A solved shrunk program VII file with ``edit`` applied to its record."""
    port = tmp_path / "p.json"
    assert run(["solve", "--input", csv, "--program", "VII", "--gamma", 1, "--g0", 1,
                *SHRINK, "--output", port]) == 0
    doc = json.loads(port.read_text())
    edit(doc)
    port.write_text(json.dumps(doc))
    return port


MISTYPED = {
    "params.gamma": lambda doc: doc["params"].update(gamma="abc"),
    "params.g0": lambda doc: doc["params"].update(g0="abc"),
    "params.g0 true": lambda doc: doc["params"].update(g0=True),
    "params.g0 NaN": lambda doc: doc["params"].update(g0=float("nan")),
    "params.shrink_k": lambda doc: doc["params"].update(shrink_k="x"),
    "params.shrink_mode": lambda doc: doc["params"].update(shrink_mode=0.4),
    "params list": lambda doc: doc.update(params=[["g0", 1]]),
    "gearing": lambda doc: doc.update(gearing="x"),
    "gearing null": lambda doc: doc.update(gearing=None),
    "leverage": lambda doc: doc.update(leverage="x"),
    "alpha_p": lambda doc: doc.update(alpha_p="x"),
    "sigma_p": lambda doc: doc.update(sigma_p=[1.0]),
    "assets": lambda doc: doc.update(assets=5),
    "assets string": lambda doc: doc.update(assets="ab"),
    "assets numbers": lambda doc: doc.update(assets=[1, 2]),
    "weights strings": lambda doc: doc.update(weights=[str(w) for w in doc["weights"]]),
    "weights booleans": lambda doc: doc.update(weights=[True, False]),
    "weights null entry": lambda doc: doc.update(weights=[None, 1.0]),
    "weights null": lambda doc: doc.update(weights=None),
    "weights nested": lambda doc: doc.update(weights=[[w] for w in doc["weights"]]),
}


@pytest.mark.parametrize("command", ["verify", "bounds"])
@pytest.mark.parametrize("field", MISTYPED)
def test_mistyped_portfolio_field_exits_3(micro_csv, tmp_path, capsys, command, field):
    port = _solved_record(tmp_path, micro_csv, MISTYPED[field])
    assert run([command, "--input", micro_csv, "--portfolio", port]) == 3
    err = capsys.readouterr().err
    assert err.startswith("code=InvalidPortfolio ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["verify", "bounds"])
@pytest.mark.parametrize("edit,detail", [
    (lambda params: params.pop("shrink_k"),
     "MissingParameter: shrink mode simple requires shrink_k"),
    (lambda params: params.update(shrink_k=None),
     "MissingParameter: shrink mode simple requires shrink_k"),
    (lambda params: params.update(shrink_mode="bogus"),
     "InvalidPortfolio: unknown shrink mode 'bogus'; expected one of angle, simple, diagonal"),
    (lambda params: params.update(shrink_mode="max"),
     "InvalidPortfolio: unknown shrink mode 'max'; expected one of angle, simple, diagonal"),
])
def test_unreadable_shrink_record_fails_stationarity(
        micro_csv, tmp_path, capsys, command, edit, detail):
    port = _solved_record(tmp_path, micro_csv, lambda doc: edit(doc["params"]))
    report = tmp_path / "out.json"
    if command == "bounds":
        # bounds reads only the weights
        assert run(["bounds", "--input", micro_csv, "--portfolio", port,
                    "--output", report]) == 0
        return
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["stationarity"] == {
        "name": "stationarity", "passed": False, "detail": detail}
    assert all(c["passed"] for name, c in checks.items() if name != "stationarity")


def test_verify_reads_params_named_like_solver_arguments(micro_csv, tmp_path):
    # a param may share a name with an argument of solvers.solve or solve_robust
    port = _solved_record(tmp_path, micro_csv, lambda doc: doc["params"].update(
        program=1.0, alpha=2.0, cov=3.0, spec=4.0))
    report = tmp_path / "v.json"
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 0


@pytest.mark.parametrize("command", ["verify", "bounds"])
@pytest.mark.parametrize("content", [
    "{not json", '["x"]', '{"program": "VII", "weights": {"a": 1}}',
])
def test_bad_portfolio_file_exits_3(micro_csv, tmp_path, capsys, command, content):
    port = tmp_path / "p.json"
    port.write_text(content)
    assert run([command, "--input", micro_csv, "--portfolio", port]) == 3
    err = capsys.readouterr().err
    assert err.startswith("code=InvalidPortfolio")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag,value,low", [
    ("--seed", -1, 0), ("--samples", 0, 1), ("--samples", -5, 1)])
def test_verify_refuses_a_negative_seed_or_no_samples(micro_csv, tmp_path, capsys,
                                                      flag, value, low):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VIII",
                "--g0", 1, "--output", port]) == 0
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                flag, value]) == 2
    err = capsys.readouterr().err
    assert err == f"code=BadArguments argument {flag}: must be at least {low}, got {value}\n"


def test_importing_the_cli_imports_no_scipy():
    code = ("import sys, mvgear.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": package_root})
    assert out.stdout == "[]\n"


def test_verify_seed_is_reproducible(micro_csv, tmp_path):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VIII",
                "--g0", 1, "--output", port]) == 0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["verify", "--input", micro_csv, "--portfolio", port,
                    "--seed", 7, "--samples", 5000, "--output", out]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# The memo of the last load: a request on unchanged bytes reuses the panel
# ---------------------------------------------------------------------------

def memo_script(k0):
    """One request of every subcommand, as (artifact name, argv): each
    shrink-sweep mode, and bounds and verify of records written before them."""
    vii = ["--program", "VII", "--gamma", 2, "--g0", 1]
    return [
        ("estimate.json", ["estimate"]),
        ("vii.json", ["solve", *vii]),
        ("vi.json", ["solve", "--program", "VI", "--alpha0", 0.3, "--g0", 1.5,
                     "--shrink-mode", "diagonal", "--q", 0.3]),
        ("frontier.csv", ["frontier", "--alpha-grid", "0:0.02:0.4", "--g0", 1.2]),
        ("surface.csv", ["surface", "--alpha-grid", "0:0.04:0.4",
                         "--g0", "0.5:0.25:1.5"]),
        ("bounds.json", ["bounds", "--portfolio", "vii.json"]),
        ("angle.csv", ["shrink-sweep", "--mode", "angle",
                       "--grid", f"0:{k0 / 5!r}:{4 * k0 / 5!r}", *vii]),
        ("simple.csv", ["shrink-sweep", "--mode", "simple", "--grid", "0:0.25:1"]),
        ("diagonal.csv", ["shrink-sweep", "--mode", "diagonal", "--grid", "0:0.25:1",
                          *vii]),
        ("qoqc.json", ["qoqc", "--gamma", 2, "--g0", 1, "--n0", 2]),
        ("verify_vii.json", ["verify", "--portfolio", "vii.json", "--samples", 2000]),
        ("verify_vi.json", ["verify", "--portfolio", "vi.json", "--samples", 2000]),
        ("verify_qoqc.json", ["verify", "--portfolio", "qoqc.json"]),
    ]


def check_cache_hits(tmp_path, monkeypatch, loadtxt_calls, csv_reads, trusted):
    """Run every subcommand on one panel with an empty memo before each
    request, then again on the memo, and compare the artifacts: every hit
    reads and compares the bytes, or (``trusted``) is served by the file's
    key and reads none."""
    csv = sweep_csv(tmp_path)
    script = memo_script(robust.angle_floor(*estimate_moments(load_returns_csv(csv))))
    names = [name for name, _ in script]

    def run_script(directory, fresh):
        directory.mkdir()
        for name, argv in script:
            if fresh:
                forget_loads(monkeypatch)
            argv = [directory / a if a in names else a for a in argv]
            assert run([*argv, "--input", csv, "--output", directory / name]) == 0, name
        return {name: (directory / name).read_bytes() for name in names}

    loadtxt_calls.clear()
    misses = run_script(tmp_path / "misses", fresh=True)
    assert len(loadtxt_calls) == len(script)
    monkeypatch.setattr(moments, "TRUST_WINDOW_S", 0.0 if trusted else np.inf)
    if trusted:
        load_returns_csv(csv)  # a second verified load of the key trusts it
    loadtxt_calls.clear()
    csv_reads.clear()
    hits = run_script(tmp_path / "hits", fresh=False)
    assert loadtxt_calls == []
    assert len(csv_reads) == (0 if trusted else len(script))
    assert hits == misses
    assert all(json.loads(hits[name])["passed"] for name in hits if "verify" in name)


def test_cache_hits_write_the_bytes_misses_write(tmp_path, monkeypatch, loadtxt_calls,
                                                 csv_reads):
    check_cache_hits(tmp_path, monkeypatch, loadtxt_calls, csv_reads, trusted=False)


def test_trusted_cache_hits_write_the_bytes_misses_write(tmp_path, monkeypatch,
                                                         loadtxt_calls, csv_reads):
    check_cache_hits(tmp_path, monkeypatch, loadtxt_calls, csv_reads, trusted=True)


# ---------------------------------------------------------------------------
# The estimate artifact kept with its covariance
# ---------------------------------------------------------------------------

def wide_csv(path, seed=0, n=50, periods=120):
    """A panel whose n(n+1)/2 covariance cells go through ``_g17``'s kernel."""
    rows = np.random.default_rng(seed).normal(0.001, 0.02, (periods, n))
    path.write_text(",".join(f"a{j}" for j in range(n)) + "\n" + "\n".join(
        ",".join(map(repr, row)) for row in rows.tolist()) + "\n")
    return path


@pytest.fixture
def formatting(monkeypatch):
    """One entry per ``serialize.dumps`` and ``_g17.format_cells`` call, by name."""
    from mvgear import _g17

    calls = []
    for module, name in ((serialize, "dumps"), (_g17, "format_cells")):
        real = getattr(module, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def estimate(csv, out) -> bytes:
    assert run(["estimate", "--input", csv, "--output", out]) == 0
    return out.read_bytes()


def test_an_estimate_hit_writes_the_bytes_of_a_miss_and_of_a_fresh_process(
        tmp_path, monkeypatch, formatting):
    csv = wide_csv(tmp_path / "r.csv")
    forget_loads(monkeypatch)
    miss = estimate(csv, tmp_path / "miss.json")
    assert formatting.count("format_cells") == 1
    formatting.clear()
    hit = estimate(csv, tmp_path / "hit.json")
    assert formatting == []
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-m", "mvgear.cli", "estimate", "--input", str(csv),
                    "--output", str(tmp_path / "fresh.json")], check=True, env=env, timeout=60)
    assert hit == miss == (tmp_path / "fresh.json").read_bytes()


def test_an_estimate_hit_writes_the_kept_bytes_to_stdout_and_over_output(
        tmp_path, monkeypatch, capsysbinary, formatting):
    # the artifact is kept encoded: a hit hands the very bytes kept to the
    # writer, and stdout and --output get the bytes of the miss
    csv = wide_csv(tmp_path / "r.csv", n=8)
    forget_loads(monkeypatch)
    assert run(["estimate", "--input", csv]) == 0
    miss = capsysbinary.readouterr().out
    kept = cli._estimates[moments._last_moments[3]]
    assert kept == miss and "dumps" in formatting
    formatting.clear()
    assert run(["estimate", "--input", csv]) == 0
    assert capsysbinary.readouterr().out == miss
    assert estimate(csv, tmp_path / "e.json") == miss
    assert cli._cmd_estimate(cli._build_parser().parse_args(["estimate", "--input", str(csv)])) \
        is kept
    assert formatting == []


def test_stdout_gets_the_utf8_bytes_of_an_estimate_and_the_text_of_other_artifacts(
        tmp_path, monkeypatch):
    # an estimate, kept encoded, goes to stdout's byte stream as the UTF-8
    # bytes that --output gets, whatever stdout's encoding and newline; other
    # artifacts go through its text layer; a stdout with no byte stream gets
    # the estimate's text
    csv = tmp_path / "r.csv"
    rows = np.random.default_rng(0).normal(0.001, 0.02, (12, 3))
    csv.write_text("é,ü,c\n" + "\n".join(",".join(map(repr, row)) for row in rows.tolist())
                   + "\n", encoding="utf-8")
    forget_loads(monkeypatch)
    expected = estimate(csv, tmp_path / "e.json")
    assert '"é"'.encode() in expected
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="cp1252", newline="\r\n"))
    assert run(["estimate", "--input", csv]) == 0
    assert raw.getvalue() == expected
    assert run(["solve", "--input", csv, "--program", "GMV", "--output", tmp_path / "p.json"]) == 0
    assert run(["solve", "--input", csv, "--program", "GMV"]) == 0
    sys.stdout.flush()
    text = (tmp_path / "p.json").read_text(encoding="utf-8")
    assert raw.getvalue() == expected + text.replace("\n", "\r\n").encode("cp1252")
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert run(["estimate", "--input", csv]) == 0
    assert sys.stdout.getvalue() == expected.decode("utf-8")


def test_an_estimate_between_solves_on_one_file_formats_nothing(tmp_path, formatting):
    csv = wide_csv(tmp_path / "r.csv")
    miss = estimate(csv, tmp_path / "e.json")
    assert run(["solve", "--input", csv, "--program", "VII", "--gamma", 2, "--g0", 1,
                "--shrink-mode", "diagonal", "--q", 0.5, "--output", tmp_path / "p.json"]) == 0
    assert run(["shrink-sweep", "--input", csv, "--mode", "diagonal", "--grid", "0:0.5:1",
                "--output", tmp_path / "s.csv"]) == 0
    formatting.clear()
    assert estimate(csv, tmp_path / "e.json") == miss
    assert formatting == []


def test_a_rewritten_csv_is_estimated_afresh(tmp_path, formatting):
    csv, twin = tmp_path / "r.csv", tmp_path / "twin.csv"
    first = estimate(wide_csv(csv, seed=1), tmp_path / "e.json")
    wide_csv(csv, seed=2)
    formatting.clear()
    second = estimate(csv, tmp_path / "e.json")
    assert "dumps" in formatting
    assert second != first
    assert second == estimate(wide_csv(twin, seed=2), tmp_path / "twin.json")


def test_an_estimate_of_another_file_drops_the_kept_text(tmp_path, monkeypatch, formatting):
    # A's covariance dies once a solve of B loads another: the kept text
    # keeps it alive no longer than the memo of the moments does.
    a, b = wide_csv(tmp_path / "a.csv", seed=1), wide_csv(tmp_path / "b.csv", seed=2)
    forget_loads(monkeypatch)
    first = estimate(a, tmp_path / "a.json")
    kept = weakref.ref(moments._last_moments[3])
    assert list(cli._estimates) == [kept()]
    assert run(["solve", "--input", b, "--program", "GMV", "--output", tmp_path / "p.json"]) == 0
    gc.collect()
    assert kept() is None and len(cli._estimates) == 0
    formatting.clear()
    estimate(b, tmp_path / "b.json")
    assert "dumps" in formatting
    kept = weakref.ref(moments._last_moments[3])
    assert list(cli._estimates) == [kept()]
    formatting.clear()
    assert estimate(a, tmp_path / "a.json") == first
    assert "dumps" in formatting
    gc.collect()
    assert kept() is None
    assert list(cli._estimates) == [moments._last_moments[3]]


def test_forgetting_the_loads_misses_the_kept_text(tmp_path, monkeypatch, formatting):
    csv = wide_csv(tmp_path / "r.csv")
    first = estimate(csv, tmp_path / "e.json")
    forget_loads(monkeypatch)
    formatting.clear()
    assert estimate(csv, tmp_path / "e.json") == first
    assert "dumps" in formatting


def test_a_floored_panel_warns_on_the_hit_too(tmp_path, formatting):
    csv = wide_csv(tmp_path / "r.csv", n=50, periods=20)
    with pytest.warns(moments.SpdRepairWarning):
        miss = estimate(csv, tmp_path / "e.json")
    formatting.clear()
    with pytest.warns(moments.SpdRepairWarning):
        assert estimate(csv, tmp_path / "e.json") == miss
    assert formatting == []


def test_a_failing_estimate_leaves_the_kept_text(tmp_path, monkeypatch, capsys, formatting):
    csv, bad = wide_csv(tmp_path / "r.csv"), tmp_path / "bad.csv"
    first = estimate(csv, tmp_path / "e.json")
    kept = dict(cli._estimates)
    bad.write_text("a,b\n0.1,nan\n0.2,0.3\n")
    assert run(["estimate", "--input", bad]) == 3
    assert run(["estimate", "--input", tmp_path / "missing.csv"]) == 2
    capsys.readouterr()
    assert dict(cli._estimates) == kept
    formatting.clear()
    assert estimate(csv, tmp_path / "e.json") == first
    assert formatting == []


def test_an_estimate_whose_formatting_raises_keeps_no_text(tmp_path, monkeypatch, capsys):
    def refuse(obj):
        raise MvgearError("formatting refused")

    csv = wide_csv(tmp_path / "r.csv")
    forget_loads(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(serialize, "dumps", refuse)
        assert run(["estimate", "--input", csv]) == 3
    assert capsys.readouterr().err == "code=MvgearError formatting refused\n"
    assert moments._last_moments[3] not in cli._estimates
    assert run(["estimate", "--input", csv, "--output", tmp_path / "e.json"]) == 0
    assert moments._last_moments[3] in cli._estimates


# ---------------------------------------------------------------------------
# Writing the artifact: over --output in place, cut to the new length
# ---------------------------------------------------------------------------

@pytest.fixture
def write_calls(monkeypatch):
    """The (path, flags) of each ``os.open`` and the length of each
    ``os.ftruncate`` made during the test."""
    calls = SimpleNamespace(opened=[], truncated=[])
    real_open, real_ftruncate = os.open, os.ftruncate

    def spy_open(path, flags, *args, **kwargs):
        calls.opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    def spy_ftruncate(fd, length):
        calls.truncated.append(length)
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
    return calls


def _panel_csv(path, names, periods):
    rows = np.random.default_rng(len(names)).normal(0.001, 0.02, (periods, len(names)))
    path.write_text(",".join(names) + "\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rows) + "\n", encoding="utf-8")
    return path


ASSET_NAMES = {"ascii": [f"A{i}" for i in range(8)],
               "utf8": [f"Aktie-{i}-\u00c4\u00d6-\u682a\u5f0f-\U0001f642" for i in range(8)]}
PREFILL = {"fresh": None, "shrink": b"\xff" * 2**20, "grow": b"0123456789"}


@pytest.mark.parametrize("names", ASSET_NAMES)
@pytest.mark.parametrize("prefill", PREFILL)
def test_an_artifact_written_over_a_file_has_the_bytes_of_a_fresh_write(
        tmp_path, write_calls, names, prefill):
    csv = _panel_csv(tmp_path / "r.csv", ASSET_NAMES[names], periods=30)
    fresh, out = tmp_path / "fresh.json", tmp_path / "out.json"
    assert run(["estimate", "--input", csv, "--output", fresh]) == 0
    expected = fresh.read_bytes()
    if PREFILL[prefill] is not None:
        out.write_bytes(PREFILL[prefill])
    write_calls.truncated.clear()
    assert run(["estimate", "--input", csv, "--output", out]) == 0
    assert out.read_bytes() == expected
    # cut to the byte length only when the old file was longer
    assert write_calls.truncated == ([len(expected)] if prefill == "shrink" else [])
    flags = [f for path, f in write_calls.opened if path in (str(fresh), str(out))]
    assert len(flags) == 2 and not any(f & os.O_TRUNC for f in flags)
    if names == "utf8":
        assert len(expected) > len(expected.decode("utf-8"))


def test_an_artifact_written_to_dev_null_exits_0(micro_csv, write_calls):
    assert run(["estimate", "--input", micro_csv, "--output", os.devnull]) == 0
    assert write_calls.truncated == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_receives_the_whole_artifact(tmp_path, write_calls):
    # 80 assets: the artifact is larger than a pipe's buffer, so the write
    # waits on the reader
    csv = _panel_csv(tmp_path / "r.csv", [f"A{i}" for i in range(80)], periods=160)
    fresh, fifo = tmp_path / "fresh.json", tmp_path / "fifo"
    assert run(["estimate", "--input", csv, "--output", fresh]) == 0
    expected = fresh.read_bytes()
    assert len(expected) > 2**16
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    write_calls.truncated.clear()
    assert run(["estimate", "--input", csv, "--output", fifo]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [expected]
    assert write_calls.truncated == []


@pytest.mark.parametrize("argv,code", [
    (["solve", "--program", "VII", "--gamma", 1], 2),
    (["frontier", "--alpha-grid", "0:0:1"], 2),
    (["solve", "--program", "VIII", "--g0=-1"], 3),
    (["qoqc", "--gamma", 1, "--g0", 2, "--n0", 1], 3),
])
def test_a_request_that_fails_before_emitting_leaves_the_old_file(
        micro_csv, tmp_path, capsys, write_calls, argv, code):
    out = tmp_path / "old.json"
    old = "old artifact \u2713\n".encode("utf-8") * 1000
    out.write_bytes(old)
    assert run([*argv, "--input", micro_csv, "--output", out]) == code
    assert capsys.readouterr().err.startswith("code=")
    assert out.read_bytes() == old
    assert str(out) not in [path for path, _ in write_calls.opened]


def test_a_failing_verify_report_replaces_a_longer_old_report(micro_csv, tmp_path, capsys):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VII", "--gamma", 1,
                "--g0", 1, "--output", port]) == 0
    doc = json.loads(port.read_text())
    doc["weights"] = [0.25, 0.75]
    port.write_text(json.dumps(doc))
    fresh, report = tmp_path / "fresh.json", tmp_path / "report.json"
    report.write_bytes(b" " * 2**20)
    for out in (fresh, report):
        assert run(["verify", "--input", micro_csv, "--portfolio", port,
                    "--samples", 2000, "--output", out]) == 3
    assert capsys.readouterr().err.count("code=VerificationFailed") == 2
    assert report.read_bytes() == fresh.read_bytes()
    assert json.loads(report.read_text())["passed"] is False


def test_a_new_artifact_gets_the_mode_open_gives(micro_csv, tmp_path):
    out, reference = tmp_path / "m.json", tmp_path / "reference"
    umask = os.umask(0o027)
    try:
        with open(reference, "w"):
            pass
        assert run(["estimate", "--input", micro_csv, "--output", out]) == 0
    finally:
        os.umask(umask)
    assert (stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
            == 0o666 & ~0o027)


# ---------------------------------------------------------------------------
# Full workflow on a realistic synthetic panel
# ---------------------------------------------------------------------------

def test_full_workflow_on_monthly_panel(tmp_path):
    rng = np.random.default_rng(314)
    n = 6
    b = rng.standard_normal((n, n)) * 0.03
    true_cov = b @ b.T + np.diag(rng.uniform(0.0005, 0.004, n))
    true_mu = rng.uniform(0.002, 0.015, n)
    rows = rng.multivariate_normal(true_mu, true_cov, size=120)
    csv = tmp_path / "monthly.csv"
    names = [f"SEC{i}" for i in range(n)]
    csv.write_text(",".join(names) + "\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rows) + "\n")

    moments = tmp_path / "moments.json"
    assert run(["estimate", "--input", csv, "--output", moments]) == 0
    est = json.loads(moments.read_text())
    assert est["condition_number"] > 1.0

    for program, extra in [
        ("GMV", []),
        ("RISKY", []),
        ("VI", ["--alpha0", 0.01, "--g0", 1]),
        ("VII", ["--gamma", 3, "--g0", 1]),
        ("VIII", ["--g0", 1.5]),
    ]:
        port = tmp_path / f"{program}.json"
        assert run(["solve", "--input", csv, "--program", program, *extra,
                    "--output", port]) == 0
        report = tmp_path / f"{program}_verify.json"
        assert run(["verify", "--input", csv, "--portfolio", port,
                    "--samples", 20000, "--output", report]) == 0
        assert json.loads(report.read_text())["passed"] is True

    surface = tmp_path / "surface.csv"
    assert run(["surface", "--input", csv, "--g0", "0.5:0.5:1.5",
                "--alpha-grid", "0:0.002:0.02", "--output", surface]) == 0
    assert len(surface.read_text().strip().splitlines()) == 1 + 11 * 3

    bounds = tmp_path / "bounds.json"
    assert run(["bounds", "--input", csv, "--portfolio", tmp_path / "VII.json",
                "--output", bounds]) == 0
    doc = json.loads(bounds.read_text())
    assert doc["slack"] >= -1e-10 and doc["psi"] is not None

    sweep = tmp_path / "sweep.csv"
    assert run(["shrink-sweep", "--input", csv, "--mode", "angle",
                "--grid", "0:0.05:0.3", "--output", sweep]) == 0
    lines = sweep.read_text().strip().splitlines()
    cos_risky = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(y >= x - 1e-12 for x, y in zip(cos_risky, cos_risky[1:]))

    qoqc = tmp_path / "qoqc.json"
    assert run(["qoqc", "--input", csv, "--gamma", 3, "--g0", 1, "--n0", 3,
                "--output", qoqc]) == 0
    report = tmp_path / "qoqc_verify.json"
    assert run(["verify", "--input", csv, "--portfolio", qoqc,
                "--output", report]) == 0
    assert json.loads(report.read_text())["passed"] is True
