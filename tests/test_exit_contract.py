"""The exit contract of every subcommand: whatever the panel and the flags,
a request exits 0, 2 or 3 with no traceback, and a request that fails ends
its stderr with its one ``code=`` line.

The requests run through ``cli.main`` in this process, with RuntimeWarning
as an error. The shrink paths, ``solve --shrink-mode/--k/--q`` and
``shrink-sweep --mode/--grid [--program ...]``, run on panels of 2 to 6
assets and 3 to 8 periods at magnitudes 1e-140, 1 and 1e140. Every other
request (``estimate``, an unshrunk ``solve``, ``frontier``, ``surface``,
``qoqc``, ``bounds`` and ``verify``) runs on panels of 1 to 6 assets and 1
to 8 periods at magnitudes 1e-160 to 1e150, some with a repeated column;
``bounds --portfolio`` and ``verify`` read a record that ``solve`` or
``qoqc`` wrote, with its weights scaled by 1e300 or 1e-300, or one field
replaced, or both. A ``verify`` report that passes its sigma_p row must not
be wildly off the true sigma_p of the record's weights. ``estimate`` and the
diagonal shrink paths also run on panels with an all-zero or a constant
column, under header variants: quoted names, a byte-order mark, spaces
around names, and blank names. Each ``estimate`` runs twice, and the
second, which writes the text the first kept, must exit and write as the
first did. Hypothesis runs
derandomized with a bounded example count, so every run tests the same
requests. Other warnings are printed to stderr, as the command line prints
them; a floored panel's SpdRepairWarning, printed before the ``code=``
line, is not checked here.
"""

import contextlib
import csv
import io
import itertools
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mvgear import cli, solvers
from mvgear.robust import ShrinkMode

from conftest import forget_loads, true_sigma_p

PLAIN_EXAMPLES = 2000
CONTRACT = settings(max_examples=250, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])

# Flag values from the refused, through the edges of each range, to the huge.
VALUES = ["-1", "0", "1e-300", "0.001", "0.5", "1", "10", "1e300", "nan", "inf"]
WEIGHTS = ["-0.5", "0", "1e-3", "0.3", "0.5", "0.999", "1", "1.5", "nan", "inf"]
GRIDS = ["0", "1", "0.5", "0:0.25:1", "0:0.1:0.9", "1e-3:1e-3:5e-3", "-0.1:0.1:0.2",
         "0:0.5:1.5", "0.9:0.05:1"]


def csv_text(rows: np.ndarray) -> str:
    return (",".join(f"a{j}" for j in range(rows.shape[1])) + "\n"
            + "\n".join(",".join(map(repr, row)) for row in rows.tolist()) + "\n")


def panel_rows(draw, n, t, magnitudes):
    """A t x n panel at one of ``magnitudes``."""
    scale = draw(st.sampled_from(magnitudes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.standard_normal((t, n)) * 0.02 + 0.01) * scale


@st.composite
def panels(draw):
    """The text of a returns CSV: n in [2, 6], T in [3, 8], at one magnitude."""
    n, t = draw(st.integers(2, 6)), draw(st.integers(3, 8))
    return csv_text(panel_rows(draw, n, t, [1e-140, 1.0, 1e140]))


def program_flags(draw, program, values=VALUES):
    """--program and a value for each parameter it requires, and maybe for
    one it may take."""
    entry = solvers.PROGRAMS[solvers.Program(program)]
    takes = entry.optional + entry.one_of
    names = [*entry.required, *(draw(st.lists(st.sampled_from(takes), max_size=1))
                                if takes else [])]
    return ["--program", program,
            *itertools.chain.from_iterable((f"--{name}", draw(st.sampled_from(values)))
                                           for name in names)]


@st.composite
def requests(draw):
    """The argv of a shrunk solve or a shrink sweep, less --input and --output."""
    modes = [mode.value for mode in ShrinkMode]
    if draw(st.booleans()):
        argv = ["solve", *program_flags(draw, draw(st.sampled_from(cli.PROGRAM_CHOICES)))]
        mode = draw(st.sampled_from([None, *modes]))
        if mode is not None:
            argv += ["--shrink-mode", mode]
        for flag in draw(st.lists(st.sampled_from(["--k", "--q"]), max_size=1)):
            argv += [flag, draw(st.sampled_from(WEIGHTS))]
        return argv
    argv = ["shrink-sweep", "--mode", draw(st.sampled_from(modes)),
            "--grid", draw(st.sampled_from(GRIDS))]
    program = draw(st.sampled_from([None, *cli.PROGRAM_CHOICES]))
    return argv + ([] if program is None else program_flags(draw, program))


def _to_stderr(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


# At the full shrink to the identity, VI's minimum-variance return g0 B/A is
# g0 mean(alpha), past the float range here: its inefficient-branch test is
# nan, and the request is refused with NonFiniteData and no RuntimeWarning.
HUGE_PANEL = ("a0,a1\n1.2514604421867867e+138,7.357902734173963e+137\n"
              "2.2808453008865645e+138,1.2098002343060795e+138\n"
              "-7.133874632222186e+136,1.7231901098189693e+138\n")
VI_ARGS = ["--program", "VI", "--alpha0", "-1", "--g0", "1e300"]


def run(tmp: Path, argv) -> int:
    """``argv`` on the panel ``tmp/r.csv``, written to ``tmp/out``, held to the
    contract; returns its exit code."""
    return outcome(tmp, argv)[0]


def outcome(tmp: Path, argv) -> tuple[int, list[str]]:
    """:func:`run`'s request: its exit code and its ``code=`` lines."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.showwarning = _to_stderr
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([*argv, "--input", str(tmp / "r.csv"), "--output", str(tmp / "out")])
    lines = stderr.getvalue().splitlines()
    assert code in (0, 2, 3), argv
    assert not any("Traceback" in line for line in lines), argv
    codes = [line for line in lines if line.startswith("code=")]
    assert codes == ([] if code == 0 else lines[-1:]), argv
    if code == 0:
        assert_parses(argv[0], (tmp / "out").read_text())
    return code, codes


def run_estimate_twice(tmp: Path) -> None:
    """``estimate`` twice on one panel: the second, served the text the first
    kept with its covariance, exits with the first's code and ``code=`` line
    and writes the first's bytes."""
    written = []
    for _ in range(2):
        (tmp / "out").unlink(missing_ok=True)
        written.append((*outcome(tmp, ["estimate"]),
                        (tmp / "out").read_bytes() if (tmp / "out").exists() else None))
    assert written[0] == written[1]


def _refuse(constant):
    raise AssertionError(f"{constant} in a JSON artifact")


def assert_parses(command: str, text: str) -> None:
    """A JSON artifact parses with no NaN or Infinity; a CSV one has a header
    and rows of its width."""
    if command in ("frontier", "surface", "shrink-sweep"):
        rows = list(csv.reader(io.StringIO(text)))
        assert rows and all(len(row) == len(rows[0]) for row in rows), command
    else:
        json.loads(text, parse_constant=_refuse)


@CONTRACT
@given(panels(), requests())
@example(HUGE_PANEL, ["shrink-sweep", "--mode", "simple", "--grid", "1", *VI_ARGS])
@example(HUGE_PANEL, ["solve", *VI_ARGS, "--shrink-mode", "simple", "--q", "1"])
def test_a_shrink_request_exits_0_2_or_3_with_one_code_line(monkeypatch, panel, argv):
    forget_loads(monkeypatch)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "r.csv").write_text(panel)
        run(Path(tmp), argv)


# The header variants a degenerate panel is written with: names as written,
# quoted, after a byte-order mark, with spaces around them, one blank and
# all blank.
HEADERS = ["plain", "quoted", "bom", "spaced", "one blank", "all blank"]


def header(n: int, variant: str) -> str:
    names = [f"a{j}" for j in range(n)]
    if variant == "one blank":
        names[-1] = ""
    elif variant == "all blank":
        names = [""] * n
    elif variant == "quoted":
        names = [f'"{name}"' for name in names]
    elif variant == "spaced":
        names = [f" {name} " for name in names]
    return ("\ufeff" if variant == "bom" else "") + ",".join(names)


@st.composite
def degenerate_cases(draw):
    """(panel text, argv): an ``estimate``, a diagonal shrunk ``solve`` or a
    diagonal ``shrink-sweep``, less --input and --output, on a panel of n in
    [2, 6] assets and T in [2, 8] periods at one magnitude, one of whose
    columns is all zero or constant, under one of the ``HEADERS``: D has a
    zero or floored entry there, where R's frame and the kept kappa~ meet it."""
    n, t = draw(st.integers(2, 6)), draw(st.integers(2, 8))
    rows = panel_rows(draw, n, t, [1e-140, 1.0, 1e140])
    column = draw(st.integers(0, n - 1))
    rows[:, column] = draw(st.sampled_from([0.0, rows[0, column], 0.01, 1.0]))
    text = header(n, draw(st.sampled_from(HEADERS))) + "\n" + "\n".join(
        ",".join(map(repr, row)) for row in rows.tolist()) + "\n"
    kind = draw(st.sampled_from(["estimate", "solve", "shrink-sweep"]))
    if kind == "estimate":
        return text, ["estimate"]
    program = program_flags(draw, draw(st.sampled_from(cli.PROGRAM_CHOICES)))
    if kind == "solve":
        return text, ["solve", *program, "--shrink-mode", "diagonal",
                      "--q", draw(st.sampled_from(WEIGHTS))]
    return text, ["shrink-sweep", "--mode", "diagonal", "--grid", draw(st.sampled_from(GRIDS)),
                  *(program if draw(st.booleans()) else [])]


@CONTRACT
@given(degenerate_cases())
def test_a_degenerate_column_or_header_exits_0_2_or_3_with_one_code_line(monkeypatch, case):
    panel, argv = case
    forget_loads(monkeypatch)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "r.csv").write_text(panel, encoding="utf-8")
        if argv == ["estimate"]:
            run_estimate_twice(Path(tmp))
        else:
            run(Path(tmp), argv)


MAGNITUDES = [1e-160, 1e-20, 1.0, 1e100, 1e150]
# The parameters of a record's solve: mostly in range, so that most solve.
RECORD_VALUES = ["-0.5", "0.001", "0.5", "1", "2", "10"]
THETAS = ["-1", "0", "1e-300", "0.3", "1", "1e200", "-1e300"]
PSIS = ["-0.1", "0", "0.5", "1.5707963", "1.57079632679", "1.5707963267948963",
        "1.5707963267948966", "nan"]
LINE_GRIDS = ["0.01", "0:0.01:0.05", "-1:0.5:1", "0:0.25:1", "1e-300:1e-300:3e-300", "1e300"]
# The record fields and params an edit may replace, and the values it puts there.
FIELDS = ["program", "gearing", "leverage", "alpha_p", "sigma_p", "g0", "gamma", "alpha0",
          "sigma0", "n0", "lambda1", "lambda2"]
FIELD_VALUES = [0, -1, 0.5, 1e300, 1e-300, None, "VII"]


def maybe(draw, flag, values) -> list:
    """Nothing, or ``flag`` and one of ``values``."""
    return [flag, draw(st.sampled_from(values))] if draw(st.booleans()) else []


def qoqc_flags(draw, values, n=None) -> list:
    """--gamma, --g0 and --n0 from ``values``; given the panel's ``n``, maybe
    g0 = -1, 1 or 2 and n0 = n/g0^2, where g0 e is the only feasible point."""
    flags = [*itertools.chain.from_iterable((f"--{name}", draw(st.sampled_from(values)))
                                            for name in ("gamma", "g0", "n0"))]
    if n is not None and draw(st.booleans()):
        g0 = draw(st.sampled_from([-1, 1, 2]))
        flags[3:] = [str(g0), repr(n / g0**2)]
    return flags


def plain_request(draw, n) -> tuple:
    """(record, argv): any request but a shrunk one on n assets, less --input
    and --output. ``record`` is None, or what ``bounds --portfolio`` or
    ``verify`` reads: the argv of the solve or qoqc that writes it, the factor
    its weights are scaled by (or None) and the field replaced in it and the
    value put there (or None)."""
    kind = draw(st.sampled_from(["estimate", "solve", "frontier", "surface", "qoqc",
                                 "bounds", "verify"]))
    record = None
    if kind == "estimate":
        argv = ["estimate"]
    elif kind == "solve":
        argv = ["solve", *program_flags(draw, draw(st.sampled_from(cli.PROGRAM_CHOICES)))]
    elif kind == "frontier":
        argv = ["frontier", "--alpha-grid", draw(st.sampled_from(LINE_GRIDS)),
                *maybe(draw, "--g0", VALUES)]
    elif kind == "surface":
        argv = ["surface", "--g0", draw(st.sampled_from(LINE_GRIDS)),
                "--alpha-grid", draw(st.sampled_from(LINE_GRIDS))]
    elif kind == "qoqc":
        argv = ["qoqc", *qoqc_flags(draw, VALUES, n)]
    elif kind == "bounds" and draw(st.booleans()):
        theta = draw(st.lists(st.sampled_from(THETAS), min_size=n, max_size=n))
        argv = ["bounds", "--theta", ",".join(theta), *maybe(draw, "--psi", PSIS)]
    else:
        program = draw(st.sampled_from([*cli.PROGRAM_CHOICES, "QOQC"]))
        writer = (["qoqc", *qoqc_flags(draw, RECORD_VALUES)] if program == "QOQC" else
                  ["solve", *program_flags(draw, program, RECORD_VALUES)])
        field = draw(st.sampled_from([None, *FIELDS]))
        record = (writer, draw(st.sampled_from([None, 1e300, 1e-300])), field,
                  None if field is None else draw(st.sampled_from(FIELD_VALUES)))
        argv = (["bounds", *maybe(draw, "--psi", PSIS)] if kind == "bounds"
                else ["verify", "--samples", draw(st.sampled_from(["1", "64"]))])
    return record, argv


@st.composite
def plain_cases(draw):
    """(panel text, record, argv): a :func:`plain_request` on a panel of n in
    [1, 6] assets and T in [1, 8] periods at one magnitude, its last column
    maybe a copy of its first."""
    n, t = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rows = panel_rows(draw, n, t, MAGNITUDES)
    if n > 1 and draw(st.booleans()):
        rows[:, -1] = rows[:, 0]
    return (csv_text(rows), *plain_request(draw, n))


# Powers of two near the plain magnitudes, which keep a flat panel flat.
FLAT_EXPONENTS = [-530, -66, 0, 332, 498]


@st.composite
def flat_cases(draw):
    """(panel text, record, argv): a :func:`plain_request` on a panel of n in
    [2, 6] assets and T in [n + 1, 8] periods of multiples of 2^-7 times a
    power of two, each column of which has the same mean, exactly, and whose
    covariance is (almost always) nonsingular."""
    n = draw(st.integers(2, 6))
    t = draw(st.integers(n + 1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(-8, 9, size=(t, n)).astype(float)
    rows[-1] = t / 8 - rows[:-1].sum(axis=0)
    rows = np.ldexp(rows / 128, draw(st.sampled_from(FLAT_EXPONENTS)))
    return (csv_text(rows), *plain_request(draw, n))


def edited(record: dict, scale, field, value) -> dict:
    """``record`` with its weights, gearing and leverage times ``scale``, then
    ``field``, or the param of that name, set to ``value``."""
    if scale is not None:
        record["weights"] = [w * scale for w in record["weights"]]
        record["gearing"] *= scale
        record["leverage"] *= scale
    if field is not None:
        (record if field in record else record["params"])[field] = value
    return record


# A 3-asset panel at 1e148: theta = 1e200 (1, 1, 1), or GMV's weights times
# 1e300, has L'theta past the float range, though alpha'theta > 0.
EDGE_PANEL = ("a,b,c\n1e148,2e148,1.5e148\n3e148,-1e148,2e148\n-2e148,4e148,1e148\n"
              "1.5e148,1e148,-0.5e148\n2e148,3e148,2.5e148\n")
# The same returns at 1e-2, and at 1e3. At 1e-2, theta'Sigma theta of VII's
# weights times 1e300 overflows, and OpenBLAS's dot sums its terms to -inf.
DAILY_PANEL = ("a,b,c\n0.01,0.02,0.015\n0.03,-0.01,0.02\n-0.02,0.04,0.01\n"
               "0.015,0.01,-0.005\n0.02,0.03,0.025\n")
# theta'theta of QOQC's weights times 1e300 overflows in verify's diversity audit.
TWO_PERIODS = ("a0,a1\n0.012514604421867866,0.0073579027341739624\n"
               "0.022808453008865644,0.012098002343060795\n")
# On the boundary n0 = n/g0^2, gamma Sigma theta at gamma = 1e300 overflows.
HUGE_PAIR = csv_text(np.random.default_rng(0).standard_normal((6, 2)) * 1e98)
KILO_PANEL = ("a,b,c\n1000,2000,1500\n3000,-1000,2000\n-2000,4000,1000\n"
              "1500,1000,-500\n2000,3000,2500\n")


@settings(CONTRACT, max_examples=PLAIN_EXAMPLES)
@given(plain_cases())
@example((EDGE_PANEL, None, ["bounds", "--theta", "1e200,1e200,1e200"]))
@example((EDGE_PANEL, (["solve", "--program", "GMV"], 1e300, None, None),
          ["verify", "--samples", "1"]))
@example((DAILY_PANEL, None, ["bounds", "--theta", "0.3,0.3,0.4", "--psi", "1.57079632679"]))
@example((DAILY_PANEL, (["solve", "--program", "VII", "--gamma", "10", "--g0", "1"], 1e300,
                        "sigma_p", 0), ["verify", "--samples", "1"]))
@example((KILO_PANEL, None, ["qoqc", "--gamma", "1e308", "--g0", "1", "--n0", "2"]))
@example((HUGE_PAIR, None, ["qoqc", "--gamma", "1e300", "--g0", "-1", "--n0", "2"]))
@example((TWO_PERIODS, (["qoqc", "--gamma", "0.001", "--g0", "-0.5", "--n0", "1"], 1e300,
                        None, None), ["verify", "--samples", "1"]))
def test_every_request_exits_0_2_or_3_with_one_code_line(monkeypatch, case):
    check_plain_case(monkeypatch, case)


@CONTRACT
@given(flat_cases())
def test_a_flat_alpha_exits_0_2_or_3_with_one_code_line(monkeypatch, case):
    check_plain_case(monkeypatch, case)


def check_plain_case(monkeypatch, case):
    """``case``'s request, and the record it reads, held to the contract; a
    passed sigma_p row of a ``verify`` report is not wildly off."""
    panel, record, argv = case
    forget_loads(monkeypatch)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "r.csv").write_text(panel)
        if record is not None:
            writer, *edits = record
            if run(tmp, writer) != 0:
                return
            data = edited(json.loads((tmp / "out").read_text()), *edits)
            (tmp / "out").unlink()
            (tmp / "record.json").write_text(json.dumps(data))
            argv = [*argv, "--portfolio", str(tmp / "record.json")]
        if argv == ["estimate"]:
            run_estimate_twice(tmp)
            return
        code = run(tmp, argv)
        if argv[0] != "verify" or code == 2 or not (tmp / "out").exists():
            return
        # the sigma_p row may pass a figure off by rounding, never by a factor
        for check in json.loads((tmp / "out").read_text())["checks"]:
            if check["name"] == "sigma_p" and check["passed"]:
                sigma = true_sigma_p(tmp / "r.csv", data["weights"])
                assert abs(data["sigma_p"] - sigma) <= max(1, sigma) / 2, check
