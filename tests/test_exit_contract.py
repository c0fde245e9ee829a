"""The exit contract of the shrink paths, ``solve --shrink-mode/--k/--q`` and
``shrink-sweep --mode/--grid [--program ...]``: whatever the panel and the
flags, a request exits 0, 2 or 3 with no traceback, and a request that fails
ends its stderr with its one ``code=`` line.

The requests run through ``cli.main`` in this process, with RuntimeWarning
as an error, on panels of 2 to 6 assets and 3 to 8 periods at magnitudes
1e-140, 1 and 1e140. Hypothesis runs derandomized with a bounded example
count, so every run tests the same requests. Other warnings are printed to
stderr, as the command line prints them; a floored panel's SpdRepairWarning,
printed before the ``code=`` line, is not checked here.
"""

import contextlib
import io
import itertools
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mvgear import cli, solvers
from mvgear.robust import ShrinkMode

from conftest import forget_loads

CONTRACT = settings(max_examples=250, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])

# Flag values from the refused, through the edges of each range, to the huge.
VALUES = ["-1", "0", "1e-300", "0.001", "0.5", "1", "10", "1e300", "nan", "inf"]
WEIGHTS = ["-0.5", "0", "1e-3", "0.3", "0.5", "0.999", "1", "1.5", "nan", "inf"]
GRIDS = ["0", "1", "0.5", "0:0.25:1", "0:0.1:0.9", "1e-3:1e-3:5e-3", "-0.1:0.1:0.2",
         "0:0.5:1.5", "0.9:0.05:1"]


@st.composite
def panels(draw):
    """The text of a returns CSV: n in [2, 6], T in [3, 8], at one magnitude."""
    n, t = draw(st.integers(2, 6)), draw(st.integers(3, 8))
    scale = draw(st.sampled_from([1e-140, 1.0, 1e140]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = (rng.standard_normal((t, n)) * 0.02 + 0.01) * scale
    return (",".join(f"a{j}" for j in range(n)) + "\n"
            + "\n".join(",".join(map(repr, row)) for row in rows.tolist()) + "\n")


def program_flags(draw, program):
    """--program and a value for each parameter it requires, and maybe for
    one it may take."""
    entry = solvers.PROGRAMS[solvers.Program(program)]
    takes = entry.optional + entry.one_of
    names = [*entry.required, *(draw(st.lists(st.sampled_from(takes), max_size=1))
                                if takes else [])]
    return ["--program", program,
            *itertools.chain.from_iterable((f"--{name}", draw(st.sampled_from(VALUES)))
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


@CONTRACT
@given(panels(), requests())
@example(HUGE_PANEL, ["shrink-sweep", "--mode", "simple", "--grid", "1", *VI_ARGS])
@example(HUGE_PANEL, ["solve", *VI_ARGS, "--shrink-mode", "simple", "--q", "1"])
def test_a_shrink_request_exits_0_2_or_3_with_one_code_line(monkeypatch, panel, argv):
    forget_loads(monkeypatch)
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "r.csv"
        csv.write_text(panel)
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.showwarning = _to_stderr
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([*argv, "--input", str(csv), "--output", str(Path(tmp) / "out")])
    lines = stderr.getvalue().splitlines()
    assert code in (0, 2, 3), argv
    assert not any("Traceback" in line for line in lines), argv
    codes = [line for line in lines if line.startswith("code=")]
    assert codes == ([] if code == 0 else lines[-1:]), argv
