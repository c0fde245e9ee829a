"""
Command-line front-end.

Reads a CSV returns panel (header row of asset names, one row per period,
decimal simple returns), runs any program of the table, and emits
plot-ready JSON/CSV artifacts. All output floats carry 17 significant
digits, so identical configuration and input produce byte-identical files.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure. Both error paths print one machine-parseable line to stderr:
``code=NAME message``.

``--output`` is rewritten in place and cut to the new length, never
truncated to zero first: on ext4, a file truncated to zero and rewritten has
its freed blocks discarded, and ``auto_da_alloc`` makes ``close`` allocate
and flush the new ones at once. A request that fails before it emits leaves
the old file untouched. Writes are neither atomic nor fsynced.

An ``estimate`` keeps the UTF-8 bytes of its artifact with the covariance
it was written from, one entry for the process: a later ``estimate`` that
``mvgear.moments``' memo serves the same covariance writes those bytes, and
formats and encodes nothing. The entry goes with that covariance, so a
changed or another file, or a new load, formats afresh.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import stat
import sys
import weakref
from dataclasses import replace
from itertools import zip_longest

import numpy as np

from . import diversity, geometry, oracle, robust, serialize, solvers
from .errors import InvalidPsi, MissingParameter, MvgearError
from .moments import _square, estimate_moments, load_returns_csv
from .robust import ShrinkageSpec, ShrinkMode
from .solvers import Program

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 100_000
# Most points a grid, or the two grids of a surface together, may have.
MAX_GRID_POINTS = 1_000_000

# The programs ``solve`` and ``shrink-sweep`` run: every closed form. QOQC
# runs as the ``qoqc`` subcommand.
PROGRAM_CHOICES = [program.value for program in solvers.PROGRAMS
                   if program is not Program.QOQC]

# The parameters of those programs, in table order: each is a flag of both.
_PARAMETERS = tuple(dict.fromkeys(
    name for program, entry in solvers.PROGRAMS.items() if program is not Program.QOQC
    for name in (*entry.required, *entry.optional, *entry.one_of)))

SURFACE_HEADER = ["alpha_p", "g0", "sigma_p", "is_gmv_line", "is_risky_line"]
SWEEP_HEADER = [
    "k",
    "kappa_tilde",
    "cos_phi_risky",
    "cos_phi_optimal",
    "bound_kantorovich",
    "weights_json",
]


class CliError(Exception):
    """Configuration-level error; maps to exit code 2."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class VerificationFailed(MvgearError):
    """A ``verify`` report with a failed check; exit 3 once it is written."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value such as -1e-3, -.5, -inf or -1e-3:1e-3:1e-2 is a value, not
        # a flag; subparsers are built from this class and share the rule.
        self._negative_number_matcher = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise CliError("BadArguments", message)


def parse_grid(text: str) -> np.ndarray:
    """``start:step:stop`` inclusive of endpoints within half a step; one
    value ``x`` is the grid ``x:0:x``."""
    parts = text.split(":")
    if len(parts) == 1:
        parts = [parts[0], "0", parts[0]]
    try:
        if len(parts) != 3:
            raise ValueError("expected start:step:stop")
        start, step, stop = (float(p) for p in parts)
    except ValueError as exc:
        raise CliError("BadGrid", f"cannot parse grid {text!r}: {exc}") from exc
    if not all(map(math.isfinite, (start, step, stop))):
        raise CliError("BadGrid", f"grid {text!r} has non-finite endpoints")
    if step == 0.0:
        if start == stop:
            return np.array([start])
        raise CliError("BadGrid", f"grid {text!r} has zero step")
    span = (stop - start) / step
    if span < -0.5:
        raise CliError("BadGrid", f"grid {text!r} runs away from its stop value")
    reach = span + 0.5 + 1e-9
    if reach >= MAX_GRID_POINTS:
        raise CliError("BadGrid", f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return start + step * np.arange(int(math.floor(reach)) + 1)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="mvgear", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="returns CSV path")
        p.add_argument("--output", default=None, help="artifact path (default stdout)")

    def program_flags(p, required):
        """--program, and the flag of each parameter a program it names takes."""
        p.add_argument("--program", required=required, choices=PROGRAM_CHOICES)
        for name in _PARAMETERS:
            p.add_argument(f"--{name}", type=float)

    p = sub.add_parser("estimate", help="sample moments and spectral diagnostics")
    common(p)

    p = sub.add_parser("solve", help="run one closed-form program")
    common(p)
    program_flags(p, required=True)
    p.add_argument("--shrink-mode", dest="mode", choices=[m.value for m in ShrinkMode])
    p.add_argument("--k", type=float, help="angle-targeted shrink parameter")
    p.add_argument("--q", type=float, help="plain convex shrink weight")

    p = sub.add_parser("frontier", help="minimum-variance frontier at one gearing")
    common(p)
    p.add_argument("--g0", type=float, default=1.0)
    p.add_argument("--alpha-grid", required=True, help="start:step:stop")

    p = sub.add_parser("surface", help="(alpha_p, g0, sigma_p) Pareto surface")
    common(p)
    p.add_argument("--g0", required=True, help="start:step:stop")
    p.add_argument("--alpha-grid", required=True, help="start:step:stop")

    p = sub.add_parser("bounds", help="angle bound report for a weight vector")
    common(p)
    p.add_argument("--portfolio", help="portfolio JSON produced by solve/qoqc")
    p.add_argument("--theta", help="comma-separated weights")
    p.add_argument("--psi", type=float, default=None)

    p = sub.add_parser("shrink-sweep", help="portfolio path along a shrink grid")
    common(p)
    p.add_argument("--mode", default="angle", choices=[m.value for m in ShrinkMode])
    p.add_argument("--grid", required=True, help="start:step:stop of k (or q)")
    program_flags(p, required=False)

    p = sub.add_parser("qoqc", help="diversity-constrained program")
    common(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--g0", type=float, required=True)
    p.add_argument("--n0", type=float, required=True)
    p.set_defaults(program=Program.QOQC.value, mode=None)

    p = sub.add_parser("verify", help="certify and audit a solved portfolio")
    common(p)
    p.add_argument("--portfolio", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED)
    p.add_argument("--samples", type=_int_at_least(1), default=DEFAULT_SAMPLES)

    return parser


def _program_params(args) -> dict:
    """The flags ``--program`` takes, refused unless its table entry is met and
    no other program parameter is given."""
    entry = None if args.program is None else solvers.PROGRAMS[Program(args.program)]
    takes = () if entry is None else (*entry.required, *entry.optional, *entry.one_of)
    for name in _PARAMETERS:
        if name not in takes and getattr(args, name, None) is not None:
            raise CliError("BadArguments", f"--{name} needs --program" if entry is None
                           else f"program {args.program} takes no --{name}")
    if entry is None:
        return {}
    try:
        if sum(getattr(args, name) is not None for name in entry.one_of) > 1:
            raise MissingParameter(entry.one_of_text())
        return entry.arguments(vars(args))
    except MissingParameter as exc:
        raise CliError("MissingParameter", str(exc)) from exc


def _moments(args):
    panel = load_returns_csv(args.input)
    alpha, cov = estimate_moments(panel)
    return panel, alpha, cov


def _load_portfolio(args, panel):
    """The ``--portfolio`` file, refused if it names other assets than the panel."""
    port = serialize.load_portfolio_json(args.portfolio)
    if port.assets is not None and port.assets != panel.assets:
        column, mine, theirs = next(
            (j, a, b) for j, (a, b) in enumerate(zip_longest(port.assets, panel.assets), 1)
            if a != b)
        raise CliError("AssetMismatch", f"portfolio {args.portfolio} records {mine!r} "
                                        f"for column {column}, the panel has {theirs!r}")
    return port


def _shrink_spec(args) -> ShrinkageSpec | None:
    """The shrink --shrink-mode names and its --k (angle) or --q (others)."""
    mode = None if args.mode is None else ShrinkMode(args.mode)
    name = None if mode is None else "k" if mode is ShrinkMode.ANGLE_TARGETED else "q"
    for other in ("k", "q"):
        if other != name and getattr(args, other, None) is not None:
            raise CliError("BadArguments", f"--{other} needs --shrink-mode" if mode is None
                           else f"{mode.value} shrink takes --{name}, not --{other}")
    if mode is None:
        return None
    if getattr(args, name) is None:
        raise CliError("MissingParameter", f"{mode.value} shrink requires --{name}")
    return ShrinkageSpec(mode=mode, k=getattr(args, name))


# The bytes of the last ``estimate`` artifact, keyed by the covariance it was
# written from: they hold no reference to the covariance, so they die with it
# once ``mvgear.moments``' load memo lets its panel go.
_estimates: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _cmd_estimate(args) -> bytes:
    """The moments' artifact, or the bytes kept with their covariance: one
    ``CovMatrix`` belongs to one panel and its alpha (``estimate_moments``)."""
    panel, alpha, cov = _moments(args)
    data = _estimates.get(cov)
    if data is None:
        doc = {
            "assets": list(panel.assets),
            "alpha": alpha.entries,
            "covariance": cov.entries,
            "eigenvalues": cov.eigenvalues,
            "condition_number": cov.condition_number,
        }
        data = (serialize.dumps(doc) + "\n").encode("utf-8")
        _estimates.clear()
        _estimates[cov] = data
    return data


def _cmd_solve(args) -> str:
    """``solve``, and ``qoqc``, whose parser sets its program."""
    params, spec = _program_params(args), _shrink_spec(args)
    panel, alpha, cov = _moments(args)
    port = robust.solve_robust(args.program, alpha, cov, spec, **params)
    port = replace(port, assets=panel.assets)
    return serialize.dumps(serialize.portfolio_to_dict(port)) + "\n"


def _cmd_frontier(args) -> str:
    _, alpha, cov = _moments(args)
    grid = parse_grid(args.alpha_grid)
    if not math.isfinite(args.g0):
        raise CliError("BadGrid", f"gearing {args.g0!r} is not finite")
    surface = solvers.pareto_surface(alpha, cov, grid, [args.g0])
    return serialize.csv_lines(SURFACE_HEADER, surface)


def _cmd_surface(args) -> str:
    _, alpha, cov = _moments(args)
    alphas, gearings = parse_grid(args.alpha_grid), parse_grid(args.g0)
    if alphas.size * gearings.size > MAX_GRID_POINTS:
        raise CliError("BadGrid", f"surface of {alphas.size} x {gearings.size} points "
                                  f"has more than {MAX_GRID_POINTS} points")
    surface = solvers.pareto_surface(alpha, cov, alphas, gearings)
    return serialize.csv_lines(SURFACE_HEADER, surface)


def _cmd_bounds(args) -> str:
    panel, alpha, cov = _moments(args)
    if (args.portfolio is None) == (args.theta is None):
        raise CliError("MissingParameter",
                       "bounds takes exactly one of --portfolio / --theta")
    if args.portfolio is not None:
        theta = _load_portfolio(args, panel).weights
    else:
        try:
            theta = np.array([float(x) for x in args.theta.split(",")])
        except ValueError as exc:
            raise CliError("BadArguments", f"cannot parse --theta {args.theta!r}") from exc
        if not np.isfinite(theta).all():
            raise CliError("BadArguments", f"--theta {args.theta!r} has a non-finite entry")
    report = geometry.verify_bound(alpha, cov, theta, psi=args.psi)
    return serialize.dumps(report.to_dict()) + "\n"


def _cmd_shrink_sweep(args) -> str:
    mode = ShrinkMode(args.mode)
    grid = parse_grid(args.grid)
    params = _program_params(args)
    _, alpha, cov = _moments(args)
    path = robust.shrink_sweep(alpha, cov, mode, grid, args.program, **params)
    cells = zip(path.k.tolist(), path.kappa_tilde.tolist(), path.cos_phi_risky.tolist(),
                path.cos_phi_optimal.tolist(), path.bound_kantorovich.tolist())
    return serialize.csv_lines(SWEEP_HEADER, [[*row, '"' + serialize.dumps(weights) + '"']
                                              for row, weights in zip(cells, path.weights)])


def _agrees(value: float, target: float, rtol: float, scale: float = 1.0) -> bool:
    """``verify``'s one comparison of a value with its target:
    |value - target| <= rtol max(1, |target|, ``scale``). A non-finite value
    or target fails."""
    return math.isfinite(target) and abs(value - target) <= rtol * max(1.0, abs(target), scale)


def _constraint(value, target, detail, rtol=1e-10, scale=lambda f: 1.0):
    """The audit that ``value(w, figures)`` agrees with ``target(*params)``
    on the scale ``scale(figures)`` too; ``detail`` is formatted with the two."""
    def test(alpha, cov, w, figures, args, *params):
        got, want = value(w, figures), target(*params)
        return _agrees(got, want, rtol, scale(figures)), detail.format(got, want)
    return test


def _bound_audit(alpha, cov, w, figures, args):
    report = geometry.verify_bound(alpha, cov, w)
    return (report.slack >= -1e-10,
            f"cos_phi = {float(report.cos_phi)!r}, slack = {float(report.slack)!r}")


def _sharpe_audit(alpha, cov, w, figures, args):
    best = oracle.dominance_sample(
        oracle.sharpe_objective(alpha, cov.entries),
        oracle.project_to_gearing(figures["gearing"] or 1.0),
        dim=w.size, count=args.samples, seed=args.seed,
    )
    mine = figures["alpha_p"] / figures["sigma_p"]
    return best <= mine + 1e-9, f"best sampled {best!r} vs solved {mine!r}"


# Each audit a table entry may name, in the order ``verify`` runs them: its
# check, the params it reads, and its test of (alpha, Sigma, weights, their
# figures, flags, *params). Every record also meets the angle bound, "bound",
# unless no psi is admissible for it. 1'theta rounds on the scale of
# |theta|_1, the leverage, so the two gearing audits judge it on that scale.
AUDITS = {
    "gearing": ("gearing_constraint", ("g0",), _constraint(
        lambda w, f: f["gearing"], float, "1'theta = {0!r} vs g0 = {1!r}",
        scale=lambda f: f["leverage"])),
    "full_investment": ("gearing_constraint", (), _constraint(
        lambda w, f: f["gearing"], lambda: 1.0, "1'theta = {0!r} vs 1",
        scale=lambda f: f["leverage"])),
    "return": ("return_constraint", ("alpha0",), _constraint(
        lambda w, f: f["alpha_p"], float, "alpha'theta = {0!r} vs alpha0 = {1!r}")),
    "risk": ("risk_constraint", ("sigma0",), _constraint(
        lambda w, f: f["sigma_p"], float, "sigma_p = {0!r} vs sigma0 = {1!r}")),
    "diversity": ("diversity_constraint", ("n0",), _constraint(
        lambda w, f: _square(w), lambda n0: 1.0 / n0, "theta'theta = {0!r} vs 1/n0 = {1!r}",
        diversity.SPHERE_TOL)),
    "bound": ("bound_slack", (), _bound_audit),
    "sharpe": ("sharpe_dominance", (), _sharpe_audit),
}
# A shrunk solution meets these on the shrunk covariance only: its risk is
# audited there, once it is certified, and its Sharpe ratio is not.
UNSHRUNK_AUDITS = {"risk", "sharpe"}


def _verify_checks(args, alpha, cov, port) -> list[dict]:
    checks = []

    def check(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    w, figures = port.weights, solvers._measure(port.weights, alpha, cov)
    for name, check_name, rtol in (("gearing", "gearing_field", 1e-12),
                                   ("leverage", "leverage_field", 1e-12),
                                   ("alpha_p", "alpha_p", 1e-10),
                                   ("sigma_p", "sigma_p", 1e-10)):
        stored = getattr(port, name)
        if stored is not None:
            check(check_name, _agrees(figures[name], stored, rtol),
                  f"stored {stored!r} vs recomputed {figures[name]!r}")

    entry = solvers.PROGRAMS[port.program]
    skipped = UNSHRUNK_AUDITS  # a shrink record that cannot be read skips them
    try:
        if ShrinkageSpec.from_params(port.params) is None:
            skipped = set()
        # a shrunk record is certified, and its risk read, on w T + (1 - w) Sigma
        passed, detail, sigma_p = robust.certificate(w, alpha.entries, cov, port.program,
                                                     port.params)
        check("stationarity", passed, detail)
        if skipped:
            figures, skipped = {**figures, "sigma_p": sigma_p}, {"sharpe"}
    except MvgearError as exc:
        check("stationarity", False, f"{type(exc).__name__}: {exc}")

    # An audit is skipped when it reads a param the entry may go without and
    # the record lacks it; any other param the record lacks fails the audit.
    for name, (check_name, reads, test) in AUDITS.items():
        if (name != "bound" and name not in entry.audits) or name in skipped:
            continue
        missing = [param for param in reads if port.params.get(param) is None]
        if any(param in entry.optional + entry.one_of for param in missing):
            continue
        try:
            if missing:
                raise entry.missing(missing[0])
            values = [float(port.params[param]) for param in reads]
            check(check_name, *test(alpha.entries, cov, w, figures, args, *values))
        except InvalidPsi:
            # x'y = alpha'theta <= 0: no psi < pi/2 is admissible, and the
            # bound, which claims nothing there, is skipped
            continue
        except (MvgearError, ZeroDivisionError) as exc:
            check(check_name, False, f"{type(exc).__name__}: {exc}")
    return checks


def _cmd_verify(args) -> str:
    """The audit report; a failed check writes it, then raises VerificationFailed."""
    panel, alpha, cov = _moments(args)
    port = _load_portfolio(args, panel)
    if port.dim != cov.dim:
        raise CliError("BadArguments",
                       f"portfolio has {port.dim} weights, panel has {cov.dim} assets")
    checks = _verify_checks(args, alpha, cov, port)
    passed = all(c["passed"] for c in checks)
    doc = {"passed": passed, "seed": args.seed, "samples": args.samples,
           "checks": checks}
    text = serialize.dumps(doc) + "\n"
    if not passed:
        _emit(args, text)
        raise VerificationFailed("one or more checks failed")
    return text


def _emit(args, artifact: str | bytes) -> None:
    """Write the artifact to stdout, text through its text layer and UTF-8
    bytes as given to its byte stream (decoded where it has none), or over
    ``--output`` in place: opened without ``O_TRUNC`` and cut to the new
    length only when it was a longer regular file (a pipe or a device cannot
    be cut)."""
    if args.output is None:
        if isinstance(artifact, str) or not hasattr(sys.stdout, "buffer"):
            sys.stdout.write(artifact if isinstance(artifact, str) else artifact.decode())
        else:
            sys.stdout.flush()
            sys.stdout.buffer.write(artifact)
        return
    data = artifact.encode("utf-8") if isinstance(artifact, str) else artifact
    fd = os.open(args.output, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        old = os.fstat(fd)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# Each subcommand's handler.
COMMANDS = {
    "estimate": _cmd_estimate,
    "solve": _cmd_solve,
    "frontier": _cmd_frontier,
    "surface": _cmd_surface,
    "bounds": _cmd_bounds,
    "shrink-sweep": _cmd_shrink_sweep,
    "qoqc": _cmd_solve,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _emit(args, COMMANDS[args.command](args))
    except CliError as exc:
        print(f"code={exc.code} {exc}", file=sys.stderr)
        return 2
    except MvgearError as exc:
        print(f"code={type(exc).__name__} {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"code=IoError {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
