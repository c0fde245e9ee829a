"""
Command-line front-end.

Reads a CSV returns panel (header row of asset names, one row per period,
decimal simple returns), runs any of the closed-form programs, and emits
plot-ready JSON/CSV artifacts. All output floats carry 17 significant
digits, so identical configuration and input produce byte-identical files.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure. Both error paths print one machine-parseable line to stderr:
``code=NAME message``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from itertools import zip_longest

import numpy as np

from . import diversity, geometry, oracle, robust, serialize, solvers
from .errors import MissingParameter, MvgearError
from .moments import estimate_moments, load_returns_csv
from .robust import ShrinkageSpec, ShrinkMode
from .solvers import Program

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 100_000
# Most points a grid, or the two grids of a surface together, may have.
MAX_GRID_POINTS = 1_000_000

# The programs ``solve`` and ``shrink-sweep`` run: every closed form.
PROGRAM_CHOICES = [program.value for program in solvers.PROGRAMS]

# What a QOQC record carries: its problem's parameters, then the multipliers
# its stationarity audit reads.
QOQC_PARAMS = ("gamma", "g0", "n0", "lambda1", "lambda2")

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("BadArguments", message)


def parse_grid(text: str) -> np.ndarray:
    """``start:step:stop`` inclusive of endpoints within half a step."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="mvgear", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="returns CSV path")
        p.add_argument("--output", default=None, help="artifact path (default stdout)")
        p.add_argument("--format", default=None, choices=["json", "csv"])

    p = sub.add_parser("estimate", help="sample moments and spectral diagnostics")
    common(p)

    p = sub.add_parser("solve", help="run one closed-form program")
    common(p)
    p.add_argument("--program", required=True, choices=PROGRAM_CHOICES)
    p.add_argument("--sigma0", type=float)
    p.add_argument("--alpha0", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--g0", type=float)
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
    p.add_argument("--program", choices=PROGRAM_CHOICES)
    p.add_argument("--sigma0", type=float)
    p.add_argument("--alpha0", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--g0", type=float)

    p = sub.add_parser("qoqc", help="diversity-constrained program")
    common(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--g0", type=float, required=True)
    p.add_argument("--n0", type=float, required=True)

    p = sub.add_parser("verify", help="re-derive and audit a solved portfolio")
    common(p)
    p.add_argument("--portfolio", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    return parser


def _program_params(args, program: Program) -> dict:
    """The flags ``program`` takes, refused unless its table entry is met."""
    entry = solvers.PROGRAMS[program]
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
    if args.mode is None:
        return None
    mode = ShrinkMode(args.mode)
    if mode is ShrinkMode.ANGLE_TARGETED:
        if args.k is None:
            raise CliError("MissingParameter", "angle-targeted shrink requires --k")
        return ShrinkageSpec.angle_targeted(args.k)
    if args.q is None:
        raise CliError("MissingParameter", f"{mode.value} shrink requires --q")
    return ShrinkageSpec(mode=mode, k=args.q)


def _cmd_estimate(args) -> str:
    panel, alpha, cov = _moments(args)
    doc = {
        "assets": list(panel.assets),
        "alpha": [float(a) for a in alpha.entries],
        "covariance": [[float(v) for v in row] for row in cov.entries],
        "eigenvalues": [float(r) for r in cov.eigenvalues],
        "condition_number": cov.condition_number,
    }
    return serialize.dumps(doc) + "\n"


def _cmd_solve(args) -> str:
    panel, alpha, cov = _moments(args)
    program = Program(args.program)
    params = _program_params(args, program)
    spec = _shrink_spec(args)
    if spec is None:
        port = solvers.solve(program, alpha, cov, **params)
    else:
        port = robust.solve_robust(program, alpha, cov, spec, **params)
    port = replace(port, assets=panel.assets)
    return serialize.dumps(serialize.portfolio_to_dict(port)) + "\n"


def _surface_rows(points):
    for pt in points:
        yield [pt.alpha_p, pt.g0, pt.sigma_p, pt.is_gmv_line, pt.is_risky_line]


def _cmd_frontier(args) -> str:
    _, alpha, cov = _moments(args)
    grid = parse_grid(args.alpha_grid)
    points = solvers.pareto_surface(alpha, cov, grid, [args.g0])
    return serialize.csv_lines(SURFACE_HEADER, _surface_rows(points))


def _cmd_surface(args) -> str:
    _, alpha, cov = _moments(args)
    alphas, gearings = parse_grid(args.alpha_grid), parse_grid(args.g0)
    if alphas.size * gearings.size > MAX_GRID_POINTS:
        raise CliError("BadGrid", f"surface of {alphas.size} x {gearings.size} points "
                                  f"has more than {MAX_GRID_POINTS} points")
    points = solvers.pareto_surface(alpha, cov, alphas, gearings)
    return serialize.csv_lines(SURFACE_HEADER, _surface_rows(points))


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
            raise CliError("BadArguments",
                           f"cannot parse --theta {args.theta!r}") from exc
    report = geometry.verify_bound(alpha, cov, theta, psi=args.psi)
    return serialize.dumps(report.to_dict()) + "\n"


def _cmd_shrink_sweep(args) -> str:
    _, alpha, cov = _moments(args)
    mode = ShrinkMode(args.mode)
    grid = parse_grid(args.grid)
    program = None if args.program is None else Program(args.program)
    params = {} if program is None else _program_params(args, program)
    rows = []
    for value in grid:
        spec = ShrinkageSpec(mode=mode, k=float(value))
        shrunk = robust.shrink_covariance(cov, alpha, spec)
        risky = solvers.solve(Program.RISKY, alpha, shrunk)
        if program is None:
            optimal = risky
        else:
            optimal = solvers.solve(program, alpha, shrunk, **params)
        weights_json = '"' + serialize.dumps(list(optimal.weights)) + '"'
        rows.append([
            float(value),
            shrunk.condition_number,
            geometry.alpha_angle(alpha, risky.weights),
            geometry.alpha_angle(alpha, optimal.weights),
            geometry.kantorovich_bound(shrunk.condition_number),
            weights_json,
        ])
    return serialize.csv_lines(SWEEP_HEADER, rows)


def _cmd_qoqc(args) -> str:
    panel, alpha, cov = _moments(args)
    problem = diversity.QoqcProblem(
        alpha=alpha.entries, cov=cov, gamma=args.gamma, g0=args.g0, n0=args.n0
    )
    solution = diversity.solve_qoqc(problem)
    port = replace(diversity.qoqc_portfolio(problem, solution), assets=panel.assets)
    return serialize.dumps(serialize.portfolio_to_dict(port)) + "\n"


def _verify_checks(args, panel, alpha, cov, port) -> list[dict]:
    checks = []

    def check(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    w = port.weights
    gearing = float(w.sum())
    check("gearing_field", abs(gearing - port.gearing) <= 1e-12 * max(1.0, abs(gearing)),
          f"stored {port.gearing!r} vs recomputed {gearing!r}")
    lev = float(np.abs(w).sum())
    check("leverage_field", abs(lev - port.leverage) <= 1e-12 * max(1.0, lev),
          f"stored {port.leverage!r} vs recomputed {lev!r}")

    if port.alpha_p is not None:
        ret = float(alpha.entries @ w)
        check("alpha_p", abs(ret - port.alpha_p) <= 1e-10 * max(1.0, abs(ret)),
              f"stored {port.alpha_p!r} vs recomputed {ret!r}")
    if port.sigma_p is not None:
        risk = float(np.sqrt(max(cov.quad(w), 0.0)))
        check("sigma_p", abs(risk - port.sigma_p) <= 1e-10 * max(1.0, risk),
              f"stored {port.sigma_p!r} vs recomputed {risk!r}")

    def need(*names):
        """The named params as floats; MissingParameter names the first one absent."""
        for name in names:
            if port.params.get(name) is None:
                raise MissingParameter(f"program {port.program.value} requires --{name}")
        return [float(port.params[name]) for name in names]

    def audit(name, names, test):
        """check(name, *test(*need(*names))), failed if a named param is absent."""
        try:
            check(name, *test(*need(*names)))
        except (MvgearError, ZeroDivisionError) as exc:
            check(name, False, f"{type(exc).__name__}: {exc}")

    qoqc = port.program is Program.QOQC
    entry = None if qoqc else solvers.PROGRAMS[port.program]
    shrunk = True  # a shrink record that cannot be read skips the unshrunk audits
    try:
        spec = ShrinkageSpec.from_params(port.params)
        shrunk = spec is not None
        if qoqc:
            gamma, g0, n0, _, _ = need(*QOQC_PARAMS)
            problem = diversity.QoqcProblem(alpha=alpha.entries, cov=cov, gamma=gamma,
                                            g0=g0, n0=n0)
            resolved = diversity.solve_qoqc(problem).weights
        elif shrunk:
            resolved = robust.solve_robust(port.program, alpha, cov, spec,
                                           **port.params).weights
        else:
            resolved = solvers.solve(port.program, alpha, cov, **port.params).weights
        err = float(np.abs(resolved - w).max())
        check("weights_resolve", err <= 1e-8, f"max weight deviation {err:g}")
    except MvgearError as exc:
        check("weights_resolve", False, f"{type(exc).__name__}: {exc}")

    # QOQC binds its gearing; its sphere and stationarity audits follow.
    binds = ("gearing",) if qoqc else entry.binds
    if "gearing" in binds and (qoqc or port.params.get("g0") is not None):
        audit("gearing_constraint", ["g0"], lambda g0: (
            abs(gearing - g0) <= 1e-10 * max(1.0, abs(g0)),
            f"1'theta = {gearing!r} vs g0 = {g0!r}"))
    if "full_investment" in binds:
        check("gearing_constraint", abs(gearing - 1.0) <= 1e-10,
              f"1'theta = {gearing!r} vs 1")
    if "return" in binds and port.params.get("alpha0") is not None:
        ret = float(alpha.entries @ w)
        target = float(port.params["alpha0"])
        check("return_constraint", abs(ret - target) <= 1e-10 * max(1.0, abs(target)),
              f"alpha'theta = {ret!r} vs alpha0 = {target!r}")
    # A shrunk solution meets its risk bound on the shrunk covariance only.
    if "risk" in binds and port.params.get("sigma0") is not None and not shrunk:
        target = float(port.params["sigma0"])
        risk = float(np.sqrt(max(cov.quad(w), 0.0)))
        check("risk_constraint", abs(risk - target) <= 1e-10 * max(1.0, target),
              f"sigma_p = {risk!r} vs sigma0 = {target!r}")
    if qoqc:
        def sphere(n0):
            value, target = float(w @ w), 1.0 / n0
            return (abs(value - target) <= 1e-8,
                    f"theta'theta = {value!r} vs 1/n0 = {target!r}")

        def stationarity(gamma, lam1, lam2):
            grad = (-alpha.entries + gamma * (cov.entries @ w) - 2.0 * lam1 * w
                    - lam2 * np.ones(w.size))
            res = float(np.abs(grad).max())
            return res <= 1e-8, f"residual {res:g}"

        audit("diversity_constraint", ["n0"], sphere)
        audit("stationarity", ["gamma", "lambda1", "lambda2"], stationarity)

    try:
        report = geometry.verify_bound(alpha, cov, w)
        check("bound_slack", report.slack >= -1e-10,
              f"cos_phi = {float(report.cos_phi)!r}, slack = {float(report.slack)!r}")
    except MvgearError as exc:
        check("bound_slack", False, f"{type(exc).__name__}: {exc}")

    if not qoqc and entry.sharpe and not shrunk:
        best = oracle.dominance_sample(
            oracle.sharpe_objective(alpha.entries, cov.entries),
            oracle.project_to_gearing(gearing if gearing != 0.0 else 1.0),
            dim=w.size, count=args.samples, seed=args.seed,
        )
        mine = float(alpha.entries @ w) / float(np.sqrt(cov.quad(w)))
        check("sharpe_dominance", best <= mine + 1e-9,
              f"best sampled {best!r} vs solved {mine!r}")
    return checks


def _cmd_verify(args) -> tuple[str, bool]:
    panel, alpha, cov = _moments(args)
    port = _load_portfolio(args, panel)
    if port.dim != cov.dim:
        raise CliError("BadArguments",
                       f"portfolio has {port.dim} weights, panel has {cov.dim} assets")
    checks = _verify_checks(args, panel, alpha, cov, port)
    passed = all(c["passed"] for c in checks)
    doc = {"passed": passed, "seed": args.seed, "samples": args.samples,
           "checks": checks}
    return serialize.dumps(doc) + "\n", passed


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


_JSON_COMMANDS = {"estimate", "solve", "bounds", "qoqc", "verify"}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        fmt = args.format
        natural = "json" if args.command in _JSON_COMMANDS else "csv"
        if fmt is not None and fmt != natural:
            raise CliError("BadArguments",
                           f"command {args.command} emits {natural} artifacts")
        if args.command == "estimate":
            text = _cmd_estimate(args)
        elif args.command == "solve":
            text = _cmd_solve(args)
        elif args.command == "frontier":
            text = _cmd_frontier(args)
        elif args.command == "surface":
            text = _cmd_surface(args)
        elif args.command == "bounds":
            text = _cmd_bounds(args)
        elif args.command == "shrink-sweep":
            text = _cmd_shrink_sweep(args)
        elif args.command == "qoqc":
            text = _cmd_qoqc(args)
        elif args.command == "verify":
            text, ok = _cmd_verify(args)
            _emit(args, text)
            if not ok:
                print("code=VerificationFailed one or more checks failed",
                      file=sys.stderr)
                return 3
            return 0
        else:  # pragma: no cover - argparse enforces the choices
            raise CliError("BadArguments", f"unknown command {args.command}")
        _emit(args, text)
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
