"""
Mean-variance portfolio programs: the closed forms and the table of programs.

All solutions are parameterized by the four frontier scalars

    A = 1'Sigma^-1 1,  B = alpha'Sigma^-1 1,  C = alpha'Sigma^-1 alpha,
    D = AC - B^2 > 0,

through two building blocks: the global minimum variance portfolio
theta_0 = Sigma^-1 1 / A and the fully-invested optimal risky portfolio
theta_alpha = Sigma^-1 alpha / B. Programs without a gearing constraint
(I-IV) and the geared return/Sharpe maximizations (V, VIII) are scalar
multiples of theta_alpha; the geared risk minimization (VI) and geared
mean-variance program (VII) mix theta_0 and theta_alpha:

    VI:  theta = (g0 - w) theta_0 + w theta_alpha,  w = (B/D)(alpha0 A - g0 B)
    VII: theta = (g0 - m) theta_0 + m theta_alpha,  m = B / gamma

The minimum-variance set at fixed gearing is the parabola

    sigma_p^2 = (alpha_p^2 A - 2 g0 alpha_p B + g0^2 C) / D,

minimized at alpha_p = g0 B / A with value g0^2 / A; sweeping (alpha_p, g0)
produces the Pareto surface.

Linear solves go through the spectral decomposition cached on CovMatrix
rather than explicit inversion; each solve computes Sigma^-1 1 and
Sigma^-1 alpha at most once. :data:`PROGRAMS` lists every closed form, and
the diversity-constrained program QOQC (:mod:`mvgear.diversity`), with its
solver, its parameters and the audits its solution must pass; :func:`solve`
runs a program from it.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateAlpha,
    DimensionError,
    InvalidPortfolio,
    MissingParameter,
    NonFiniteData,
    NonPositiveParameter,
    ZeroB,
    ZeroSum,
)
from .diversity import QoqcProblem, solve_qoqc
from .moments import (AlphaVector, CovMatrix, _require_finite, _require_positive,
                      as_vector)

# B within this absolute tolerance of zero leaves the fully-invested risky
# portfolio undefined.
ZERO_B_TOL = 1e-14
# D at or below this absolute tolerance means all assets share a mean.
DEGENERATE_D_TOL = 1e-14
# Relative tolerance for flagging surface points on the GMV / risky lines.
LINE_FLAG_RTOL = 1e-9


class InefficientBranchWarning(UserWarning):
    """Return target below the minimum-variance return at this gearing."""


class Program(str, Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"
    VIII = "VIII"
    GMV = "GMV"
    RISKY = "RISKY"
    QOQC = "QOQC"


@dataclass(frozen=True)
class FrontierScalars:
    """Sigma^-1 1, Sigma^-1 alpha and the forms A, B, C, D behind every closed form."""

    A: float
    B: float
    C: float
    D: float
    si_ones: np.ndarray
    si_alpha: np.ndarray


@dataclass(frozen=True)
class Portfolio:
    """Weight vector tagged with the program and parameters that produced it."""

    weights: np.ndarray
    program: Program
    params: dict
    gearing: float
    leverage: float
    alpha_p: float | None = None
    sigma_p: float | None = None
    assets: tuple[str, ...] | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DimensionError(f"weights must be 1-D, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise NonFiniteData("weights contain non-finite entries")
        if abs(self.gearing - float(w.sum())) > 1e-12 * max(1.0, abs(self.gearing)):
            raise InvalidPortfolio("gearing field does not equal the weight sum")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size


def _portfolio(
    weights: np.ndarray,
    program: Program,
    params: dict,
    alpha=None,
    cov: CovMatrix | None = None,
) -> Portfolio:
    w = np.asarray(weights, dtype=float)
    alpha_p = float(as_vector(alpha) @ w) if alpha is not None else None
    sigma_p = float(np.sqrt(max(cov.quad(w), 0.0))) if cov is not None else None
    return Portfolio(
        weights=w,
        program=program,
        params=dict(params),
        gearing=float(w.sum()),
        leverage=float(np.abs(w).sum()),
        alpha_p=alpha_p,
        sigma_p=sigma_p,
    )


def _frontier(alpha, cov: CovMatrix) -> FrontierScalars:
    """Frontier object of (alpha, Sigma), D unchecked: two spectral solves."""
    a = as_vector(alpha)
    if a.size != cov.dim:
        raise DimensionError(f"alpha length {a.size} != covariance dim {cov.dim}")
    ones = np.ones(cov.dim)
    si_ones = cov.solve(ones)
    si_alpha = cov.solve(a)
    big_a = float(ones @ si_ones)
    big_b = float(a @ si_ones)
    big_c = float(a @ si_alpha)
    return FrontierScalars(A=big_a, B=big_b, C=big_c, D=big_a * big_c - big_b**2,
                           si_ones=si_ones, si_alpha=si_alpha)


def frontier_scalars(alpha, cov: CovMatrix) -> FrontierScalars:
    """Frontier object of (alpha, Sigma); raises DegenerateAlpha unless D > 0."""
    scal = _frontier(alpha, cov)
    if scal.D <= DEGENERATE_D_TOL:
        raise DegenerateAlpha(
            f"D = AC - B^2 = {scal.D:g} is not positive; "
            "all assets share the same expected return"
        )
    return scal


def gmv_portfolio(cov: CovMatrix) -> Portfolio:
    """Global minimum variance portfolio Sigma^-1 1 / (1'Sigma^-1 1)."""
    raw = cov.solve(np.ones(cov.dim))
    w = raw / raw.sum()
    return _portfolio(w, Program.GMV, {}, cov=cov)


def optimal_risky_portfolio(alpha, cov: CovMatrix) -> Portfolio:
    """Fully-invested Sharpe-maximizing portfolio Sigma^-1 alpha / B."""
    a = as_vector(alpha)
    raw = cov.solve(a)
    b = float(raw.sum())
    if abs(b) <= ZERO_B_TOL:
        raise ZeroB(f"1'Sigma^-1 alpha = {b:g}; risky portfolio undefined")
    w = raw / b
    return _portfolio(w, Program.RISKY, {}, alpha=a, cov=cov)


def solve_I(alpha, cov: CovMatrix, sigma0: float) -> Portfolio:
    """Maximum return at risk bound sigma0: theta = (sigma0/sqrt(C)) Sigma^-1 alpha."""
    sigma0 = _require_positive("sigma0", sigma0)
    a = as_vector(alpha)
    scal = frontier_scalars(a, cov)
    w = (sigma0 / np.sqrt(scal.C)) * scal.si_alpha
    return _portfolio(w, Program.I, {"sigma0": sigma0}, alpha=a, cov=cov)


def solve_II(alpha, cov: CovMatrix, alpha0: float) -> Portfolio:
    """Minimum variance at return target alpha0: theta = (alpha0/C) Sigma^-1 alpha."""
    alpha0 = _require_positive("alpha0", alpha0)
    a = as_vector(alpha)
    scal = frontier_scalars(a, cov)
    w = (alpha0 / scal.C) * scal.si_alpha
    return _portfolio(w, Program.II, {"alpha0": alpha0}, alpha=a, cov=cov)


def solve_III(alpha, cov: CovMatrix, gamma: float) -> Portfolio:
    """Unconstrained mean-variance trade-off: theta = Sigma^-1 alpha / gamma."""
    gamma = _require_positive("gamma", gamma)
    a = as_vector(alpha)
    w = cov.solve(a) / gamma
    return _portfolio(w, Program.III, {"gamma": gamma}, alpha=a, cov=cov)


def _geared_sharpe(program: Program, alpha, cov: CovMatrix, g0: float) -> Portfolio:
    """g0 theta_alpha, the Sharpe maximum at gearing g0 (programs IV and VIII)."""
    g0 = _require_finite("g0", g0)
    if g0 == 0.0:
        raise NonPositiveParameter("g0 must be nonzero for the Sharpe program")
    a = as_vector(alpha)
    w = g0 * optimal_risky_portfolio(a, cov).weights
    return _portfolio(w, program, {"g0": g0}, alpha=a, cov=cov)


def solve_IV(alpha, cov: CovMatrix, g0: float = 1.0) -> Portfolio:
    """Sharpe maximization scaled to gearing g0 (g0 theta_alpha)."""
    return _geared_sharpe(Program.IV, alpha, cov, g0)


def solve_V(
    alpha, cov: CovMatrix, sigma0: float | None = None, g0: float | None = None
) -> Portfolio:
    """Geared return maximization: theta = g0 theta_alpha.

    Exactly one of ``sigma0`` and ``g0`` must be supplied; fixing the risk
    fixes the gearing through g0 = sigma0 B / sqrt(C), and vice versa.
    """
    if (sigma0 is None) == (g0 is None):
        raise NonPositiveParameter("supply exactly one of sigma0 and g0")
    a = as_vector(alpha)
    scal = frontier_scalars(a, cov)
    if abs(scal.B) <= ZERO_B_TOL:
        raise ZeroB(f"B = {scal.B:g}; geared risky portfolio undefined")
    if sigma0 is not None:
        sigma0 = _require_positive("sigma0", sigma0)
        g0 = sigma0 * scal.B / np.sqrt(scal.C)
        params = {"sigma0": sigma0, "g0": float(g0)}
    else:
        g0 = _require_positive("g0", g0)
        params = {"g0": float(g0)}
    w = (g0 / scal.B) * scal.si_alpha
    return _portfolio(w, Program.V, params, alpha=a, cov=cov)


def solve_VI(alpha, cov: CovMatrix, alpha0: float, g0: float) -> Portfolio:
    """Geared minimum variance at return target alpha0.

    Solves min (1/2)theta'Sigma theta s.t. alpha'theta = alpha0, 1'theta = g0
    through the multiplier expansion

        theta = ((alpha0 A - g0 B)/D) Sigma^-1 alpha
              + ((g0 C - alpha0 B)/D) Sigma^-1 1.

    The return constraint is treated as binding; when alpha0 falls below the
    minimum-variance return g0 B / A, the solution sits on the inefficient
    branch and an :class:`InefficientBranchWarning` is emitted.
    """
    alpha0 = _require_finite("alpha0", alpha0)
    g0 = _require_finite("g0", g0)
    a = as_vector(alpha)
    scal = frontier_scalars(a, cov)
    lam1 = (alpha0 * scal.A - g0 * scal.B) / scal.D
    lam2 = (g0 * scal.C - alpha0 * scal.B) / scal.D
    w = lam1 * scal.si_alpha + lam2 * scal.si_ones
    inflection = g0 * scal.B / scal.A
    if alpha0 < inflection - 1e-12 * max(1.0, abs(inflection)):
        warnings.warn(
            f"return target {alpha0:g} below the minimum-variance return "
            f"{inflection:g} at gearing {g0:g}; solution is on the "
            "inefficient branch",
            InefficientBranchWarning,
            stacklevel=2,
        )
    return _portfolio(
        w, Program.VI, {"alpha0": alpha0, "g0": g0}, alpha=a, cov=cov
    )


def solve_VII(alpha, cov: CovMatrix, gamma: float, g0: float) -> Portfolio:
    """Geared mean-variance program.

    Solves max alpha'theta - (gamma/2) theta'Sigma theta s.t. 1'theta = g0:

        theta = (g0 - B/gamma) Sigma^-1 1 / A + Sigma^-1 alpha / gamma.
    """
    gamma = _require_positive("gamma", gamma)
    g0 = _require_finite("g0", g0)
    a = as_vector(alpha)
    scal = _frontier(a, cov)
    w = (g0 - scal.B / gamma) * scal.si_ones / scal.A + scal.si_alpha / gamma
    return _portfolio(w, Program.VII, {"gamma": gamma, "g0": g0}, alpha=a, cov=cov)


def solve_VIII(alpha, cov: CovMatrix, g0: float) -> Portfolio:
    """Geared Sharpe maximization: theta = g0 Sigma^-1 alpha / (1'Sigma^-1 alpha)."""
    return _geared_sharpe(Program.VIII, alpha, cov, g0)


def solve_QOQC(alpha, cov: CovMatrix, gamma: float, g0: float, n0: float) -> Portfolio:
    """Diversity-constrained mean-variance program (:mod:`mvgear.diversity`).

    Solves max alpha'theta - (gamma/2) theta'Sigma theta s.t. 1'theta = g0,
    theta'theta = 1/n0; the record carries the multipliers lambda1 and
    lambda2 that certify stationarity.
    """
    problem = QoqcProblem(alpha=alpha, cov=cov, gamma=gamma, g0=g0, n0=n0)
    solution = solve_qoqc(problem)
    params = {"gamma": problem.gamma, "g0": problem.g0, "n0": problem.n0,
              "lambda1": solution.lambda1, "lambda2": solution.lambda2}
    return _portfolio(solution.weights, Program.QOQC, params, alpha=problem.alpha,
                      cov=cov)


@dataclass(frozen=True)
class ProgramSpec:
    """One program: its solver, its parameters, what its solution must pass.

    ``audits`` names, in the order ``verify`` runs them, the checks its
    solution passes:
    ``"gearing"`` (1'theta = g0), ``"full_investment"`` (1'theta = 1),
    ``"return"`` (alpha'theta = alpha0), ``"risk"`` (sigma_p = sigma0),
    ``"diversity"`` (theta'theta = 1/n0), ``"stationarity"`` (the recorded
    multipliers make the Lagrangian's gradient vanish) and ``"sharpe"`` (no
    portfolio of its gearing beats its Sharpe ratio).
    """

    program: Program
    solver: Callable[..., Portfolio]
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    one_of: tuple[str, ...] = ()
    audits: tuple[str, ...] = ()

    def arguments(self, values: Mapping) -> dict:
        """The solver's parameters among ``values`` (None means unset); raises
        MissingParameter unless every required name and one of ``one_of`` is
        set. The first of ``one_of`` wins: a solved V records both."""
        given = {name: value for name, value in values.items() if value is not None}
        for name in self.required:
            if name not in given:
                raise self.missing(name)
        chosen = [name for name in self.one_of if name in given][:1]
        if self.one_of and not chosen:
            raise MissingParameter(self.one_of_text())
        optional = [name for name in self.optional if name in given]
        return {name: given[name] for name in [*self.required, *optional, *chosen]}

    def missing(self, name: str) -> MissingParameter:
        return MissingParameter(f"program {self.program.value} requires --{name}")

    def one_of_text(self) -> str:
        flags = " / ".join(f"--{name}" for name in self.one_of)
        return f"program {self.program.value} takes exactly one of {flags}"


# In Program order, which is the order the CLI lists them in.
PROGRAMS: dict[Program, ProgramSpec] = {spec.program: spec for spec in (
    ProgramSpec(Program.I, solve_I, required=("sigma0",), audits=("risk",)),
    ProgramSpec(Program.II, solve_II, required=("alpha0",), audits=("return",)),
    ProgramSpec(Program.III, solve_III, required=("gamma",)),
    ProgramSpec(Program.IV, solve_IV, optional=("g0",), audits=("gearing", "sharpe")),
    ProgramSpec(Program.V, solve_V, one_of=("sigma0", "g0"),
                audits=("gearing", "risk", "sharpe")),
    ProgramSpec(Program.VI, solve_VI, required=("alpha0", "g0"),
                audits=("gearing", "return")),
    ProgramSpec(Program.VII, solve_VII, required=("gamma", "g0"), audits=("gearing",)),
    ProgramSpec(Program.VIII, solve_VIII, required=("g0",), audits=("gearing", "sharpe")),
    ProgramSpec(Program.GMV, lambda alpha, cov: gmv_portfolio(cov),
                audits=("full_investment",)),
    ProgramSpec(Program.RISKY, optimal_risky_portfolio,
                audits=("full_investment", "sharpe")),
    ProgramSpec(Program.QOQC, solve_QOQC, required=("gamma", "g0", "n0"),
                audits=("gearing", "diversity", "stationarity")),
)}


def solve(program: Program, alpha, cov: CovMatrix, /, **params) -> Portfolio:
    """Solve ``program`` from its PROGRAMS entry, passing the solver what
    :meth:`ProgramSpec.arguments` picks from ``params``."""
    entry = PROGRAMS[Program(program)]
    return entry.solver(alpha, cov, **entry.arguments(params))


def frontier_variance(scalars: FrontierScalars, alpha_p, g0):
    """Minimum portfolio variance at return alpha_p and gearing g0.

    ``alpha_p`` and ``g0`` may be arrays that broadcast together. Squares
    are taken with Python's float power (the C library's ``pow``), which
    differs from numpy's ``x * x`` in the last bit for about one double in a
    thousand, so that an array of points gives the bits each point gives
    on its own. A square that overflows is inf, as in numpy.
    """
    if scalars.D <= DEGENERATE_D_TOL:
        raise DegenerateAlpha(f"D = {scalars.D:g} is not positive")
    return (
        _pow2(alpha_p) * scalars.A - 2.0 * g0 * alpha_p * scalars.B
        + _pow2(g0) * scalars.C
    ) / scalars.D


def _square(v: float) -> float:
    try:
        return v**2
    except OverflowError:  # Python's float power raises where pow() overflows
        return np.inf


def _pow2(x):
    if np.ndim(x) == 0:
        return _square(x)
    x = np.asarray(x, dtype=float)
    return np.array([_square(v) for v in x.ravel().tolist()]).reshape(x.shape)


@dataclass(frozen=True)
class ParetoSurface:
    """Grids alpha_p (m,), g0 (k,); finite sigma_p and line flags, all (m, k)."""

    alpha_p: np.ndarray
    g0: np.ndarray
    sigma_p: np.ndarray
    on_gmv: np.ndarray
    on_risky: np.ndarray


def _on_line(alphas: np.ndarray, line: np.ndarray) -> np.ndarray:
    """alpha_p within LINE_FLAG_RTOL of the line's return, per (alpha_p, g0)."""
    tolerance = LINE_FLAG_RTOL * np.maximum(1.0, np.abs(line))
    return np.abs(alphas[:, None] - line) <= tolerance


def pareto_surface(alpha, cov: CovMatrix, alpha_p_grid, g0_grid) -> ParetoSurface:
    """Evaluate the minimum-variance surface over an (alpha_p, g0) grid.

    Points on the GMV line (alpha_p = g0 B / A) and the geared-risky line
    (alpha_p = g0 C / B) are flagged. Raises NonFiniteData naming the first
    point, in alpha_p-major order, whose variance is not finite.
    """
    a = as_vector(alpha)
    alphas = np.atleast_1d(np.asarray(alpha_p_grid, dtype=float))
    gearings = np.atleast_1d(np.asarray(g0_grid, dtype=float))
    if alphas.size == 0 or gearings.size == 0:
        raise DimensionError("grids must be non-empty")
    if not (np.all(np.isfinite(alphas)) and np.all(np.isfinite(gearings))):
        raise NonFiniteData("grids must be finite")
    scal = frontier_scalars(a, cov)
    with np.errstate(over="ignore", invalid="ignore"):
        var = frontier_variance(scal, alphas[:, None], gearings)
    if not np.isfinite(var).all():
        i, j = np.argwhere(~np.isfinite(var))[0]
        raise NonFiniteData(f"variance at alpha_p = {float(alphas[i])!r}, "
                            f"g0 = {float(gearings[j])!r} is {float(var[i, j])!r}")
    on_gmv = _on_line(alphas, gearings * scal.B / scal.A)
    if abs(scal.B) > ZERO_B_TOL:
        on_risky = _on_line(alphas, gearings * scal.C / scal.B)
    else:
        on_risky = np.zeros(var.shape, dtype=bool)
    return ParetoSurface(alphas, gearings, np.sqrt(np.maximum(var, 0.0)), on_gmv, on_risky)


def implied_returns(target: Portfolio, cov: CovMatrix) -> AlphaVector:
    """Reverse-optimize the return views implied by a fully-invested portfolio.

    Any positive multiple of Sigma theta reproduces theta when pushed back
    through theta = Sigma^-1 pi / (pi'Sigma^-1 1); the result is normalized
    to sum to one.
    """
    w = as_vector(target)
    if abs(w.sum() - 1.0) > 1e-10:
        raise InvalidPortfolio(
            f"target portfolio gearing {w.sum():g} != 1; reverse optimization "
            "assumes a fully-invested target"
        )
    raw = cov.entries @ w
    total = float(raw.sum())
    if abs(total) <= 1e-14 * max(1.0, float(np.abs(raw).max(initial=0.0))):
        raise ZeroSum("Sigma theta sums to ~0; normalization undefined")
    return AlphaVector(raw / total)
