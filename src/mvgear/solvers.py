"""
Mean-variance portfolio programs: the frontier object and the table of programs.

Every closed form is theta = c_alpha Sigma^-1 alpha + c_1 Sigma^-1 1 (Merton
1972, "An analytic derivation of the efficient portfolio frontier"), with
c_alpha and c_1 taken from its parameters and the four frontier scalars

    A = 1'Sigma^-1 1,  B = alpha'Sigma^-1 1,  C = alpha'Sigma^-1 alpha,
    D = AC - B^2 > 0,

through two building blocks: the global minimum variance portfolio
theta_0 = Sigma^-1 1 / A and the fully-invested optimal risky portfolio
theta_alpha = Sigma^-1 alpha / B. What each program of :data:`PROGRAMS` solves:

    GMV    min theta'Sigma theta s.t. 1'theta = 1: theta_0
    RISKY  max Sharpe ratio s.t. 1'theta = 1: theta_alpha (B > 0)
    I      max alpha'theta s.t. sigma_p = sigma0: (sigma0 / sqrt(C)) Sigma^-1 alpha
    II     min risk s.t. alpha'theta = alpha0: (alpha0 / C) Sigma^-1 alpha
    III    max alpha'theta - (gamma/2) theta'Sigma theta: Sigma^-1 alpha / gamma
    IV     max Sharpe ratio, scaled to gearing g0 (1 if not given): g0 theta_alpha
    V      max alpha'theta at gearing g0, or at risk sigma0 (exactly one), which
           fixes g0 = sigma0 B / sqrt(C): g0 theta_alpha
    VI     min (1/2) theta'Sigma theta s.t. alpha'theta = alpha0, 1'theta = g0:
           ((alpha0 A - g0 B)/D) Sigma^-1 alpha + ((g0 C - alpha0 B)/D) Sigma^-1 1
           = (g0 - w) theta_0 + w theta_alpha, w = (B/D)(alpha0 A - g0 B); its
           return constraint binds, so an alpha0 below g0 B / A puts it on the
           inefficient branch, with an :class:`InefficientBranchWarning`
    VII    max alpha'theta - (gamma/2) theta'Sigma theta s.t. 1'theta = g0:
           (g0 - B/gamma) Sigma^-1 1 / A + Sigma^-1 alpha / gamma
           = (g0 - m) theta_0 + m theta_alpha, m = B / gamma
    VIII   max Sharpe ratio s.t. 1'theta = g0: g0 theta_alpha (g0 B > 0)
    QOQC   VII s.t. theta'theta = 1/n0 too (:mod:`mvgear.diversity`), recording
           the multipliers lambda1 and lambda2 that certify stationarity

The minimum-variance set at fixed gearing is the parabola

    sigma_p^2 = (alpha_p^2 A - 2 g0 alpha_p B + g0^2 C) / D
              = g0^2 / A + (A / D) (alpha_p - g0 B / A)^2,

minimized at alpha_p = g0 B / A with value g0^2 / A; sweeping (alpha_p, g0)
produces the Pareto surface. It is evaluated in Merton's (1972) completed
square, whose non-negative terms do not cancel near that minimum.

:class:`FrontierScalars`, the frontier object of (alpha, Sigma), forms every
such portfolio in the coordinates of the covariance's cached factor, with no
inverse: alpha adds one product with its basis, and each weight vector one
more. :data:`PROGRAMS` gives each closed form as c_alpha and the gearing
1'theta, with its parameters, the degeneracies it refuses, the stationarity
that certifies its solution and the audits its solution must pass, and QOQC
with its solver. :func:`solve` runs a program:
its weights on a frontier object (:func:`program_weights`), then its record.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateAlpha,
    DimensionError,
    InvalidPortfolio,
    MissingParameter,
    MvgearError,
    NonFiniteData,
    NonPositiveParameter,
    ToleranceNotMet,
    ZeroB,
)
from .diversity import QoqcProblem, on_boundary, solve_qoqc
from .moments import (_TINY, CovMatrix, _dots, _require_finite, _require_positive,
                      _unit_scaled, as_vector)

# B within this absolute tolerance of zero leaves the fully-invested risky
# portfolio undefined.
ZERO_B_TOL = 1e-14
# D at or below this absolute tolerance means all assets share a mean.
DEGENERATE_D_TOL = 1e-14
# Relative tolerance for flagging surface points on the GMV / risky lines.
LINE_FLAG_RTOL = 1e-9
# The normwise backward error a certified record may leave, per asset, and its
# misfit of a stated nu_alpha, per root asset (:func:`_certificate`): each
# closed form and QOQC leaves under 0.2 eps per asset up to kappa = 1e10 and a
# misfit under 1.5 eps up to kappa = 1e12; gamma off by 1% misfits 1e-2 / kappa.
CERTIFICATE_TOL_PER_ASSET = 8.0 * np.finfo(float).eps


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


@dataclass(frozen=True, eq=False)
class FrontierScalars:
    """A, B, C, D of (alpha, Sigma) and the frontier portfolios.

    A, Sigma^-1 1 and its coordinates x are the covariance's own
    (:attr:`CovMatrix.inverse_ones`). alpha is split about its mean m, so
    that r = alpha - (B/A) 1 = (alpha - m 1) - (b/A) 1, with
    b = (alpha - m 1)'Sigma^-1 1, is formed in asset coordinates; its
    coordinates y are the one product alpha adds. Then B = m A + b,
    D = A r'Sigma^-1 r and C = (B^2 + D)/A have no terms that cancel when
    the returns lie close together, as AC - B^2 does. ``alpha`` is None for
    a program that reads no returns (GMV).

    On a stack of k matrices on one frame (:meth:`CovMatrix.stack`), A, b,
    B, C and D are (k, 1) columns, one entry per matrix, and every closed
    form of :data:`PROGRAMS` runs unchanged. alpha's coordinates for all k
    come from one product, U'S^-1 (alpha - m 1), and b from them in O(kn).
    """

    alpha: np.ndarray | None
    cov: CovMatrix

    def __post_init__(self):
        if self.alpha is not None:
            a = as_vector(self.alpha)
            if a.size != self.cov.dim:
                raise DimensionError(
                    f"alpha length {a.size} != covariance dim {self.cov.dim}")
            object.__setattr__(self, "alpha", a)

    @property
    def A(self) -> float:
        return self.cov.inverse_ones[2]

    @cached_property
    def _split(self) -> tuple[float, float, np.ndarray]:
        """(m, b, y), formed on first read."""
        m = float(self.alpha.sum()) / self.alpha.size
        centred = self.alpha - m
        x, ones_inverse, A = self.cov.inverse_ones
        if ones_inverse is not None:
            b = float(centred @ ones_inverse)
            return m, b, self.cov.coordinates(centred - b / A)
        # a stack: c_j = diag(1/mu_j) U'S^-1 (alpha - m 1), b_j = c_j' diag(mu_j) x_j
        c = self.cov.coordinates(centred)
        b = _dots(c, self.cov.spectrum * x)
        return m, b, c - (b / A) * x

    @property
    def B(self) -> float:
        m, b, _ = self._split
        return m * self.A + b

    @cached_property
    def D(self) -> float:
        """D/A = r'Sigma^-1 r is the least (alpha - beta 1)'Sigma^-1 (alpha - beta 1)
        over beta, so the rounding of B/A enters it only to second order."""
        y = self._split[2]
        return self.A * _dots(y, self.cov.spectrum * y)

    @property
    def C(self) -> float:
        return (self.B * self.B + self.D) / self.A

    def excess(self, alpha_p, g0):
        """alpha_p - g0 B / A, the distance from the GMV line, as
        (alpha_p - g0 m) - g0 b / A: at g0 = 1 it does not cancel."""
        m, b, _ = self._split
        return (alpha_p - g0 * m) - g0 * (b / self.A)

    def refusals(self, refuses):
        """The tests of :meth:`check` that ``refuses`` names, in its order, as
        (fails, error): whether it fails, one bool per matrix of a stack, and
        a callable that forms its exception."""
        if DegenerateAlpha in refuses:
            yield self.D <= DEGENERATE_D_TOL, lambda: DegenerateAlpha(
                f"D = AC - B^2 = {self.D:g} is not positive; "
                "all assets share the same expected return")
        if ZeroB in refuses:
            yield abs(self.B) <= ZERO_B_TOL, lambda: ZeroB(
                f"B = 1'Sigma^-1 alpha = {self.B:g}; risky portfolio undefined")

    def check(self, refuses) -> None:
        """Raise the first of the errors ``refuses`` names that applies:
        DegenerateAlpha if D <= DEGENERATE_D_TOL, then ZeroB if |B| <= ZERO_B_TOL."""
        for fails, error in self.refusals(refuses):
            if fails:
                raise error()

    def coordinates(self, c_alpha, gearing) -> np.ndarray:
        """The coordinates (gearing/A) x + c_alpha y of :meth:`weights`, a row
        per matrix of a stack. Where gearing is finite but gearing/A is not
        (a small A), gearing and c_alpha are first scaled by 2^-e, e the
        exponent of gearing, and those coordinates by 2^e after, which is
        exact; every other row has the bits of the formula itself."""
        ratio = gearing / self.A
        scaled = not np.isfinite(ratio).all()
        if scaled:
            past = np.isfinite(gearing) & ~np.isfinite(ratio)
            e = np.where(past, np.frexp(gearing)[1], 0)
            ratio = np.ldexp(gearing, -e) / self.A
        coords = ratio * self.cov.inverse_ones[0]
        if isinstance(c_alpha, np.ndarray) or c_alpha != 0.0:
            coords += (np.ldexp(c_alpha, -e) if scaled else c_alpha) * self._split[2]
        return np.ldexp(coords, e) if scaled else coords

    def weights(self, c_alpha: float, gearing: float) -> np.ndarray:
        """c_alpha Sigma^-1 alpha + c_1 Sigma^-1 1 with 1'theta = gearing, that is
        c_1 = (gearing - c_alpha B)/A, formed as gearing theta_0 + c_alpha Sigma^-1 r
        = S^-1 U ((gearing/A) x + c_alpha y), whose terms do not cancel: one
        product with the basis. A zero c_alpha reads no alpha."""
        return self.cov.from_coordinates(self.coordinates(c_alpha, gearing))


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
        for name in ("gearing", "leverage"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidPortfolio(f"{name} must be finite, got {getattr(self, name)!r}")
        if abs(self.gearing - float(w.sum())) > 1e-12 * max(1.0, abs(self.gearing)):
            raise InvalidPortfolio("gearing field does not equal the weight sum")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size


def _measure(w, alpha, cov: CovMatrix) -> dict:
    """The gearing, leverage, alpha_p (None if ``alpha`` is) and sigma_p on
    ``cov`` of weights ``w``; one that overflows reads inf or nan, unwarned.
    A rounding-level negative theta'Sigma theta reads sigma_p 0. Where
    theta'Sigma theta leaves the float range (its terms may even cancel to
    -inf or nan) but ``w`` is finite, sigma_p is 2^e sqrt(u'Sigma u) of
    w = 2^e u, u's largest entry in [1/2, 1): inf only if sigma_p is."""
    with np.errstate(all="ignore"):
        quad, e = cov.quad(w), 0
        if not math.isfinite(quad) and np.isfinite(w).all():
            u, e = _unit_scaled(w)
            quad = cov.quad(u)
        sigma_p = math.sqrt(max(quad, 0.0)) if math.isfinite(quad) else math.inf
        return dict(gearing=float(w.sum()), leverage=float(np.abs(w).sum()),
                    alpha_p=None if alpha is None else float(as_vector(alpha) @ w),
                    sigma_p=float(np.ldexp(sigma_p, e)) if e else sigma_p)


def _certificate(w, alpha, cov: CovMatrix, entries, program: Program, params: Mapping):
    """(passed, detail, sigma_p) of ``program``'s stationarity c Sigma theta =
    nu_alpha alpha + nu_1 1 + nu_theta theta at weights ``w`` on the
    covariance of ``entries``, with c and the nu of its ``multipliers`` (None:
    fitted by least squares on [alpha, 1]), and sqrt(theta'Sigma theta) there.
    It passes on a max-norm normwise backward error (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 7) of at most
    CERTIFICATE_TOL_PER_ASSET n, where a stated nu_alpha off by d reads only
    d / kappa; on a misfit, |fit - nu_alpha| max|x| over the error's scale, x
    the alpha nu_alpha is fitted on, of at most CERTIFICATE_TOL_PER_ASSET
    sqrt(n); and a Sharpe program on nu_alpha > 0. It runs on u = 2^-e theta,
    u's largest entry in [1/2, 1), where nu_alpha and nu_1 scale by s = 2^-e
    to a and b and nothing overflows; params are checked as in a solve."""
    entry = PROGRAMS[Program(program)]
    stationarity = entry.multipliers(alpha, cov, **entry.checked(params, *entry.records))
    u, e = _unit_scaled(w)
    with np.errstate(all="ignore"):  # a record past the float range fails unwarned
        product = entries @ u
        sigma_p = float(np.ldexp(math.sqrt(max(u @ product, 0.0)), e))
        if stationarity is None:
            return True, "g0 e is the only feasible point: no multipliers to certify", sigma_p
        c, nu_alpha, nu_1, nu_theta = stationarity
        s = np.ldexp(1.0, -e)
        a, b = (None if nu is None else s * nu for nu in (nu_alpha, nu_1))
        residual = c * product - nu_theta * u - (b or 0.0)
        x = alpha - alpha.mean() if b is None else alpha  # centred if 1 is fitted too
        fit = x @ residual / max(x @ x, _TINY)
        stated, a = a, fit if a is None else a
        residual -= a * alpha
        if b is None:
            b = residual.mean()
            residual -= b
        scale = max((c * np.abs(entries).sum(axis=1).max() + abs(nu_theta)) * np.abs(u).max()
                    + abs(a) * np.abs(alpha).max() + abs(b), _TINY)
        error = float(np.abs(residual).max() / scale)
        misfit = 0.0 if stated is None else float(abs(fit - a) * np.abs(x).max() / scale)
        nu_alpha, nu_1, fit = float(a / s), float(b / s), float(fit / s)
    tolerance = CERTIFICATE_TOL_PER_ASSET * w.size
    fits = misfit <= CERTIFICATE_TOL_PER_ASSET * math.sqrt(w.size)
    positive = nu_alpha > 0.0 or "sharpe" not in entry.audits
    return error <= tolerance and fits and positive, (
        f"backward error {error:g} vs {tolerance:g} at nu_alpha = {nu_alpha!r}, "
        f"nu_1 = {nu_1!r}" + ("" if fits else f": nu_alpha fits {fit!r}")
        + ("" if positive else ": a Sharpe maximum needs nu_alpha > 0")), sigma_p


def _figures(w, program: Program, alpha, cov: CovMatrix) -> dict:
    """:func:`_measure`'s figures of weights ``w``; NonFiniteData names the
    first that overflows."""
    figures = _measure(w, alpha, cov)
    for name, value in figures.items():
        if value is not None and not math.isfinite(value):
            raise NonFiniteData(f"program {program.value} {name} is {value!r}: "
                                "a parameter is too large or too small for these moments")
    return figures


def _portfolio(w, program: Program, params: dict, alpha, cov: CovMatrix) -> Portfolio:
    """The record of weights ``w`` with their :func:`_figures`; refused if a
    figure overflows."""
    return Portfolio(weights=w, program=program, params=dict(params),
                     **_figures(w, program, alpha, cov))


def _on_ray(c_alpha: float, f: FrontierScalars) -> tuple[float, float]:
    """c_alpha Sigma^-1 alpha, a multiple of theta_alpha, as (c_alpha, gearing)."""
    return c_alpha, c_alpha * f.B


def _geared_risky(f: FrontierScalars, g0: float = 1.0, sigma0: float | None = None):
    """g0 theta_alpha (IV, V, VIII); a risk sigma0 fixes g0 = sigma0 B / sqrt(C)."""
    if sigma0 is not None:
        g0 = sigma0 * f.B / np.sqrt(f.C)
    return g0 / f.B, g0


def _geared_min_variance(f: FrontierScalars, alpha0: float, g0: float):
    """VI: c_alpha = (alpha0 - g0 B/A) A/D."""
    return f.excess(alpha0, g0) * f.A / f.D, g0


def _inefficient_branch(f: FrontierScalars, alpha0: float, g0: float):
    """Whether VI's alpha0 lies below the minimum-variance return g0 B / A
    (one bool per matrix of a stack), and a callable that forms the
    InefficientBranchWarning's text."""
    inflection = g0 * f.B / f.A
    below = alpha0 < inflection - 1e-12 * np.maximum(1.0, abs(inflection))
    return below, lambda: (
        f"return target {alpha0:g} below the minimum-variance return {inflection:g} "
        f"at gearing {g0:g}; solution is on the inefficient branch")


def _solve_QOQC(alpha, cov: CovMatrix, gamma: float, g0: float, n0: float):
    """QOQC's weights and the params its record carries: its own and the
    multipliers of :func:`mvgear.diversity.solve_qoqc`; ToleranceNotMet unless
    :func:`_certificate` certifies them on ``cov``, as ``verify`` will."""
    problem = QoqcProblem(alpha=alpha, cov=cov, gamma=gamma, g0=g0, n0=n0)
    solution = solve_qoqc(problem)
    params = {"gamma": problem.gamma, "g0": problem.g0, "n0": problem.n0,
              "lambda1": solution.lambda1, "lambda2": solution.lambda2}
    passed, detail, _ = _certificate(solution.weights, problem.alpha, cov, cov.entries,
                                     Program.QOQC, params)
    if not passed:
        raise ToleranceNotMet(f"QOQC solution not certified: {detail}")
    return solution.weights, params


def _QOQC_multipliers(alpha, cov: CovMatrix, gamma, g0, n0, lambda1, lambda2):
    """(gamma, 1, lambda2, 2 lambda1) of a feasible record (Infeasible
    otherwise); None where g0 e is the only feasible point, whose multipliers
    certify nothing."""
    QoqcProblem(alpha, cov, gamma, g0, n0)
    return None if on_boundary(cov.dim, g0, n0) else (gamma, 1.0, lambda2, 2.0 * lambda1)


@dataclass(frozen=True)
class ProgramSpec:
    """One program: its closed form, its parameters, what its solution must pass.

    A closed form is ``coefficients(frontier, **params)``, the pair
    (c_alpha, gearing) of :meth:`FrontierScalars.weights`; a program audited
    for its gearing records it as g0. Its parameters must be positive, or
    finite if ``signed`` names them; ``refuses`` names what
    :meth:`FrontierScalars.check` raises for it; ``warns``, if set, tells
    where its solution takes an InefficientBranchWarning, as
    :func:`_inefficient_branch` does; one that does not ``reads_alpha``
    records no alpha_p. QOQC runs its own ``solver``, which certifies its solution.

    ``multipliers(alpha, cov, **params)``, of its checked params and those
    its solver ``records``, is (c, nu_alpha, nu_1, nu_theta) of the
    stationarity c Sigma theta = nu_alpha alpha + nu_1 1 + nu_theta theta its
    solution meets on the covariance it was solved on, None where fitted
    (:func:`_certificate`): each closed form lies on Merton's frontier,
    nu_theta = 0; QOQC's reads the multipliers it records.

    ``audits`` names, in the order ``verify`` runs them, the checks its
    solution passes besides that certificate:
    ``"gearing"`` (1'theta = g0), ``"full_investment"`` (1'theta = 1),
    ``"return"`` (alpha'theta = alpha0), ``"risk"`` (sigma_p = sigma0),
    ``"diversity"`` (theta'theta = 1/n0) and ``"sharpe"`` (no portfolio of
    its gearing beats its Sharpe ratio).
    """

    program: Program
    coefficients: Callable[..., tuple[float, float]] | None = None
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    one_of: tuple[str, ...] = ()
    signed: tuple[str, ...] = ()
    refuses: tuple[type[MvgearError], ...] = ()
    warns: Callable | None = None
    reads_alpha: bool = True
    solver: Callable[..., tuple[np.ndarray, dict]] | None = None
    audits: tuple[str, ...] = ()
    multipliers: Callable[..., tuple | None] = lambda alpha, cov, **params: (1.0, None, 0.0, 0.0)
    records: tuple[str, ...] = ()

    def arguments(self, values: Mapping, *recorded: str) -> dict:
        """The solver's parameters among ``values`` (None means unset), and the
        ``recorded`` names; raises MissingParameter unless every required or
        recorded name and one of ``one_of`` is set. The first of ``one_of``
        wins: a solved V records both."""
        given = {name: value for name, value in values.items() if value is not None}
        for name in (*self.required, *recorded):
            if name not in given:
                raise self.missing(name)
        chosen = [name for name in self.one_of if name in given][:1]
        if self.one_of and not chosen:
            raise MissingParameter(self.one_of_text())
        optional = [name for name in self.optional if name in given]
        return {name: given[name] for name in [*self.required, *recorded, *optional, *chosen]}

    def checked(self, params: Mapping, *recorded: str) -> dict:
        """:meth:`arguments`, each positive, or finite if ``signed`` names it;
        a ``solver`` checks its own."""
        args = self.arguments(params, *recorded)
        return args if self.solver else {name: (
            _require_finite if name in self.signed else _require_positive)(name, value)
            for name, value in args.items()}

    def no_maximum(self, frontier: FrontierScalars, c_alpha, gearing):
        """Whether a Sharpe program's (c_alpha, gearing) has no maximum to
        solve for (one bool per matrix of a stack), and a callable that forms
        its NonPositiveParameter. On 1'theta = g0 the Sharpe ratio has a
        maximum iff c_alpha = g0 / B > 0; a program not audited for "sharpe"
        never fails (one False)."""
        fails = ~np.greater(c_alpha, 0.0) if "sharpe" in self.audits else np.False_
        return fails, lambda: NonPositiveParameter(
            f"g0 B must be positive for a Sharpe maximum, got g0 = {float(gearing)!r}, "
            f"B = {frontier.B:g}")

    def missing(self, name: str) -> MissingParameter:
        return MissingParameter(f"program {self.program.value} requires --{name}")

    def one_of_text(self) -> str:
        flags = " / ".join(f"--{name}" for name in self.one_of)
        return f"program {self.program.value} takes exactly one of {flags}"


# In Program order, which is the order the CLI lists them in. I, II, V and VI
# refuse a flat alpha (D = 0); the multiples of theta_alpha refuse B = 0. The
# Sharpe programs (audited for "sharpe": IV, V, VIII, RISKY) refuse a
# c_alpha <= 0, that is g0 B <= 0 (B < 0 for RISKY; V at sigma0 never): on
# 1'theta = g0 the Sharpe ratio has a maximum iff g0 B > 0, and
# g0 theta_alpha is its minimum (or zero) otherwise (ProgramSpec.no_maximum).
PROGRAMS: dict[Program, ProgramSpec] = {spec.program: spec for spec in (
    ProgramSpec(Program.I, lambda f, sigma0: _on_ray(sigma0 / np.sqrt(f.C), f),
                required=("sigma0",), refuses=(DegenerateAlpha,), audits=("risk",)),
    ProgramSpec(Program.II, lambda f, alpha0: _on_ray(alpha0 / f.C, f),
                required=("alpha0",), refuses=(DegenerateAlpha,), audits=("return",)),
    ProgramSpec(Program.III, lambda f, gamma: _on_ray(1.0 / gamma, f), required=("gamma",),
                multipliers=lambda alpha, cov, gamma: (gamma, 1.0, 0.0, 0.0)),
    ProgramSpec(Program.IV, _geared_risky, optional=("g0",), signed=("g0",), refuses=(ZeroB,),
                audits=("gearing", "sharpe")),
    ProgramSpec(Program.V, _geared_risky, one_of=("sigma0", "g0"), signed=("g0",),
                refuses=(DegenerateAlpha, ZeroB), audits=("gearing", "risk", "sharpe")),
    ProgramSpec(Program.VI, _geared_min_variance, required=("alpha0", "g0"),
                signed=("alpha0", "g0"), refuses=(DegenerateAlpha,),
                warns=_inefficient_branch, audits=("gearing", "return"),
                multipliers=lambda alpha, cov, alpha0, g0: (1.0, None, None, 0.0)),
    ProgramSpec(Program.VII, lambda f, gamma, g0: (1.0 / gamma, g0),
                required=("gamma", "g0"), signed=("g0",), audits=("gearing",),
                multipliers=lambda alpha, cov, gamma, g0: (gamma, 1.0, None, 0.0)),
    ProgramSpec(Program.VIII, _geared_risky, required=("g0",), signed=("g0",),
                refuses=(ZeroB,), audits=("gearing", "sharpe")),
    ProgramSpec(Program.GMV, lambda f: (0.0, 1.0), reads_alpha=False,
                audits=("full_investment",),
                multipliers=lambda alpha, cov: (1.0, 0.0, None, 0.0)),
    ProgramSpec(Program.RISKY, lambda f: (1.0 / f.B, 1.0), refuses=(ZeroB,),
                audits=("full_investment", "sharpe")),
    ProgramSpec(Program.QOQC, solver=_solve_QOQC, required=("gamma", "g0", "n0"),
                audits=("gearing", "diversity"), multipliers=_QOQC_multipliers,
                records=("lambda1", "lambda2")),
)}


def program_weights(program: Program, frontier: FrontierScalars, /, **params):
    """The weights of ``program`` on ``frontier``, checked for what its PROGRAMS
    entry refuses (and for a maximum, :meth:`ProgramSpec.no_maximum`) and
    refused if they leave the float range, and the
    params its record carries: those
    :meth:`ProgramSpec.arguments` picks from ``params``, checked as the entry
    declares, and an audited gearing as g0 (QOQC's solver adds multipliers)."""
    entry = PROGRAMS[Program(program)]
    args = entry.checked(params)
    if entry.solver is not None:
        return entry.solver(frontier.alpha, frontier.cov, **args)
    frontier.check(entry.refuses)
    with np.errstate(all="ignore"):  # an inflection past the float range warns of no branch
        if entry.warns is not None:
            below, text = entry.warns(frontier, **args)
            if below:
                warnings.warn(text(), InefficientBranchWarning, stacklevel=3)
        c_alpha, gearing = entry.coefficients(frontier, **args)
        fails, error = entry.no_maximum(frontier, c_alpha, gearing)
        if fails:
            raise error()
        weights = frontier.weights(c_alpha, gearing)
    if not np.isfinite(weights).all():
        raise NonFiniteData(f"program {entry.program.value} weights are not finite: "
                            "a parameter is too large or too small for these moments")
    if "gearing" in entry.audits:
        args["g0"] = gearing
    return weights, args


def solve(program: Program, alpha, cov: CovMatrix, /, **params) -> Portfolio:
    """Solve ``program`` (the module docstring says what each one solves):
    :func:`program_weights` on the frontier of (alpha, Sigma), and its record."""
    entry = PROGRAMS[Program(program)]
    frontier = FrontierScalars(alpha if entry.reads_alpha else None, cov)
    weights, args = program_weights(entry.program, frontier, **params)
    return _portfolio(weights, entry.program, args, frontier.alpha, cov)


def frontier_variance(scalars: FrontierScalars, alpha_p, g0):
    """Minimum portfolio variance at return alpha_p and gearing g0, as
    g0^2 / A + (A / D) (alpha_p - g0 B / A)^2.

    ``alpha_p`` and ``g0`` may be arrays that broadcast together; each point
    gets the bits it gets on its own. A square that overflows is inf.
    """
    scalars.check((DegenerateAlpha,))
    offset = scalars.excess(alpha_p, g0)
    return g0 * g0 / scalars.A + scalars.A / scalars.D * (offset * offset)


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
    alphas = np.atleast_1d(np.asarray(alpha_p_grid, dtype=float))
    gearings = np.atleast_1d(np.asarray(g0_grid, dtype=float))
    if alphas.size == 0 or gearings.size == 0:
        raise DimensionError("grids must be non-empty")
    if not (np.all(np.isfinite(alphas)) and np.all(np.isfinite(gearings))):
        raise NonFiniteData("grids must be finite")
    scal = FrontierScalars(alpha, cov)
    with np.errstate(over="ignore", invalid="ignore"):
        var = frontier_variance(scal, alphas[:, None], gearings)
    if not np.isfinite(var).all():
        i, j = np.argwhere(~np.isfinite(var))[0]
        raise NonFiniteData(f"variance at alpha_p = {float(alphas[i])!r}, "
                            f"g0 = {float(gearings[j])!r} is {float(var[i, j])!r}")
    on_gmv = _on_line(alphas, gearings * scal.B / scal.A)
    on_risky = (_on_line(alphas, gearings * scal.C / scal.B) if abs(scal.B) > ZERO_B_TOL
                else np.zeros(var.shape, dtype=bool))
    return ParetoSurface(alphas, gearings, np.sqrt(var), on_gmv, on_risky)
