"""
Covariance shrinkage targeted at the alpha-weight angle, and robust
uncertainty-ball objectives.

The worst-case expected return over a ball of radius k|alpha| centred on
alpha is

    min alpha_p = alpha'theta - k |alpha| |theta| = |alpha||theta|(cos phi - k),

so distrust in alpha is spent by rotating the optimal risky portfolio
toward alpha. That rotation is generated by a convex shrink of the
covariance toward the identity,

    Sigma~ = (k / cos phi) I + (1 - k / cos phi) Sigma,

where cos phi is the current angle between alpha and Sigma^-1 alpha and the
admissible range is k in [0, cos phi). The uncertainty-ball identity

    theta~ = [ (k|alpha||theta|/sigma_p) I
             + ((alpha'theta - k|alpha||theta|)/sigma_p) Sigma ]^-1 alpha,

with the bracket evaluated at the unshrunk fully-invested risky portfolio,
reduces once alpha'theta = |alpha||theta| cos phi is substituted and the
result renormalized to gearing one to this shrink: the shrunk risky
portfolio is ``solve_robust(Program.RISKY, alpha, cov,
ShrinkageSpec(ShrinkMode.ANGLE_TARGETED, k))``. The plain convex forms
q I + (1-q) Sigma and q diag(Sigma) + (1-q) Sigma are exposed alongside.

Each mode names a convex weight w, k / cos phi or q, and a target T, I or
diag(Sigma); this module maps k to w (:func:`_shrink_weights`) and
``moments.CovMatrix.shrink`` forms w T + (1 - w) Sigma by its one rule,
which frame w lands on and how that frame's spectrum maps. A single solve
and a sweep's batch take the same frames, so their rows agree.

Shrinking never worsens the condition number and never breaks the gearing
constraints (the GMV/risky mix stays cash neutral). :func:`solve_robust`
re-solves any table program (``solvers.PROGRAMS``, QOQC included) on the
shrunk covariance; its full-shrink limit (``ShrinkageSpec(ShrinkMode.SIMPLE,
1.0)``) is the same program on Sigma~ = I, that is ``solvers.solve(program,
alpha, CovMatrix.identity(n), **params)``. With e = 1/n the equal-weight
vector and alpha^ = alpha / (1'alpha):

- GMV becomes e and RISKY becomes alpha^;
- VII becomes g0 e + (alpha - mean(alpha) 1) / gamma: the geared
  equal-weight portfolio plus a cash-neutral relative-return tilt;
- VI becomes g0 e + w~ (alpha^ - e), with
  w~ = (alpha0 mean(alpha) - g0 mean(alpha)^2) / var(alpha).

:func:`shrink_sweep` solves a grid of shrinks as one batch per frame: the
points whose shrunk matrices share a basis and scaling. A point the batch
cannot vouch for is solved alone, as :func:`solve_robust` would.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import solvers
from .errors import (
    InvalidK,
    InvalidPortfolio,
    MissingParameter,
    MvgearError,
    ShrinkBrokeSPD,
    SingularCovariance,
)
from .geometry import alpha_angle, alpha_angles, kantorovich_bound
from .moments import CovMatrix, _binary_scaled, as_vector
from .solvers import FrontierScalars, Portfolio, Program, _portfolio


class ShrinkMode(str, Enum):
    ANGLE_TARGETED = "angle"
    SIMPLE = "simple"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class ShrinkageSpec:
    """How far, and toward which target, to shrink the covariance.

    ``k`` is the angle-targeted hyper-parameter in [0, k0), where
    k0 = cos phi is the alpha-angle of the risky portfolio of the (alpha,
    Sigma) pair being shrunk; in the SIMPLE and DIAGONAL modes ``k`` is the
    plain convex weight q in [0, 1].
    """

    mode: ShrinkMode
    k: float

    @classmethod
    def from_params(cls, params: Mapping) -> "ShrinkageSpec | None":
        """The shrink a portfolio's params record, as :func:`solve_robust`
        writes it (``shrink_mode``, ``shrink_k``); None if they record none."""
        if "shrink_mode" not in params:
            return None
        try:
            mode = ShrinkMode(params["shrink_mode"])
        except ValueError:
            modes = ", ".join(m.value for m in ShrinkMode)
            raise InvalidPortfolio(f"unknown shrink mode {params['shrink_mode']!r}; "
                                   f"expected one of {modes}") from None
        k = params.get("shrink_k")
        if k is None:
            raise MissingParameter(f"shrink mode {mode.value} requires shrink_k")
        if isinstance(k, bool) or not isinstance(k, (int, float)):
            raise InvalidPortfolio(f"shrink_k must be a number, got {k!r}")
        return cls(mode=mode, k=float(k))


def angle_floor(alpha, cov: CovMatrix) -> float:
    """k0 = cos of the current angle between alpha and Sigma^-1 alpha."""
    a = as_vector(alpha)
    return alpha_angle(a, cov.solve(a))


def _shrink_weights(mode: ShrinkMode, ks, alpha, cov: CovMatrix):
    """(w, inside, refusal) of shrink parameters ``ks``, a float or an array:
    the convex weight toward ``mode``'s target, k / k0 for an angle shrink and
    q itself otherwise, whether each parameter lies in its range, [0, k0) or
    [0, 1], and the text that refuses one outside it."""
    if mode is ShrinkMode.ANGLE_TARGETED:
        k0 = angle_floor(alpha, cov)
        return ks / k0, (0.0 <= ks) & (ks < k0), f"k = {{}} outside [0, k0 = {k0:g})"
    return ks, (0.0 <= ks) & (ks <= 1.0), "q = {} outside [0, 1]"


def robust_alpha(alpha, theta, k: float) -> float:
    """Worst-case expected return over the radius-k|alpha| uncertainty ball."""
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise InvalidK(f"k = {k} outside [0, 1)")
    # |alpha||theta| and alpha'theta of the power-of-two scaled vectors, scaled
    # back by 2^(ea + et), so that neither norm overflows or underflows alone
    a, na, ea = _binary_scaled(as_vector(alpha))
    t, nt, et = _binary_scaled(as_vector(theta))
    scale = float(np.ldexp(na * nt, ea + et))
    direct = float(np.ldexp(float(a @ t), ea + et)) - k * scale
    via_angle = scale * (alpha_angle(a, t) - k)
    if abs(direct - via_angle) > 1e-12 * max(1.0, scale):
        raise InvalidK(
            f"inner-product and angle forms disagree: {direct!r} vs {via_angle!r}"
        )
    return direct


def _shrink_weight(cov: CovMatrix, alpha, spec: ShrinkageSpec) -> float:
    """The convex weight of ``spec`` (:func:`_shrink_weights`), whose k0 costs
    one solve; InvalidK refuses a parameter outside its range."""
    w, inside, refusal = _shrink_weights(spec.mode, spec.k, alpha, cov)
    if not inside:
        raise InvalidK(refusal.format(spec.k))
    return w


def certificate(w, alpha, cov: CovMatrix, program: Program, params: Mapping):
    """:func:`solvers._certificate` of a record on the covariance it was
    solved on: Sigma, or w T + (1 - w) Sigma of its shrink params
    (:meth:`ShrinkageSpec.from_params`), formed with no decomposition."""
    spec = ShrinkageSpec.from_params(params)
    entries = cov.entries if spec is None else cov._shrunk_entries(
        _shrink_weight(cov, alpha, spec), spec.mode is ShrinkMode.DIAGONAL)
    return solvers._certificate(w, alpha, cov, entries, program, params)


def shrink_covariance(cov: CovMatrix, alpha, spec: ShrinkageSpec) -> CovMatrix:
    """Convex combination of Sigma with its shrink target
    (:meth:`CovMatrix.shrink`).

    ANGLE_TARGETED uses weight k / cos phi toward the identity; SIMPLE uses
    q toward the identity; DIAGONAL uses q toward diag(Sigma). All three
    can only improve (or preserve) the condition number.
    """
    w = _shrink_weight(cov, alpha, spec)
    try:
        return cov.shrink(w, diagonal=spec.mode is ShrinkMode.DIAGONAL)
    except SingularCovariance as exc:  # pragma: no cover - convexity forbids this
        raise ShrinkBrokeSPD(f"shrunk covariance lost definiteness: {exc}") from exc


def solve_robust(
    program: Program, alpha, cov: CovMatrix, spec: ShrinkageSpec | None, /, **params
) -> Portfolio:
    """Re-solve any table program, with ``params`` as :func:`solvers.solve`
    takes them, on the shrunk covariance; the result records the shrink and
    reports alpha_p and sigma_p on the unshrunk covariance. With no ``spec``
    this is :func:`solvers.solve` itself."""
    if spec is None:
        return solvers.solve(program, alpha, cov, **params)
    a, entry = as_vector(alpha), solvers.PROGRAMS[Program(program)]
    shrunk = shrink_covariance(cov, a, spec)
    frontier = FrontierScalars(a if entry.reads_alpha else None, shrunk)
    weights, args = solvers.program_weights(entry.program, frontier, **params)
    args.update(shrink_mode=spec.mode.value, shrink_k=spec.k)
    return _portfolio(weights, entry.program, args, frontier.alpha, cov)


@dataclass(frozen=True)
class ShrinkPath:
    """A shrink sweep, an entry per grid point: the shrink parameter, the
    shrunk covariance's condition number, the alpha-angles of the shrunk
    maximum-Sharpe direction (RISKY's portfolio with no program,
    :func:`shrink_sweep`) and of the swept program's portfolio, the
    Kantorovich bound, and the swept program's weights, a row per point."""

    k: np.ndarray
    kappa_tilde: np.ndarray
    cos_phi_risky: np.ndarray
    cos_phi_optimal: np.ndarray
    bound_kantorovich: np.ndarray
    weights: np.ndarray


# A sweep row all of whose figures on Sigma stay below this, by the bound of
# _may_overflow, is written from the batch.
_FIGURE_LIMIT = 2.0**1000


def _may_overflow(a, cov: CovMatrix, rows: np.ndarray) -> np.ndarray:
    """Whether a figure :func:`solvers._figures` forms of each row theta could
    overflow, by an O(n) bound per row on t = max|theta|: the leverage is at
    most n t, alpha_p and its partial sums at most |alpha| sqrt(n) t, and
    theta'Sigma theta and its partial sums at most (n t)^2 max|Sigma_ij| <=
    (n t)^2 rho_1 max(s)^2. ``t_max`` is the largest t that keeps all three
    within the limit."""
    n = cov.dim
    rho = float(cov.spectrum[0]) * (1.0 if cov.scale is None else float(cov.scale.max()) ** 2)
    t_max = min(_FIGURE_LIMIT / max(n, math.sqrt(n * float(a @ a))),
                math.sqrt(_FIGURE_LIMIT / rho) / n)
    return ~(np.abs(rows).max(axis=1) <= t_max)


def _sweep_point(a, cov: CovMatrix, spec: ShrinkageSpec, program, params):
    """One point of :func:`shrink_sweep` solved alone, as :func:`solve_robust`
    solves it, raising and warning as it does (an overflowing figure of the
    written weights included): kappa~, the cosines of the risky column and
    ``program`` (both RISKY's theta_alpha if None), and ``program``'s
    weights."""
    shrunk = shrink_covariance(cov, a, spec)
    frontier = FrontierScalars(a, shrunk)
    sign = float(np.sign(frontier.B))
    risky = solvers.program_weights(Program.IV, frontier, g0=sign)[0]
    if program is None:  # theta_alpha, unrefused at B < 0; negation is exact
        optimal = risky = sign * risky
    else:
        optimal = solvers.program_weights(program, frontier, **params)[0]
    entry = solvers.PROGRAMS[Program.RISKY if program is None else Program(program)]
    solvers._figures(optimal, entry.program, a if entry.reads_alpha else None, cov)
    # a scaled shrink is toward the diagonal at w = q inside (0, 1): its kappa~
    # is the one the batch reads, kept with cov
    kappa = (shrunk.condition_number if shrunk.scale is None
             else cov.toward_diagonal_condition(spec.k))
    return kappa, alpha_angle(a, risky), alpha_angle(a, optimal), optimal


def shrink_sweep(alpha, cov: CovMatrix, mode: ShrinkMode, grid, program=None,
                 /, **params) -> ShrinkPath:
    """The shrunk maximum-Sharpe direction and ``program``'s portfolio at
    each shrink parameter of ``grid``: :func:`solve_robust`'s weights to
    rounding, and each shrunk covariance's condition number bit for bit.
    The direction is sign(B) theta_alpha, IV at g0 = sign(B), the one
    Kantorovich bounds: RISKY's portfolio bit for bit where B > 0 (negation
    is exact), and the Sharpe maximum where RISKY refuses B < 0. With no
    ``program`` both columns are RISKY's theta_alpha, B < 0 included.

    Points whose shrinks share a frame (:meth:`CovMatrix.shrink_frames`, as
    :func:`solve_robust`'s do) run as one stack (:meth:`CovMatrix.stack`) and
    one frontier object: one product with the basis for alpha and one for all
    their weights; k0 costs one solve with Sigma per sweep. The cosines come
    from one product with alpha (:func:`geometry.alpha_angles`); the condition
    number is the stack's spectrum ratio, or toward the diagonal inside
    (0, 1) :meth:`CovMatrix.toward_diagonal_condition`: one ``eigvalsh`` per
    weight per covariance, kept with it, so a weight already swept on that
    covariance, for any ``program``, costs none. A point the batch cannot
    vouch for is solved alone (:func:`_sweep_point`), in grid order, and
    raises or warns there by itself: a k out of range, a group whose stack
    fails (R's decomposition), a refusal of either column (``program``'s
    :meth:`~solvers.ProgramSpec.no_maximum` included), a warning of
    ``program`` (VI's inefficient branch), a parameter check that fails
    (every point), a nan cosine, or weights whose sigma_p or other figure
    on Sigma could overflow (:func:`_may_overflow`). Such a point costs one
    scalar solve, and its row is :func:`solve_robust`'s.
    """
    a, ks, mode = as_vector(alpha), np.asarray(grid, dtype=float), ShrinkMode(mode)
    # the risky column first: IV at g0 = sign(B) per matrix of a frame
    # group, or at g0 = 1 (RISKY's coefficients) with no program
    entries = [solvers.PROGRAMS[Program.IV]]
    if program is not None:
        entries.append(solvers.PROGRAMS[Program(program)])
    if entries[-1].coefficients is None:
        raise ValueError(f"program {entries[-1].program.value} has no closed form to sweep")
    w, inside, _ = _shrink_weights(mode, ks, a, cov)
    alone = ~inside
    thetas = np.empty((len(entries), ks.size, cov.dim))
    kappa, scaled = np.empty(ks.size), np.zeros(ks.size, bool)
    with np.errstate(all="ignore"):
        try:
            args = [entry.checked(params) for entry in entries[1:]]
        except MvgearError:  # every point alone: the first raises it, or fails before
            alone[:] = True
        for fits, base, mapped in cov.shrink_frames(w, mode is ShrinkMode.DIAGONAL):
            positions = (fits & ~alone).nonzero()[0]
            if positions.size == 0:
                continue
            try:
                f = FrontierScalars(a, base().stack(
                    w[positions] if mapped else np.zeros(positions.size)))
            except MvgearError:  # R's decomposition
                alone[positions] = True
                continue
            coords = []
            risky = {"g0": 1.0 if program is None else np.sign(f.B)}
            for column, (entry, kwargs) in enumerate(zip(entries, [risky, *args])):
                for fails, _ in f.refusals(entry.refuses):
                    alone[positions[fails.ravel()]] = True
                if entry.warns is not None:
                    alone[positions[entry.warns(f, **kwargs)[0].ravel()]] = True
                c_alpha, gearing = entry.coefficients(f, **kwargs)
                if column:  # the risky column's c_alpha is 1/|B|, or RISKY's 1/B
                    alone[positions] |= np.ravel(entry.no_maximum(f, c_alpha, gearing)[0])
                coords.append(f.coordinates(c_alpha, gearing))
            thetas[:, positions] = f.cov.from_coordinates(np.concatenate(coords)).reshape(
                len(entries), -1, cov.dim)
            if f.cov.scale is None:
                kappa[positions] = f.cov.spectrum[:, 0] / f.cov.spectrum[:, -1]
            else:
                scaled[positions] = True
        cosines = alpha_angles(a, thetas.reshape(-1, cov.dim)).reshape(len(entries), -1)
        alone |= np.isnan(cosines).any(axis=0) | _may_overflow(a, cov, thetas[-1])
    for j in (alone | scaled).nonzero()[0].tolist():
        if alone[j]:
            kappa[j], cosines[0, j], cosines[-1, j], thetas[-1, j] = _sweep_point(
                a, cov, ShrinkageSpec(mode, float(ks[j])), program, params)
        else:
            kappa[j] = cov.toward_diagonal_condition(float(w[j]))
    bound = np.array([kantorovich_bound(value) for value in kappa.tolist()])
    return ShrinkPath(ks, kappa, cosines[0], cosines[-1], bound, thetas[-1])
