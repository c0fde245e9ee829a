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
admissible range is k in [0, cos phi). Shrinking never worsens the
condition number, never breaks the gearing constraints (the GMV/risky
mix stays cash neutral), and in the full-shrink limit sends the GMV
portfolio to the equal-weight vector e = 1/n and the risky portfolio to
the return direction alpha / (1'alpha). The plain convex forms
q I + (1-q) Sigma and q diag(Sigma) + (1-q) Sigma are exposed alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import solvers
from .errors import (
    DegenerateAlpha,
    InvalidK,
    NonPositiveParameter,
    ShrinkBrokeSPD,
    SingularCovariance,
)
from .geometry import alpha_angle
from .moments import CovMatrix, as_vector
from .solvers import Portfolio, Program, _portfolio


class ShrinkMode(str, Enum):
    ANGLE_TARGETED = "angle"
    SIMPLE = "simple"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class ShrinkageSpec:
    """How far, and toward which target, to shrink the covariance.

    ``k`` is the angle-targeted hyper-parameter in [0, k0) where
    k0 = cos phi is the current alpha-angle of the risky portfolio; in the
    SIMPLE and DIAGONAL modes ``k`` is the plain convex weight q in [0, 1].
    ``k0`` may be pinned at construction; when left None it is recomputed
    from the (alpha, Sigma) pair being shrunk.
    """

    mode: ShrinkMode
    k: float
    k0: float | None = None

    @classmethod
    def angle_targeted(cls, k: float, k0: float | None = None) -> "ShrinkageSpec":
        return cls(mode=ShrinkMode.ANGLE_TARGETED, k=float(k), k0=k0)

    @classmethod
    def simple(cls, q: float) -> "ShrinkageSpec":
        return cls(mode=ShrinkMode.SIMPLE, k=float(q))

    @classmethod
    def diagonal(cls, q: float) -> "ShrinkageSpec":
        return cls(mode=ShrinkMode.DIAGONAL, k=float(q))


def angle_floor(alpha, cov: CovMatrix) -> float:
    """k0 = cos of the current angle between alpha and Sigma^-1 alpha."""
    a = as_vector(alpha)
    return alpha_angle(a, cov.solve(a))


def _convex_weight(spec: ShrinkageSpec, alpha, cov: CovMatrix | None) -> float:
    if spec.mode is ShrinkMode.ANGLE_TARGETED:
        if spec.k0 is not None:
            k0 = float(spec.k0)
        else:
            if alpha is None or cov is None:
                raise InvalidK(
                    "angle-targeted shrinkage needs alpha and covariance "
                    "(or a pinned k0) to evaluate cos phi"
                )
            k0 = angle_floor(alpha, cov)
        if not 0.0 < k0 <= 1.0:
            raise InvalidK(f"k0 = {k0} outside (0, 1]")
        if not 0.0 <= spec.k < k0:
            raise InvalidK(f"k = {spec.k} outside [0, k0 = {k0:g})")
        return spec.k / k0
    if not 0.0 <= spec.k <= 1.0:
        raise InvalidK(f"q = {spec.k} outside [0, 1]")
    return spec.k


def robust_alpha(alpha, theta, k: float) -> float:
    """Worst-case expected return over the radius-k|alpha| uncertainty ball."""
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise InvalidK(f"k = {k} outside [0, 1)")
    a = as_vector(alpha)
    t = as_vector(theta)
    scale = float(np.linalg.norm(a) * np.linalg.norm(t))
    direct = float(a @ t) - k * scale
    via_angle = scale * (alpha_angle(a, t) - k)
    if abs(direct - via_angle) > 1e-12 * max(1.0, scale):
        raise InvalidK(
            f"inner-product and angle forms disagree: {direct!r} vs {via_angle!r}"
        )
    return direct


def shrink_covariance(cov: CovMatrix, alpha, spec: ShrinkageSpec) -> CovMatrix:
    """Convex combination of Sigma with its shrink target.

    ANGLE_TARGETED uses weight k / cos phi toward the identity; SIMPLE uses
    q toward the identity; DIAGONAL uses q toward diag(Sigma). All three
    can only improve (or preserve) the condition number.
    """
    w = _convex_weight(spec, alpha, cov)
    if spec.mode is ShrinkMode.DIAGONAL:
        target = np.diag(np.diag(cov.entries))
    else:
        target = np.eye(cov.dim)
    entries = w * target + (1.0 - w) * cov.entries
    try:
        return CovMatrix.from_entries(entries)
    except SingularCovariance as exc:  # pragma: no cover - convexity forbids this
        raise ShrinkBrokeSPD(f"shrunk covariance lost definiteness: {exc}") from exc


def shrunk_risky_portfolio(alpha, cov: CovMatrix, spec: ShrinkageSpec) -> Portfolio:
    """Fully-invested risky portfolio of the shrunk covariance."""
    return solve_robust(Program.RISKY, alpha, cov, spec)


def shrunk_gmv_portfolio(
    cov: CovMatrix, spec: ShrinkageSpec, alpha=None
) -> Portfolio:
    """GMV portfolio of the shrunk covariance; full shrink gives 1/n weights.

    ``alpha`` is only needed in ANGLE_TARGETED mode without a pinned k0.
    """
    shrunk = shrink_covariance(cov, alpha, spec)
    raw = shrunk.solve(np.ones(cov.dim))
    return _portfolio(
        raw / raw.sum(),
        Program.GMV,
        {"shrink_mode": spec.mode.value, "shrink_k": spec.k},
        alpha=as_vector(alpha) if alpha is not None else None,
        cov=cov,
    )


def solve_robust(
    program: Program, alpha, cov: CovMatrix, spec: ShrinkageSpec, **params
) -> Portfolio:
    """Re-solve any closed-form program, with ``params`` as :func:`solvers.solve`
    takes them, on the shrunk covariance; the result records the shrink and
    reports alpha_p and sigma_p on the unshrunk covariance."""
    a = as_vector(alpha)
    base = solvers.solve(program, a, shrink_covariance(cov, a, spec), **params)
    params = {**base.params, "shrink_mode": spec.mode.value, "shrink_k": spec.k}
    return _portfolio(base.weights, base.program, params, alpha=a, cov=cov)


def max_shrink_VII(alpha, gamma: float, g0: float) -> Portfolio:
    """Geared mean-variance solution at the full-shrink limit Sigma~ = I.

    theta = g0 e + (alpha - mean(alpha) 1) / gamma with e = 1/n: the geared
    equal-weight portfolio plus a cash-neutral relative-return tilt.
    """
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise NonPositiveParameter(f"gamma must be positive, got {gamma}")
    a = as_vector(alpha)
    n = a.size
    w = float(g0) / n + (a - a.mean()) / gamma
    return _portfolio(
        w,
        Program.VII,
        {"gamma": gamma, "g0": float(g0), "shrink_mode": "max"},
        alpha=a,
    )


def max_shrink_VI(alpha, alpha0: float, g0: float) -> Portfolio:
    """Geared risk minimization at the full-shrink limit Sigma~ = I.

    Identical to solve_VI with identity covariance, where the frontier
    scalars collapse to A = n, B = 1'alpha, C = alpha'alpha and
    D = n^2 var(alpha); equivalently g0 e + w~ (alpha^ - e) with
    w~ = (alpha0 abar - g0 abar^2) / var(alpha).
    """
    a = as_vector(alpha)
    n = a.size
    big_a = float(n)
    big_b = float(a.sum())
    big_c = float(a @ a)
    big_d = big_a * big_c - big_b**2
    if big_d <= solvers.DEGENERATE_D_TOL:
        raise DegenerateAlpha(
            f"alpha variance {big_d / n**2:g} is not positive; "
            "maximally shrunk risk minimization undefined"
        )
    alpha0 = float(alpha0)
    g0 = float(g0)
    lam1 = (alpha0 * big_a - g0 * big_b) / big_d
    lam2 = (g0 * big_c - alpha0 * big_b) / big_d
    w = lam1 * a + lam2 * np.ones(n)
    return _portfolio(
        w,
        Program.VI,
        {"alpha0": alpha0, "g0": g0, "shrink_mode": "max"},
        alpha=a,
    )


def implicit_shrunk_theta(alpha, cov: CovMatrix, k: float) -> Portfolio:
    """Shrunk risky portfolio from the uncertainty-ball covariance identity.

    The implicit relation

        theta~ = [ (k|alpha||theta|/sigma_p) I
                 + ((alpha'theta - k|alpha||theta|)/sigma_p) Sigma ]^-1 alpha

    with the bracket evaluated at the unshrunk fully-invested risky
    portfolio reduces, once alpha'theta = |alpha||theta| cos(phi) is
    substituted and the result is renormalized to gearing one, to the
    angle-targeted shrink of the covariance. This computes that closed
    reduction directly; no fixed-point iteration is involved.
    """
    k = float(k)
    if k < 0.0:
        raise InvalidK(f"k = {k} below 0")
    a = as_vector(alpha)
    port = shrunk_risky_portfolio(a, cov, ShrinkageSpec.angle_targeted(k))
    return _portfolio(port.weights, Program.RISKY, {"k": k}, alpha=a, cov=cov)
