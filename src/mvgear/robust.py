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

Both identity-target shrinks keep Sigma's eigenvectors and map each
eigenvalue rho to w + (1 - w) rho, so they reuse the cached spectrum, and
U'1 with it. The diagonal target does the same with the spectrum of the
correlation matrix R = D^-1/2 Sigma D^-1/2, decomposed once per covariance:
w D + (1 - w) Sigma = D^1/2 (w I + (1 - w) R) D^1/2. A shrunk matrix forms
no n x n array until its entries are read: QOQC's stationarity terms read
them, and the diagonal target's condition number, the only reader of the
shrunk matrix's own eigenvalues (one ``eigvalsh``, when first read).

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
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import solvers
from .errors import (
    InvalidK,
    InvalidPortfolio,
    MissingParameter,
    ShrinkBrokeSPD,
    SingularCovariance,
)
from .geometry import _binary_scaled, alpha_angle
from .moments import CovMatrix, as_vector
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


# k0 of the last (alpha, Sigma) shrunk toward its angle, Sigma held weakly: a
# sweep shrinks one pair at every grid point, and k0 costs a solve with Sigma.
_last_floor: tuple[weakref.ref, bytes, float] | None = None


def _convex_weight(spec: ShrinkageSpec, alpha, cov: CovMatrix) -> float:
    global _last_floor
    if spec.mode is ShrinkMode.ANGLE_TARGETED:
        key = as_vector(alpha).tobytes()
        if not (_last_floor and _last_floor[0]() is cov and _last_floor[1] == key):
            _last_floor = weakref.ref(cov), key, angle_floor(alpha, cov)
        k0 = _last_floor[2]
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


def shrink_covariance(cov: CovMatrix, alpha, spec: ShrinkageSpec) -> CovMatrix:
    """Convex combination of Sigma with its shrink target.

    ANGLE_TARGETED uses weight k / cos phi toward the identity; SIMPLE uses
    q toward the identity; DIAGONAL uses q toward diag(Sigma). All three
    can only improve (or preserve) the condition number. The two identity
    shrinks keep Sigma's eigenvectors and map its cached spectrum in O(n)
    (:meth:`CovMatrix.toward_identity`); DIAGONAL maps the spectrum of
    Sigma's correlation matrix, decomposed once per covariance, and solves
    in O(n^2) too (:meth:`CovMatrix.toward_diagonal`). Neither forms the
    shrunk entries until they are read.
    """
    w = _convex_weight(spec, alpha, cov)
    if spec.mode is not ShrinkMode.DIAGONAL:
        return cov.toward_identity(w)
    try:
        return cov.toward_diagonal(w)
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
    a = as_vector(alpha)
    frontier = FrontierScalars(a, shrink_covariance(cov, a, spec))
    weights, args = solvers.program_weights(program, frontier, **params)
    args.update(shrink_mode=spec.mode.value, shrink_k=spec.k)
    return _portfolio(weights, Program(program), args, a, cov)
