"""
The alpha-weight angle and its spectral lower bounds.

For expected returns alpha and optimized weights theta the alignment is

    cos(phi) = alpha'theta / (|alpha| |theta|).

When theta is proportional to Sigma^-1 alpha (every program without a
gearing constraint, and the geared return/Sharpe maximizations), the
Kantorovich inequality bounds the cosine away from zero by the condition
number kappa = rho_1 / rho_n:

    cos(phi) >= 2 sqrt(kappa) / (kappa + 1).

Gearing-constrained solutions have theta proportional to Sigma^-1 z for a
mixed vector z, and the bound weakens to the Bauer-Householder form with

    kappa_psi = kappa (1 + sin psi) / (1 - sin psi),
    cos(phi) >= 2 sqrt(kappa_psi) / (kappa_psi + 1),

valid for any auxiliary angle psi in [0, pi/2) no smaller than the angle
between the transformed pair x = L^-1 alpha, y = L'theta, for any factor
Sigma = L L'. L = Sigma^1/2 is the paper's choice, but x'y = alpha'theta,
|x|^2 = alpha'Sigma^-1 alpha and |y|^2 = theta'Sigma theta whatever L, so
the angle is the same. With x and y scaled to unit length it is
2 atan2(|x - y|, |x + y|), which keeps its digits near psi = 0.
Both bounds are attained by explicit two-eigenvector constructions, which
this module also provides.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    DimensionError,
    InvalidEta,
    InvalidKappa,
    InvalidPsi,
    NonFiniteData,
    ToleranceNotMet,
    ZeroVector,
)
from .moments import _TINY, AlphaVector, CovMatrix, _binary_scaled, as_vector

# cos(angle) at least this close to 1 counts as collinear with Sigma^-1 alpha.
COLLINEAR_TOL = 1e-10


def _clamp_cos(value: float) -> float:
    """``value`` clamped to [-1, 1]; a nan, which max(-1, nan) makes -1, raises."""
    if np.isnan(value):
        raise NonFiniteData("cosine is nan: a vector has a non-finite entry")
    return float(min(1.0, max(-1.0, value)))


def alpha_angle(alpha, theta) -> float:
    """cos of the angle between alpha and theta, clamped to [-1, 1]; the
    same at every power-of-two scale of either vector."""
    a = as_vector(alpha)
    t = as_vector(theta)
    if a.size != t.size:
        raise DimensionError(f"vector lengths differ: {a.size} vs {t.size}")
    a, na, _ = _binary_scaled(a)
    t, nt, _ = _binary_scaled(t)
    if na == 0.0 or nt == 0.0:
        raise ZeroVector("angle undefined for a zero vector")
    # a finite vector's norm is finite once scaled; refused before the product,
    # which would warn on inf - inf
    if not (math.isfinite(na) and math.isfinite(nt)):
        raise NonFiniteData("angle undefined for a vector with a non-finite entry")
    return _clamp_cos(float(a @ t) / (na * nt))


def alpha_angles(alpha, thetas: np.ndarray) -> np.ndarray:
    """cos of the angle between alpha and each row of ``thetas``, clamped to
    [-1, 1], from one product with alpha and the rows' norms: what
    :func:`alpha_angle` gives for each row, to rounding, and nan where it
    raises (a zero or non-finite row). A row whose squared norm over- or
    underflows is scaled by a power of two first, so each cosine is the same
    at every power-of-two scale of its row."""
    a, na, _ = _binary_scaled(as_vector(alpha))
    with np.errstate(all="ignore"):  # a zero or non-finite row reads nan
        squares = np.add.reduce(thetas * thetas, axis=1)
        norms, dots = np.sqrt(squares), thetas @ a
        if not (squares.min() >= _TINY and squares.max() < math.inf):
            for i in (~((squares >= _TINY) & (squares < math.inf))).nonzero()[0]:
                t, norms[i], _ = _binary_scaled(thetas[i])
                dots[i] = t @ a
        return (dots / (na * norms)).clip(-1.0, 1.0)


def _checked_kappa(kappa: float) -> float:
    """``kappa`` as a float, refused below 1 and rounded up to 1 within 1e-9."""
    kappa = float(kappa)
    if kappa < 1.0 - 1e-9:
        raise InvalidKappa(f"condition number {kappa} below 1")
    return max(kappa, 1.0)


def kantorovich_bound(kappa: float) -> float:
    """Lower bound 2 sqrt(kappa) / (kappa + 1) on cos(phi); 1 iff kappa = 1."""
    kappa = _checked_kappa(kappa)
    return 2.0 * np.sqrt(kappa) / (kappa + 1.0)


def bauer_householder_bound(kappa: float, psi: float) -> tuple[float, float]:
    """Weakened bound for vectors separated by auxiliary angle psi.

    Returns (kappa_psi, bound) with kappa_psi = kappa (1+sin psi)/(1-sin psi).
    psi = 0 reduces to the Kantorovich bound.
    """
    psi = float(psi)
    if not (0.0 <= psi < np.pi / 2.0):
        raise InvalidPsi(f"psi = {psi} outside [0, pi/2)")
    kappa = _checked_kappa(kappa)
    sin_psi = np.sin(psi)
    kappa_psi = kappa * (1.0 + sin_psi) / (1.0 - sin_psi)
    return float(kappa_psi), kantorovich_bound(kappa_psi)


def _unit(v: np.ndarray) -> np.ndarray:
    v, norm, _ = _binary_scaled(v)
    if norm == 0.0:
        raise ZeroVector("angle undefined for a zero vector")
    return v / norm


def smallest_valid_psi(alpha, cov: CovMatrix, theta) -> float:
    """Smallest psi in [0, pi/2) admissible for the pair (alpha, theta).

    That is the angle between x = L^-1 alpha and y = L'theta, here with the
    factor L the covariance holds (:meth:`CovMatrix.whiten`,
    :meth:`CovMatrix.risk_coordinates`). For unit x and y it is
    2 atan2(|x - y|, |x + y|) (Kahan 2006), accurate near psi = 0, where
    arccos of their cosine loses half the digits. A pair whose x and y are
    not acute has none.
    """
    x = _unit(cov.whiten(alpha))
    y = _unit(cov.risk_coordinates(theta))
    if not float(x @ y) > 0.0:
        raise InvalidPsi(
            "transformed vectors are not acute; no admissible psi in [0, pi/2)"
        )
    return float(2.0 * np.arctan2(np.linalg.norm(x - y), np.linalg.norm(x + y)))


@dataclass(frozen=True)
class BoundReport:
    """Realized cosine, applicable bound, and slack for one (Sigma, alpha, theta)."""

    cos_phi: float
    kappa: float
    bound_kantorovich: float
    psi: float | None
    kappa_psi: float | None
    bound_bh: float | None
    slack: float

    to_dict = asdict


def verify_bound(alpha, cov: CovMatrix, theta, psi: float | None = None) -> BoundReport:
    """Audit the realized alpha-weight angle against its applicable bound.

    If theta is collinear with Sigma^-1 alpha the Kantorovich bound applies
    directly. Otherwise the slack is reported against the Bauer-Householder
    bound, using the supplied psi or, when omitted, the smallest admissible
    one for the transformed pair.
    """
    a = as_vector(alpha)
    t = as_vector(theta)
    cos_phi = alpha_angle(a, t)
    kappa = cov.condition_number
    bound_k = kantorovich_bound(kappa)
    unconstrained = abs(alpha_angle(cov.solve(a), t)) >= 1.0 - COLLINEAR_TOL
    kappa_psi = bound_bh = None
    if psi is not None or not unconstrained:
        psi = smallest_valid_psi(a, cov, t) if psi is None else float(psi)
        kappa_psi, bound_bh = bauer_householder_bound(kappa, psi)
    return BoundReport(cos_phi=cos_phi, kappa=kappa, bound_kantorovich=bound_k,
                       psi=psi, kappa_psi=kappa_psi, bound_bh=bound_bh,
                       slack=cos_phi - (bound_k if bound_bh is None else bound_bh))


@dataclass(frozen=True)
class WorstCasePair:
    """An (alpha, theta) pair attaining its spectral lower bound."""

    alpha: AlphaVector
    theta: np.ndarray
    achieved_cos: float
    eta: float | None = None


def worst_case_unconstrained(cov: CovMatrix) -> WorstCasePair:
    """Pair attaining the Kantorovich bound: the constrained pair at eta = 1.

    alpha = sqrt(rho_1) q_1 + sqrt(rho_n) q_n and
    theta = q_1 / sqrt(rho_1) + q_n / sqrt(rho_n) give
    cos(phi) = 2 sqrt(kappa) / (kappa + 1) exactly, with theta = Sigma^-1 alpha.
    Signs are fixed to (+, +). A flat spectrum collapses the pair to a common
    direction with cos = 1.
    """
    return replace(worst_case_constrained(cov, 1.0), eta=None)


def worst_case_constrained(cov: CovMatrix, eta: float) -> WorstCasePair:
    """Pair attaining the Bauer-Householder bound at stretch factor eta >= 1.

    With eta = (1 + sin psi) / (1 - sin psi), the pair
    alpha = sqrt(eta rho_1) q_1 + sqrt(rho_n) q_n,
    theta = q_1 / sqrt(eta rho_1) + q_n / sqrt(rho_n)
    achieves cos = 2 sqrt(eta kappa) / (eta kappa + 1). eta = 1 reduces to the
    unconstrained construction.
    """
    eta = float(eta)
    if eta < 1.0 - 1e-12:
        raise InvalidEta(f"eta = {eta} below 1")
    eta = max(eta, 1.0)
    rho, vecs = cov.eigenpairs
    q1 = vecs[:, 0]
    qn = vecs[:, -1]
    alpha = np.sqrt(eta * rho[0]) * q1 + np.sqrt(rho[-1]) * qn
    theta = q1 / np.sqrt(eta * rho[0]) + qn / np.sqrt(rho[-1])
    return WorstCasePair(
        alpha=AlphaVector(alpha),
        theta=theta,
        achieved_cos=alpha_angle(alpha, theta),
        eta=eta,
    )


def minimax_degeneracy(cov: CovMatrix) -> float:
    """Best achievable cos(phi) for this spectrum: sqrt(rho_1 rho_n) / mean.

    Algebraically identical to kantorovich_bound(kappa); the identity is
    checked defensively.
    """
    rho = cov.eigenvalues
    value = float(np.sqrt(rho[0] * rho[-1]) / (0.5 * (rho[0] + rho[-1])))
    reference = kantorovich_bound(cov.condition_number)
    if abs(value - reference) > 1e-12:
        raise ToleranceNotMet(
            f"minimax degeneracy {value!r} and Kantorovich bound {reference!r} "
            "disagree beyond 1e-12"
        )
    return value


@dataclass(frozen=True)
class AngleDecomposition:
    """Angle of a two-fund mix split across its GMV and risky components."""

    cos_phi: float
    phi0: float
    phi1: float
    residual: float


def angle_decomposition(
    alpha, theta0, theta_alpha, g0: float, w: float
) -> AngleDecomposition:
    """Decompose the angle of theta = (g0 - w) theta_0 + w theta_alpha.

    The identity
        cos(phi) = (g0-w)(|theta_0|/|theta|) cos(phi_0)
                 + w (|theta_alpha|/|theta|) cos(phi_1)
    holds exactly; the residual is reported and required below 1e-10.
    """
    a = as_vector(alpha)
    t0 = as_vector(theta0)
    ta = as_vector(theta_alpha)
    theta = (g0 - w) * t0 + w * ta
    # each norm scaled by a power of two where its square would over- or underflow
    _, norm_t, e_t = _binary_scaled(theta)
    if norm_t == 0.0:
        raise ZeroVector("mixed portfolio has zero length")
    cos_phi = alpha_angle(a, theta)
    cos0 = alpha_angle(a, t0)
    cos1 = alpha_angle(a, ta)
    (_, norm0, e0), (_, norm1, e1) = _binary_scaled(t0), _binary_scaled(ta)
    recomposed = ((g0 - w) * math.ldexp(norm0 / norm_t, e0 - e_t) * cos0
                  + w * math.ldexp(norm1 / norm_t, e1 - e_t) * cos1)
    residual = abs(cos_phi - float(recomposed))
    if residual >= 1e-10:
        raise ToleranceNotMet(f"angle decomposition residual {residual:g} >= 1e-10")
    return AngleDecomposition(
        cos_phi=cos_phi,
        phi0=float(np.arccos(_clamp_cos(cos0))),
        phi1=float(np.arccos(_clamp_cos(cos1))),
        residual=residual,
    )
