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

    kappa_psi = kappa (1 + sin psi) / (1 - sin psi) = kappa ((1 + sin psi) / cos psi)^2,
    cos(phi) >= 2 sqrt(kappa_psi) / (kappa_psi + 1),

valid for any auxiliary angle psi in [0, pi/2) no smaller than the angle
between the transformed pair x = L^-1 alpha, y = L'theta, for any factor
Sigma = L L'. L = Sigma^1/2 is the paper's choice, but x'y = alpha'theta,
|x|^2 = alpha'Sigma^-1 alpha and |y|^2 = theta'Sigma theta whatever L, so
the angle is the same. With x and y scaled to unit length it is
2 atan2(|x - y|, |x + y|), which keeps its digits near psi = 0.
Both bounds are attained, by pairs built from the eigenvectors of rho_1
and rho_n.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidKappa,
    InvalidPsi,
    NonFiniteData,
    ZeroVector,
)
from .moments import _TINY, CovMatrix, _binary_scaled, as_vector

# cos(angle) at least this close to 1 counts as collinear with Sigma^-1 alpha.
COLLINEAR_TOL = 1e-10


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
    # which would warn on inf - inf, so the cosine is never nan
    if not (math.isfinite(na) and math.isfinite(nt)):
        raise NonFiniteData("angle undefined for a vector with a non-finite entry")
    return min(1.0, max(-1.0, float(a @ t) / (na * nt)))


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

    Returns (kappa_psi, bound), kappa_psi = kappa ((1+sin psi)/cos psi)^2: unlike
    1 - sin psi, cos psi keeps its digits next to pi/2. psi = 0 gives Kantorovich's.
    """
    psi = float(psi)
    if not (0.0 <= psi < np.pi / 2.0):
        raise InvalidPsi(f"psi = {psi} outside [0, pi/2)")
    kappa = _checked_kappa(kappa)
    kappa_psi = kappa * ((1.0 + math.sin(psi)) / math.cos(psi)) ** 2
    return kappa_psi, kantorovich_bound(kappa_psi)


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
    arccos of their cosine loses half the digits. An alpha or theta whose
    squared norm leaves the float range is first scaled by a power of two,
    which leaves psi as it is, so that neither product overflows. A pair
    whose x and y are not acute has none.
    """
    x = _unit(cov.whiten(_binary_scaled(as_vector(alpha))[0]))
    y = _unit(cov.risk_coordinates(_binary_scaled(as_vector(theta))[0]))
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
    one for the transformed pair. Below that one (by more than a few ulps)
    the bound need not hold, and a supplied psi raises InvalidPsi, unless
    theta is collinear, where every psi bounds no higher than Kantorovich.
    """
    a = as_vector(alpha)
    t = as_vector(theta)
    cos_phi = alpha_angle(a, t)
    kappa = cov.condition_number
    bound_k = kantorovich_bound(kappa)
    unconstrained = abs(alpha_angle(cov.solve(a), t)) >= 1.0 - COLLINEAR_TOL
    kappa_psi = bound_bh = None
    if psi is not None or not unconstrained:
        smallest = smallest_valid_psi(a, cov, t)
        psi = smallest if psi is None else float(psi)
        if not unconstrained and psi < smallest - 4.0 * math.ulp(smallest):
            raise InvalidPsi(f"psi = {psi!r} below the smallest admissible angle {smallest!r}")
        kappa_psi, bound_bh = bauer_householder_bound(kappa, psi)
    return BoundReport(cos_phi=cos_phi, kappa=kappa, bound_kantorovich=bound_k,
                       psi=psi, kappa_psi=kappa_psi, bound_bh=bound_bh,
                       slack=cos_phi - (bound_k if bound_bh is None else bound_bh))
