"""
Mean-variance optimization under a quadratic diversity constraint.

The problem is

    max  alpha'theta - (gamma/2) theta'Sigma theta
    s.t. 1'theta = g0   and   theta'theta = 1/n0,

where n0 is the required effective number of bets. Feasibility needs
g0^2/n <= 1/n0 (the gearing hyperplane's closest point to the origin is
g0 e with |g0 e|^2 = g0^2/n); at equality the feasible set is the single
point g0 e.

With theta = g0 e + x, x in the complement of 1, the problem is a
trust-region subproblem on the sphere |x| = Delta, Delta^2 = 1/n0 - g0^2/n:

    min  (1/2) x'(gamma Sigma) x - r'x,   r = alpha - gamma g0 Sigma e,

restricted to 1'x = 0. It is solved in the eigenbasis Sigma = V diag(rho) V'
that the covariance already holds, so no matrix is decomposed here. With
c = V'1, a = V'r = V'alpha - (g0/n) d*c and d = gamma rho ascending, the
stationarity system (gamma Sigma + nu I) x = r + mu 1, 1'x = 0, reads
(D + nu I) y = a + mu c, c'y = 0 for y = V'x. The multiplier takes any part
of a along c, so a is first projected on the complement of c, as the
reduced term Z'r would be. For m = d + nu,

    t = (c_1 a_1 + m_1 S_a) / (c_1^2 + m_1 S_c),
    y_1 = (a_1 S_c - c_1 S_a) / (c_1^2 + m_1 S_c),   y_j = (a_j - c_j t) / m_j,

with S_a = sum_{i>1} c_i a_i / m_i and S_c = sum_{i>1} c_i^2 / m_i. This is
the resolvent of H = gamma Sigma projected on the complement of 1, written
so that nothing cancels as m_1 passes through 0 (-d_1 is no pole of H); it
costs O(n) per nu. H's spectrum is the roots of Golub's secular equation
sum_i c_i^2 / (d_i - lambda) = 0 (Golub 1973, "Some modified matrix
eigenvalue problems"), which interlace the d_i, and the admissible branch
is nu > -h_1 for the smallest root h_1 in (d_1, d_2) (Gander, Golub & von
Matt 1989, "A constrained eigenvalue problem"). h_1 comes from a rational
model of the secular function, exact in its pole at d_1 and matching the
rest in value and slope with a pole at d_2 (Bunch, Nielsen & Sorensen 1978,
"Rank-one modification of the symmetric eigenproblem"); its iterates rise
monotonically and converge quadratically from d_1. Within (h_1 - d_1)/2 of
the pole, c_1^2 + m_1 S_c cancels, so there the resolvent is taken apart
along H's bottom eigenvector w = (D - h_1 I)^-1 c instead: (w'a / s) w at
distance s from the pole, and a rest whose two sums over c are taken less
their value at the pole, which leaves sums of positive terms.

Deflation follows Bunch, Nielsen & Sorensen: an eigenvector with
|c_i| <= 8 eps sqrt(n) already lies in the complement of 1 and is an
eigenpair (d_i, V e_i) of H, and equal d_i at the bottom are rotated so
that one c component carries their weight. The bottom of H is then either
such a deflated pair or h_1 with eigenvector w.

The system admits a unique root of |y(nu)| = Delta right of the bottom's
pole, and by trust-region optimality that root is the global maximizer.
Newton's method on 1/|y(nu)| - 1/Delta finds it from a point left of it
(More & Sorensen 1983, "Computing a trust region step"): 1/|y(nu)| is a -2
power mean of the terms nu + h_i, so it is concave and increasing there and
the iterates rise monotonically to the root. Its derivative is
y'(H + nu I)^-1 y, the same resolvent applied to y. It starts just right of
the pole, or at a larger lower bound on the root when the bottom term or
the whole of a alone overfills the sphere. The classical hard case (r
orthogonal to the bottom eigenvector) is handled by adding a
bottom-eigenvector component to the pseudo-inverse solution at nu = -h_1,
and so is a root within rounding of the pole, where nu no longer places
that component on the sphere. theta = g0 e + V y is one matrix-vector
product.

Multiplier convention: the reported lambda1 comes from differentiating the
Lagrangian literally, so stationarity reads

    -alpha + gamma Sigma theta - 2 lambda1 theta - lambda2 1 = 0,

which maps to the ridge form (nu I + gamma Sigma) theta = alpha + lambda2 1
via nu = -2 lambda1; nu is surfaced in the diagnostics as ``ridge_shift``.

QOQC is a table program like the closed forms: ``solvers.solve`` runs it
through its ``solvers.PROGRAMS`` entry, whose solver passes :func:`solve_qoqc`'s
weights and multipliers on to the shared Portfolio record. The tolerances
stated here are the sphere's and the gearing's only; the stationarity above
is certified, relative to the data, by that entry (``solvers._certificate``),
before the record is written and again by ``verify``. ``solvers`` imports
this module, so this module imports nothing from ``solvers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, Infeasible, NonFiniteData, ToleranceNotMet
from .moments import CovMatrix, _require_finite, _require_positive, as_vector

# Stated constraint tolerances.
SPHERE_TOL = 1e-8
GEARING_TOL = 1e-10
# Squared sphere radius 1/n0 - g0^2/n at or below which only g0 e is feasible.
BOUNDARY_TOL = 1e-14
# Outer root: Newton step cap.
ROOT_MAXITER = 200
# Smallest secular root: step cap of its quadratically convergent iteration.
SECULAR_MAXITER = 50
EPS = np.finfo(float).eps
# Deflation tolerance, in units of the largest d (clusters) or of sqrt(n) (c).
DEFLATION_TOL = 8.0 * EPS
# The largest gamma rho whose square, which the secular equation forms, is finite.
ROOT_MAX = math.sqrt(np.finfo(float).max)
# Below this largest gamma rho the secular root and the bottom eigenvector are
# formed on d scaled by a power of two to [1/2, 1): the reciprocals of its
# gaps, and their squares, would leave the float range.
SECULAR_MIN = 2.0 ** -64


@dataclass(frozen=True)
class QoqcProblem:
    """Diversity-constrained mean-variance problem instance."""

    alpha: np.ndarray
    cov: CovMatrix
    gamma: float
    g0: float
    n0: float

    def __post_init__(self):
        a = as_vector(self.alpha)
        if a.size != self.cov.dim:
            raise DimensionError(
                f"alpha length {a.size} != covariance dim {self.cov.dim}"
            )
        if not np.isfinite(a).all():
            raise NonFiniteData("alpha has a non-finite entry")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "gamma", _require_positive("gamma", self.gamma))
        object.__setattr__(self, "g0", _require_finite("g0", self.g0))
        object.__setattr__(self, "n0", float(self.n0))
        n = self.cov.dim
        if not 1.0 <= self.n0 <= n:
            raise Infeasible(f"n0 = {self.n0} outside [1, n = {n}]")
        # g0 * g0 is inf past the float range, where g0**2 raises OverflowError
        if self.g0 * self.g0 / n > 1.0 / self.n0 + 1e-12:
            raise Infeasible(
                f"g0^2/n = {self.g0 * self.g0 / n:g} exceeds 1/n0 = {1.0 / self.n0:g}; "
                "no vector with that gearing fits the diversity sphere"
            )

    @property
    def dim(self) -> int:
        return self.cov.dim


@dataclass(frozen=True)
class QoqcSolution:
    """Solution with its multipliers."""

    weights: np.ndarray
    lambda1: float
    lambda2: float
    diagnostics: dict = field(default_factory=dict)


def on_boundary(n: int, g0: float, n0: float) -> bool:
    """Whether 1/n0 - g0^2/n <= 1e-14: the feasible set is the single point g0 e."""
    return 1.0 / n0 - g0 * g0 / n <= BOUNDARY_TOL


def _boundary_solution(problem: QoqcProblem) -> QoqcSolution:
    # Unique feasible point; constraint gradients are parallel there, so the
    # multipliers are least-squares certificates only.
    n = problem.dim
    theta = problem.g0 * np.ones(n) / n
    with np.errstate(all="ignore"):
        rhs = problem.gamma * (problem.cov.entries @ theta) - problem.alpha
    if not np.isfinite(rhs).all():
        raise NonFiniteData("gamma Sigma theta overflows at the boundary point g0 e")
    basis = np.column_stack([2.0 * theta, np.ones(n)])
    sol, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    return QoqcSolution(
        weights=theta,
        lambda1=float(sol[0]),
        lambda2=float(sol[1]),
        diagnostics={"boundary": True, "hard_case": False},
    )


def _deflate(d: np.ndarray, c: np.ndarray, a: np.ndarray) -> tuple[int, list]:
    """Zero the c_i that are rounding, and rotate the bottom cluster of equal
    d_i so that one entry carries its c weight; in place.

    Returns the pivot, the smallest index whose c is kept, and the Givens
    rotations (i, j, cos, sin) applied, which map y to G y entrywise as
    (cos y_i - sin y_j, sin y_i + cos y_j). A rotation drops the off-diagonal
    entry cos sin (d_j - d_i) that it creates, so it is taken only while that
    entry is at most DEFLATION_TOL d_max (as LAPACK's dlaed2 does).
    """
    small = np.abs(c) <= DEFLATION_TOL * math.sqrt(c.size)
    if small.any():
        c[small] = 0.0
    kept = [i for i, ci in enumerate(c.tolist()) if ci != 0.0]
    k, rotations = kept[0], []
    for j in kept[1:]:
        r = math.hypot(c[k], c[j])
        cos, sin = c[j] / r, c[k] / r
        if not abs(cos * sin * (d[j] - d[k])) <= DEFLATION_TOL * d[-1]:
            break
        d[k], d[j] = cos * cos * d[k] + sin * sin * d[j], sin * sin * d[k] + cos * cos * d[j]
        a[k], a[j] = cos * a[k] - sin * a[j], sin * a[k] + cos * a[j]
        c[k], c[j] = 0.0, r
        rotations.append((k, j, cos, sin))
        k = j
    return k, rotations


def _secular_bottom(ck2: float, c2: np.ndarray, gaps: np.ndarray) -> float:
    """The smallest root tau in (0, min gaps) of -ck2/tau + sum c2/(gaps - tau).

    Each step solves the model -ck2/tau + r + s/(g - tau), g = min gaps, whose
    r and s match the sum's value and slope at the current tau. The model
    lies above the secular function (each term 1/(gaps_i - tau) is matched by
    one with the nearer pole g, which exceeds it by a square), so from tau = 0
    its roots rise monotonically to the root, quadratically.
    """
    g = float(gaps.min())
    excess = c2 * (gaps - g)
    tau = 0.0
    for _ in range(SECULAR_MAXITER):
        inv2 = np.reciprocal(gaps - tau)
        inv2 *= inv2
        s = (g - tau) ** 2 * float(c2.dot(inv2))
        r = float(excess.dot(inv2))
        b = ck2 + r * g + s
        new = 2.0 * ck2 * g / (b + math.sqrt(max(b * b - 4.0 * r * ck2 * g, 0.0)))
        if not new > tau:
            return tau
        tau, step = new, new - tau
        if step <= 2.0 * EPS * tau:
            return tau
    raise ToleranceNotMet(
        f"smallest secular root took {SECULAR_MAXITER} steps without converging "
        f"(tau = {tau:g})"
    )


def _pivot_resolvent(rest: np.ndarray, ck: float, k: int, m: np.ndarray):
    """v -> y, the solution of (D + nu I) y = v + mu c with c'y = 0, for
    m = d + nu (overwritten) and pivot k: ``rest`` is c with entry k zeroed.

    Entry k is (v_k S_c - c_k S_a) / (c_k^2 + m_k S_c) and every other entry
    (v_j - c_j t) / m_j, so nothing cancels as m_k passes through 0. The
    denominator is positive right of the smallest secular root, and a sum of
    non-negative terms once m_k >= 0.
    """
    mk = float(m[k])
    m[k] = 1.0
    inv = np.reciprocal(m, out=m)
    weights = rest * inv
    s_c = float(weights.dot(rest))
    den = ck * ck + mk * s_c

    def apply(v: np.ndarray) -> np.ndarray:
        s_a = float(weights.dot(v))
        y = rest * (-(ck * v[k] + mk * s_a) / den)
        y += v
        y *= inv
        y[k] = (v[k] * s_c - ck * s_a) / den
        return y

    return apply


def _pole_resolvent(c: np.ndarray, gaps: np.ndarray, bottom: np.ndarray, s: float):
    """The map of :func:`_pivot_resolvent` at distance s right of the pole
    nu = -h_1, for gaps = d - h_1 and H's unit bottom eigenvector ``bottom``:
    (bottom'v / s) bottom plus the solution for the rest of v, whose
    multiplier is t = sum c_i v_i / (m_i gaps_i) / sum c_i^2 / (m_i gaps_i),
    m = gaps + s.

    For v with no bottom component, c'(D + nu I)^-1 v and c'(D + nu I)^-1 c
    both vanish at the pole; less that value and divided by -s they are
    these two sums, so near the pole nothing cancels: while nu < -d_k every
    term of the second is positive. At s = 0 the bottom term is dropped,
    which leaves the pseudo-inverse solution.
    """
    m = gaps + s
    scaled = c / (m * gaps)
    total = float(scaled.dot(c))

    def apply(v: np.ndarray) -> np.ndarray:
        along = float(bottom.dot(v))
        rest = v - along * bottom
        y = (rest - c * (float(scaled.dot(rest)) / total)) / m
        if s > 0.0:
            y += (along / s) * bottom
        return y

    return apply


def solve_qoqc(problem: QoqcProblem) -> QoqcSolution:
    """Solve the diversity-constrained program to its sphere and gearing tolerances."""
    n = problem.dim
    if on_boundary(n, problem.g0, problem.n0):
        return _boundary_solution(problem)
    delta2 = 1.0 / problem.n0 - problem.g0**2 / n
    delta = float(np.sqrt(delta2))

    # Sigma's eigenpairs in ascending order: d = gamma rho, c = V'1, a = V'r.
    rho, vecs = problem.cov.eigenpairs
    top = problem.gamma * float(rho[0])  # a Python float overflows unwarned
    if not top <= ROOT_MAX:
        raise NonFiniteData(f"gamma rho_max = {top:g} squares past the float range")
    d = problem.gamma * rho[::-1]
    c = vecs.sum(axis=0)[::-1]
    a = (problem.alpha @ vecs)[::-1] - (problem.g0 / n) * d * c
    k, rotations = _deflate(d, c, a)
    # The solution depends on a only through its part orthogonal to c (the
    # multiplier takes the rest), and rounding in entries with small m scales
    # with what is left: drop the rest, as b = Z'r would.
    a -= (float(c.dot(a)) / float(c.dot(c))) * c
    ck = float(c[k])
    rest = c.copy()
    rest[k] = 0.0
    kept = rest != 0.0
    # tau scales with d and the bottom eigenvector not at all, so both are
    # formed on d times 2^shift, exactly
    shift = 0 if d[-1] >= SECULAR_MIN else -math.frexp(d[-1])[1]
    tau = (math.ldexp(_secular_bottom(ck * ck, rest[kept] ** 2,
                                      np.ldexp(d[kept] - d[k], shift)), -shift)
           if kept.any() else np.inf)
    # The bottom of H, h: the smallest deflated d_o, whose eigenvector is e_o,
    # or h_1 = d_k + tau, whose eigenvector is (D - h_1 I)^-1 c. Newton runs
    # in s = nu + h, the distance right of the pole.
    free = np.flatnonzero(c == 0.0)
    o = int(free[np.argmin(d[free])]) if free.size else k
    secular = not (free.size and d[o] <= d[k] + tau)
    if secular:
        gaps = (d - d[k]) - tau
        bottom = c / np.ldexp(gaps, shift)
        bottom /= math.sqrt(float(bottom.dot(bottom)))
        h = float(d[k]) + tau
    else:
        gaps = d - d[o]
        bottom = np.zeros(n)
        bottom[o] = 1.0
        h = float(d[o])

    def resolvent(s: float, gaps: np.ndarray = gaps):
        if secular and s < 0.5 * tau:
            return _pole_resolvent(c, gaps, bottom, s)
        return _pivot_resolvent(rest, ck, k, gaps + s)

    scale = max(1.0, float(d[-1]))
    # Newton starts just right of the pole, or at a larger lower bound on the
    # root: |y(s)| is at least |bottom'a| / s, and at least |a| / (s + d_n - h)
    # (a is in the complement of c, and H's top eigenvalue is at most d_n).
    near = 1e-13 * scale
    s = max(near, abs(float(bottom.dot(a))) / delta,
            math.sqrt(float(a.dot(a))) / delta - (float(d[-1]) - h))
    resolve = resolvent(s)
    y = resolve(a)
    diagnostics: dict = {"boundary": False}

    if s == near and float(y @ y) <= delta2:
        # Hard case: no pole at -h; take the pseudo-inverse solution at the
        # pole, which drops every eigenvector of H there, and fill the radius
        # along the bottom eigenvector, on the side of a's rounding-level
        # component there (+ if it is 0, where the objective is invariant to
        # the side).
        s = 0.0
        at_pole = (c == 0.0) & (np.abs(gaps) <= 1e-12 * scale)
        with np.errstate(all="ignore"):  # refused below if past the float range
            y = resolvent(0.0, np.where(at_pole, 1.0, gaps))(np.where(at_pole, 0.0, a))
            # that solution is orthogonal to the bottom eigenvector, but formed
            # next to a secular pole it keeps rounding along it, amplified
            y -= float(bottom @ y) * bottom
            fill2 = delta2 - float(y @ y)
        if not math.isfinite(fill2):
            raise ToleranceNotMet(f"the solution at the pole nu = {-h:g} is not finite: "
                                  f"the root may lie within {near:g} of it, left of Newton")
        y += math.copysign(math.sqrt(max(fill2, 0.0)), bottom @ a) * bottom
        diagnostics["hard_case"] = True
    else:
        # Newton on 1/|y(nu)| - 1/Delta from left of the root; each step is
        # (|y|/Delta - 1) |y|^2 / y'(H + nu I)^-1 y > 0.
        iterations, step = 0, np.inf
        while step > EPS * max(1.0, abs(s - h)):
            norm2 = float(y.dot(y))
            if norm2 <= delta2:
                break
            if iterations == ROOT_MAXITER:
                raise ToleranceNotMet(
                    f"outer root search took {ROOT_MAXITER} Newton steps without "
                    f"converging (nu = {s - h:g}, |u|^2 - Delta^2 = {norm2 - delta2:g})"
                )
            step = (math.sqrt(norm2) / delta - 1.0) * norm2 / float(y.dot(resolve(y)))
            s += step
            iterations += 1
            resolve = resolvent(s)
            y = resolve(a)
        if abs(float(y @ y) / delta2 - 1.0) > 1e-12:
            tail = y - float(bottom @ y) * bottom
            tail2 = float(tail @ tail)
            if tail2 < delta2:
                # nu next to the pole is fixed only to eps |nu|: fill the
                # radius along the bottom eigenvector, as the hard case does
                y = tail + math.copysign(math.sqrt(delta2 - tail2), bottom @ a) * bottom
        diagnostics["hard_case"] = False
        diagnostics["iterations"] = iterations

    for i, j, cos, sin in reversed(rotations):
        y[i], y[j] = cos * y[i] + sin * y[j], cos * y[j] - sin * y[i]
    # Polish onto the sphere exactly (direction is unchanged, y is c-orthogonal).
    norm_y = float(np.linalg.norm(y))
    if norm_y > 0.0:
        y *= delta / norm_y
    theta = vecs @ y[::-1] + problem.g0 / n  # g0 e + V y
    nu = s - h

    sphere_err = abs(float(theta @ theta) - 1.0 / problem.n0)
    gearing_err = abs(float(theta.sum()) - problem.g0)
    if not (sphere_err <= SPHERE_TOL and gearing_err <= GEARING_TOL):
        raise ToleranceNotMet(
            f"constraint residuals too large: |theta'theta - 1/n0| = {sphere_err:g}, "
            f"|1'theta - g0| = {gearing_err:g}"
        )
    diagnostics["ridge_shift"] = float(nu)
    return QoqcSolution(
        weights=theta,
        lambda1=-nu / 2.0,
        lambda2=float(np.mean(-problem.alpha + problem.gamma * (problem.cov.entries @ theta)
                              + nu * theta)),
        diagnostics=diagnostics,
    )
