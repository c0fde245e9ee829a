"""
Mean-variance optimization under a quadratic diversity constraint.

The problem is

    max  alpha'theta - (gamma/2) theta'Sigma theta
    s.t. 1'theta = g0   and   theta'theta = 1/n0,

where n0 is the required effective number of bets. Feasibility needs
g0^2/n <= 1/n0 (the gearing hyperplane's closest point to the origin is
g0 e with |g0 e|^2 = g0^2/n); at equality the feasible set is the single
point g0 e.

Eliminating the hyperplane with an orthonormal basis Z of the complement
of 1 (theta = g0 e + Z u) turns the problem into a trust-region subproblem
on the sphere |u| = Delta, Delta^2 = 1/n0 - g0^2/n:

    min  (1/2) u'H u - b'u,   H = gamma Z'Sigma Z,
                              b = Z'(alpha - gamma g0 Sigma e).

Z is columns 2..n of the Householder reflector P = I - beta v v',
v = 1 + sqrt(n) e_1, which maps 1 onto -sqrt(n) e_1, so Z'Sigma Z =
(P Sigma P)[1:, 1:] is a rank-2 update of Sigma. The stationarity system
(H + nu I) u = b admits a unique root of |u(nu)| = Delta on the branch
nu > -lambda_min(H), and by trust-region optimality that root is the global
maximizer. Newton's method on 1/|u(nu)| - 1/Delta finds it from just right
of the pole (More & Sorensen 1983, "Computing a trust region step"):
1/|u(nu)| is a -2 power mean of the terms nu + d_i, so it is concave and
increasing there and the iterates rise monotonically to the root. The
classical hard case (b orthogonal to the bottom eigenspace) is handled by
adding a bottom-eigenvector component, and so is a root within rounding of
the pole, where nu no longer places that component on the sphere.

Multiplier convention: the reported lambda1 comes from differentiating the
Lagrangian literally, so stationarity reads

    -alpha + gamma Sigma theta - 2 lambda1 theta - lambda2 1 = 0,

which maps to the ridge form (nu I + gamma Sigma) theta = alpha + lambda2 1
via nu = -2 lambda1; nu is surfaced in the diagnostics as ``ridge_shift``.

QOQC is a table program like the closed forms: ``solvers.PROGRAMS`` runs it
through ``solvers.solve_QOQC``, which wraps :func:`solve_qoqc`'s weights and
multipliers in the shared Portfolio record. ``solvers`` imports this module,
so this module imports nothing from ``solvers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, Infeasible, NonFiniteData, ToleranceNotMet
from .moments import CovMatrix, _require_finite, _require_positive, as_vector

# Stated solution tolerances.
SPHERE_TOL = 1e-8
GEARING_TOL = 1e-10
STATIONARITY_TOL = 1e-8
# Squared sphere radius 1/n0 - g0^2/n at or below which only g0 e is feasible.
BOUNDARY_TOL = 1e-14
# Outer root: Newton step cap.
ROOT_MAXITER = 200


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
        if self.g0**2 / n > 1.0 / self.n0 + 1e-12:
            raise Infeasible(
                f"g0^2/n = {self.g0**2 / n:g} exceeds 1/n0 = {1.0 / self.n0:g}; "
                "no vector with that gearing fits the diversity sphere"
            )

    @property
    def dim(self) -> int:
        return self.cov.dim

    def objective(self, theta: np.ndarray) -> float:
        return float(self.alpha @ theta - 0.5 * self.gamma * self.cov.quad(theta))


@dataclass(frozen=True)
class QoqcSolution:
    """Solution with multipliers, objective, and KKT residual."""

    weights: np.ndarray
    lambda1: float
    lambda2: float
    objective: float
    kkt_residual: float
    diagnostics: dict = field(default_factory=dict)


def on_boundary(n: int, g0: float, n0: float) -> bool:
    """Whether 1/n0 - g0^2/n <= 1e-14: the feasible set is the single point g0 e."""
    return 1.0 / n0 - g0**2 / n <= BOUNDARY_TOL


def stationarity_residual(alpha, cov: CovMatrix, gamma, theta, lam1, lam2) -> float:
    """Max-norm of the Lagrangian gradient at theta with multipliers (lam1, lam2)."""
    grad = (-alpha + gamma * (cov.entries @ theta) - 2.0 * lam1 * theta
            - lam2 * np.ones(theta.size))
    return float(np.abs(grad).max())


def _boundary_solution(problem: QoqcProblem) -> QoqcSolution:
    # Unique feasible point; constraint gradients are parallel there, so the
    # multipliers are least-squares certificates only.
    n = problem.dim
    theta = problem.g0 * np.ones(n) / n
    rhs = problem.gamma * (problem.cov.entries @ theta) - problem.alpha
    basis = np.column_stack([2.0 * theta, np.ones(n)])
    sol, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
    lam1, lam2 = float(sol[0]), float(sol[1])
    return QoqcSolution(
        weights=theta,
        lambda1=lam1,
        lambda2=lam2,
        objective=problem.objective(theta),
        kkt_residual=stationarity_residual(problem.alpha, problem.cov, problem.gamma,
                                           theta, lam1, lam2),
        diagnostics={"boundary": True, "hard_case": False},
    )


def solve_qoqc(problem: QoqcProblem) -> QoqcSolution:
    """Solve the diversity-constrained program to its stated tolerances."""
    n = problem.dim
    if on_boundary(n, problem.g0, problem.n0):
        return _boundary_solution(problem)
    delta2 = 1.0 / problem.n0 - problem.g0**2 / n
    delta = float(np.sqrt(delta2))

    e = np.ones(n) / n
    # Z = columns 2..n of P = I - beta v v'; entries 2..n of v are ones, so
    # Z'x = x[1:] - beta (v'x) 1 and P Sigma P = Sigma - v w' - w v'.
    v = np.ones(n)
    v[0] += np.sqrt(n)
    beta = 2.0 / float(v @ v)
    sigma = problem.cov.entries
    w = beta * (sigma @ v)
    w -= (0.5 * beta * float(v @ w)) * v
    reduced_h = problem.gamma * (sigma[1:, 1:] - w[1:, None] - w[None, 1:])
    reduced_h = 0.5 * (reduced_h + reduced_h.T)
    r = problem.alpha - problem.gamma * problem.g0 * (sigma @ e)
    b = r[1:] - beta * float(v @ r)
    d, u_vecs = np.linalg.eigh(reduced_h)
    bt = u_vecs.T @ b

    scale = max(1.0, float(np.abs(d).max()))
    lo = -d[0] + 1e-13 * scale
    diagnostics: dict = {"boundary": False}

    if float(np.sum((bt / (d + lo)) ** 2)) <= delta2:
        # Hard case: no pole at -lambda_min; fill the radius along the bottom
        # eigenvector (objective is invariant to its sign; + is fixed).
        nu = -float(d[0])
        gap = d - d[0] > 1e-12 * scale
        u_reg = np.zeros_like(bt)
        u_reg[gap] = bt[gap] / (d[gap] + nu)
        tau = float(np.sqrt(max(delta2 - float(u_reg @ u_reg), 0.0)))
        u_red = u_reg.copy()
        u_red[0] += tau
        u = u_vecs @ u_red
        diagnostics["hard_case"] = True
    else:
        # Newton on 1/|u(nu)| - 1/Delta from lo, left of the root; each step
        # is (|u|/Delta - 1) |u|^2 / sum(u_i^2 / (d_i + nu)) > 0.
        nu, iterations, step = float(lo), 0, np.inf
        while step > np.finfo(float).eps * max(1.0, abs(nu)):
            u_red = bt / (d + nu)
            norm2 = float(u_red @ u_red)
            if norm2 <= delta2:
                break
            if iterations == ROOT_MAXITER:
                raise ToleranceNotMet(
                    f"outer root search took {ROOT_MAXITER} Newton steps without "
                    f"converging (nu = {nu:g}, |u|^2 - Delta^2 = {norm2 - delta2:g})"
                )
            step = float((np.sqrt(norm2) / delta - 1.0) * norm2
                         / (u_red @ (u_red / (d + nu))))
            nu += step
            iterations += 1
        u_red = bt / (d + nu)
        tail = float(u_red[1:] @ u_red[1:])
        if abs(float(u_red @ u_red) / delta2 - 1.0) > 1e-12 and tail < delta2:
            # nu next to the pole is fixed only to eps |nu|: fill the radius
            # along the bottom eigenvector, as the hard case does
            u_red[0] = np.copysign(np.sqrt(delta2 - tail), bt[0])
        u = u_vecs @ u_red
        diagnostics["hard_case"] = False
        diagnostics["iterations"] = iterations

    # Polish onto the sphere exactly (direction is unchanged, u is 1-orthogonal).
    norm_u = float(np.linalg.norm(u))
    if norm_u > 0.0:
        u *= delta / norm_u
    theta = problem.g0 * e - (beta * float(u.sum())) * v  # g0 e + Z u
    theta[1:] += u

    lam1 = -nu / 2.0
    lam2 = float(np.ones(n) @ (-problem.alpha + problem.gamma * (sigma @ theta)
                               + nu * theta) / n)
    residual = stationarity_residual(problem.alpha, problem.cov, problem.gamma,
                                     theta, lam1, lam2)
    sphere_err = abs(float(theta @ theta) - 1.0 / problem.n0)
    gearing_err = abs(float(theta.sum()) - problem.g0)
    if not (sphere_err <= SPHERE_TOL and gearing_err <= GEARING_TOL):
        raise ToleranceNotMet(
            f"constraint residuals too large: |theta'theta - 1/n0| = {sphere_err:g}, "
            f"|1'theta - g0| = {gearing_err:g}"
        )
    if not residual <= STATIONARITY_TOL:
        raise ToleranceNotMet(f"stationarity residual {residual:g} > {STATIONARITY_TOL:g}")
    diagnostics["ridge_shift"] = float(nu)
    return QoqcSolution(
        weights=theta,
        lambda1=lam1,
        lambda2=lam2,
        objective=problem.objective(theta),
        kkt_residual=residual,
        diagnostics=diagnostics,
    )

