"""Shared instance generators and the exact worked micro-instance."""

import warnings
from dataclasses import dataclass, replace

import mpmath
import numpy as np
import pytest

from mvgear import (AlphaVector, CovMatrix, SpdRepairWarning, alpha_angle, estimate_moments,
                    load_returns_csv)

# Five periods engineered so the sample moments are exactly
# alpha = (0.1, 0.2) and Sigma = I (unbiased, T-1 denominator).
MICRO_CSV_ROWS = [
    ["EQT", "BND"],
    ["1.1", "1.2"],
    ["-0.9", "1.2"],
    ["1.1", "-0.8"],
    ["-0.9", "-0.8"],
    ["0.1", "0.2"],
]


@pytest.fixture
def micro_alpha():
    return AlphaVector(np.array([0.1, 0.2]))


@pytest.fixture
def micro_cov():
    return CovMatrix.identity(2)


def forget_loads(monkeypatch):
    """Empty the one-entry memo of ``load_returns_csv`` and ``estimate_moments``
    for the rest of the test, so that the next request parses and decomposes."""
    from mvgear import moments

    monkeypatch.setattr(moments, "_last_load", None)
    monkeypatch.setattr(moments, "_last_moments", None)


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """One entry per ``np.loadtxt`` call, that is per CSV parse, for the test."""
    calls = []
    real = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    return calls


@pytest.fixture
def csv_reads(monkeypatch):
    """One entry per read of a file ``load_returns_csv`` opened, for the test:
    a load served by a trusted key adds none."""
    from mvgear import moments

    reads = []

    def spied_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        read = handle.read

        def counting(*args):
            reads.append(1)
            return read(*args)

        handle.read = counting
        return handle

    monkeypatch.setattr(moments, "open", spied_open, raising=False)
    return reads


def true_sigma_p(panel, weights) -> mpmath.mpf:
    """sqrt(theta'Sigma theta) of ``weights`` on the panel's covariance, in
    arbitrary precision, so that it does not overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpdRepairWarning)  # verify printed it
        _, cov = estimate_moments(load_returns_csv(panel))
    with mpmath.workdps(60):
        w = mpmath.matrix(weights)
        return mpmath.sqrt(max(0, (w.T * mpmath.matrix(cov.entries.tolist()) * w)[0]))


def write_micro_csv(path):
    path.write_text("\n".join(",".join(row) for row in MICRO_CSV_ROWS) + "\n")
    return path


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, n, kappa=None, scale=1.0):
    """Random SPD matrix with eigenvalue spread kappa (log-uniform inner)."""
    if kappa is None:
        kappa = float(np.exp(rng.uniform(0.0, np.log(50.0))))
    inner = np.exp(rng.uniform(np.log(1.0 / kappa), 0.0, size=n - 2))
    rho = np.concatenate([[1.0], np.sort(inner)[::-1], [1.0 / kappa]]) * scale
    q = random_orthogonal(rng, n)
    return (q * rho) @ q.T


def random_cov(rng, n, kappa=None, scale=1.0):
    return CovMatrix.from_entries(random_spd(rng, n, kappa=kappa, scale=scale))


def random_instance(rng, n, kappa=None, scale=1.0, min_d_ratio=0.0):
    """(AlphaVector, CovMatrix) with positive alphas and 1'Sigma^-1 alpha > 0.

    ``min_d_ratio`` floors D/(A C) = sin^2 of the whitened angle between
    alpha and 1; absolute per-weight tolerances need weights of O(1), which
    degenerate-D instances (covered by their own error path) cannot give.
    """
    for _ in range(256):
        cov = random_cov(rng, n, kappa=kappa, scale=scale)
        alpha = rng.uniform(0.02, 0.2, size=n)
        si_alpha = cov.solve(alpha)
        si_ones = cov.solve(np.ones(n))
        big_a = float(np.ones(n) @ si_ones)
        big_b = float(si_alpha.sum())
        big_c = float(alpha @ si_alpha)
        if big_b <= 1e-6:
            continue
        if big_a * big_c - big_b**2 < min_d_ratio * big_a * big_c:
            continue
        return AlphaVector(alpha), cov
    raise RuntimeError("could not draw an instance with B > 0 and D bounded away from 0")


# ---------------------------------------------------------------------------
# Pairs that attain the angle bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorstCasePair:
    """An (alpha, theta) pair attaining its spectral lower bound."""

    alpha: AlphaVector
    theta: np.ndarray
    achieved_cos: float
    eta: float | None = None


def worst_case_unconstrained(cov):
    """Pair attaining the Kantorovich bound: the constrained pair at eta = 1.

    alpha = sqrt(rho_1) q_1 + sqrt(rho_n) q_n and
    theta = q_1 / sqrt(rho_1) + q_n / sqrt(rho_n) give
    cos(phi) = 2 sqrt(kappa) / (kappa + 1) exactly, with theta = Sigma^-1 alpha.
    Signs are fixed to (+, +). A flat spectrum collapses the pair to a common
    direction with cos = 1.
    """
    return replace(worst_case_constrained(cov, 1.0), eta=None)


def worst_case_constrained(cov, eta):
    """Pair attaining the Bauer-Householder bound at stretch factor eta >= 1.

    With eta = (1 + sin psi) / (1 - sin psi), the pair
    alpha = sqrt(eta rho_1) q_1 + sqrt(rho_n) q_n,
    theta = q_1 / sqrt(eta rho_1) + q_n / sqrt(rho_n)
    achieves cos = 2 sqrt(eta kappa) / (eta kappa + 1). eta = 1 reduces to the
    unconstrained construction.
    """
    eta = float(eta)
    if eta < 1.0 - 1e-12:
        raise ValueError(f"eta = {eta} below 1")
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


# ---------------------------------------------------------------------------
# The Pareto surface point by point
# ---------------------------------------------------------------------------

def odd_surface_instance():
    """(alpha, Sigma, alpha_p grid, g0 grid) whose grids hold g0 = 0, points
    on both lines, and points one ulp either side of the GMV line, where the
    offset alpha_p - g0 B / A of the completed square is all rounding."""
    from mvgear import FrontierScalars

    rng = np.random.default_rng(12)
    alpha, cov = random_instance(rng, 5)
    scal = FrontierScalars(alpha, cov)
    gearings = np.concatenate([[0.0, 1.0], rng.uniform(-2.0, 3.0, 25)])
    on_gmv = gearings[:5] * scal.B / scal.A
    alphas = np.concatenate([rng.uniform(-0.5, 0.5, 205), on_gmv,
                             np.nextafter(on_gmv, -np.inf), np.nextafter(on_gmv, np.inf),
                             gearings[:5] * scal.C / scal.B])
    return alpha, cov, alphas, gearings


def reference_surface(alpha, cov, alpha_p_grid, g0_grid):
    """The per-point loop the vectorized surface replaced: one
    (alpha_p, g0, sigma_p, on GMV line, on risky line) tuple per point."""
    from mvgear import FrontierScalars
    from mvgear.solvers import LINE_FLAG_RTOL, ZERO_B_TOL

    scal = FrontierScalars(alpha, cov)
    rows = []
    for alpha_p in map(float, alpha_p_grid):
        for g0 in map(float, g0_grid):
            # frontier_variance's completed square, in its operation order
            offset = scal.excess(alpha_p, g0)
            var = g0 * g0 / scal.A + scal.A / scal.D * (offset * offset)
            gmv_return = g0 * scal.B / scal.A
            rows.append((
                alpha_p, g0, float(np.sqrt(var)),
                bool(abs(alpha_p - gmv_return)
                     <= LINE_FLAG_RTOL * max(1.0, abs(gmv_return))),
                abs(scal.B) > ZERO_B_TOL and bool(
                    abs(alpha_p - g0 * scal.C / scal.B)
                    <= LINE_FLAG_RTOL * max(1.0, abs(g0 * scal.C / scal.B))),
            ))
    return rows


def surface_points(surface):
    """A ParetoSurface as the reference's tuples, alpha_p-major."""
    m, k = surface.sigma_p.shape
    return [(float(surface.alpha_p[i]), float(surface.g0[j]),
             float(surface.sigma_p[i, j]), bool(surface.on_gmv[i, j]),
             bool(surface.on_risky[i, j])) for i in range(m) for j in range(k)]


def reference_csv(rows):
    """Surface CSV text as the per-cell writer made it: ``fmt_float`` for each
    float, 1/0 for each flag, lines joined by newlines, one at the end."""
    from mvgear.serialize import fmt_float

    lines = ["alpha_p,g0,sigma_p,is_gmv_line,is_risky_line"]
    for *floats, on_gmv, on_risky in rows:
        lines.append(",".join([*map(fmt_float, floats), "1" if on_gmv else "0",
                               "1" if on_risky else "0"]))
    return "\n".join(lines) + "\n"
