import mpmath
import numpy as np
import numpy.testing as npt
import pytest

from mvgear import (
    CovMatrix,
    FrontierScalars,
    InvalidKappa,
    InvalidPsi,
    NonFiniteData,
    Program,
    ZeroVector,
    alpha_angle,
    alpha_angles,
    bauer_householder_bound,
    kantorovich_bound,
    smallest_valid_psi,
    solve,
    verify_bound,
)
from mvgear.moments import _binary_scaled

from conftest import (random_cov, random_instance, worst_case_constrained,
                      worst_case_unconstrained)


# ---------------------------------------------------------------------------
# alpha_angle
# ---------------------------------------------------------------------------

def test_angle_orthogonal():
    assert alpha_angle([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_angle_collinear():
    assert alpha_angle([0.1, 0.2], [0.3, 0.6]) == pytest.approx(1.0, abs=1e-15)


def test_angle_kantorovich_equality_instance():
    # theta = Sigma^-1 alpha for Sigma = diag(4, 1), alpha = (2, 1)
    assert alpha_angle([2.0, 1.0], [0.5, 1.0]) == pytest.approx(0.8, abs=1e-14)


@pytest.mark.parametrize("theta", [[np.nan, 0.5], [np.inf, 1.0], [0.5, -np.inf]])
def test_angle_of_a_non_finite_vector_raises(theta):
    # max(-1, nan) is -1, so a nan cosine used to read as a full reversal
    with pytest.raises(NonFiniteData):
        alpha_angle([0.1, 0.2], theta)
    with pytest.raises(NonFiniteData):
        alpha_angle(theta, [0.1, 0.2])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha,theta", [
    ([1.0, -2.0], [np.inf, np.inf]),
    ([np.inf, 1.0], [0.0, 1.0]),
    ([1.0, 2.0], [np.inf, -np.inf]),
])
def test_angle_refuses_a_non_finite_vector_before_its_product(alpha, theta):
    # alpha'theta is inf - inf here, which numpy would warn about first
    with pytest.raises(NonFiniteData):
        alpha_angle(alpha, theta)


def test_angle_zero_vector():
    with pytest.raises(ZeroVector):
        alpha_angle([0.0, 0.0], [1.0, 0.0])


def test_angle_scale_invariant():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(5)
    t = rng.standard_normal(5)
    base = alpha_angle(a, t)
    for c, d in [(1e-8, 1.0), (3.0, 7.0), (1e6, 1e-6)]:
        assert alpha_angle(c * a, d * t) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# Kantorovich bound
# ---------------------------------------------------------------------------

def test_kantorovich_perfect_conditioning():
    assert kantorovich_bound(1.0) == 1.0


def test_kantorovich_kappa_four():
    assert kantorovich_bound(4.0) == pytest.approx(0.8, abs=1e-15)


def test_kantorovich_asymptotic():
    # bound ~ 2/sqrt(kappa), so below 1e-3 once kappa > 4e6
    assert kantorovich_bound(4.1e6) < 1e-3
    assert kantorovich_bound(4.1e6) == pytest.approx(2 / np.sqrt(4.1e6), rel=1e-6)


def test_kantorovich_rejects_kappa_below_one():
    with pytest.raises(InvalidKappa):
        kantorovich_bound(0.5)


def test_bounds_strictly_decreasing():
    grid = 2.0 ** np.arange(0, 11)
    kant = [kantorovich_bound(k) for k in grid]
    assert all(a > b for a, b in zip(kant, kant[1:]))
    bh = [bauer_householder_bound(k, 0.3)[1] for k in grid]
    assert all(a > b for a, b in zip(bh, bh[1:]))


# ---------------------------------------------------------------------------
# Bauer-Householder bound
# ---------------------------------------------------------------------------

def test_bh_reduces_to_kantorovich_at_zero_psi():
    for kappa in [1.0, 2.0, 4.0, 123.0]:
        kappa_psi, bound = bauer_householder_bound(kappa, 0.0)
        assert kappa_psi == kappa
        assert bound == kantorovich_bound(kappa)


def test_bh_worked_example_high_precision():
    kappa_psi, bound = bauer_householder_bound(2.0, np.pi / 6.0)
    assert kappa_psi == pytest.approx(6.0, rel=1e-12)
    with mpmath.workdps(50):
        expected = 2 * mpmath.sqrt(6) / 7
    assert bound == pytest.approx(float(expected), abs=1e-15)


def test_bh_vanishes_toward_right_angle():
    kappa = 3.0
    values = [bauer_householder_bound(kappa, psi)[1]
              for psi in np.linspace(0.0, np.pi / 2 - 1e-6, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-2


def test_bh_rejects_psi_outside_domain():
    with pytest.raises(InvalidPsi):
        bauer_householder_bound(2.0, -0.1)
    with pytest.raises(InvalidPsi):
        bauer_householder_bound(2.0, np.pi / 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("psi", [np.pi / 2 - 1e-8, 1.57079632679,
                                 np.nextafter(np.pi / 2, 0.0)])
def test_bh_stays_finite_where_one_minus_sin_psi_rounds_to_zero(psi):
    assert 1.0 - np.sin(psi) == 0.0
    kappa_psi, bound = bauer_householder_bound(3.0, psi)
    with mpmath.workdps(50):
        sin_psi = mpmath.sin(mpmath.mpf(psi))
        expected = 3 * (1 + sin_psi) / (1 - sin_psi)
        assert abs(kappa_psi / expected - 1) <= 1e-14
    assert 0.0 < bound < 1e-7


def test_bh_kappa_psi_is_accurate_up_to_the_last_float_below_a_right_angle():
    # kappa (1 + sin psi) / (1 - sin psi) to a few eps of its 60-digit value
    # over [0, pi/2), where 1 - sin psi cancels; at pi/2 - 2e-8 that form
    # read 9.9% low
    psis = [*np.linspace(0.0, np.pi / 2, 5000, endpoint=False), np.pi / 2 - 2e-8,
            np.nextafter(np.pi / 2, 0.0)]
    worst = 0.0
    with mpmath.workdps(60):
        for psi in psis:
            kappa_psi, bound = bauer_householder_bound(3.0, psi)
            assert bound == kantorovich_bound(kappa_psi)
            sin_psi = mpmath.sin(mpmath.mpf(float(psi)))
            expected = 3 * (1 + sin_psi) / (1 - sin_psi)
            worst = max(worst, float(abs(kappa_psi / expected - 1)))
    assert worst <= 4 * np.finfo(float).eps
    assert bauer_householder_bound(3.0, 0.0)[0] == 3.0


def test_bh_never_beats_kantorovich():
    rng = np.random.default_rng(6)
    for _ in range(50):
        kappa = float(np.exp(rng.uniform(0.0, 8.0)))
        psi = float(rng.uniform(0.0, np.pi / 2 - 1e-9))
        kappa_psi, bound = bauer_householder_bound(kappa, psi)
        assert kappa_psi >= kappa - 1e-12
        assert bound <= kantorovich_bound(kappa) + 1e-15


# ---------------------------------------------------------------------------
# verify_bound
# ---------------------------------------------------------------------------

def test_verify_bound_risky_portfolio_kantorovich():
    rng = np.random.default_rng(31)
    for _ in range(50):
        alpha, cov = random_instance(rng, int(rng.integers(2, 8)))
        report = verify_bound(alpha, cov, solve(Program.RISKY, alpha, cov))
        assert report.psi is None
        assert report.slack >= -1e-10


def test_verify_bound_equality_pair_has_zero_slack():
    rng = np.random.default_rng(37)
    cov = random_cov(rng, 5, kappa=40.0)
    pair = worst_case_unconstrained(cov)
    report = verify_bound(pair.alpha, cov, pair.theta)
    assert report.psi is None
    assert abs(report.slack) <= 1e-10


def test_verify_bound_constrained_solutions():
    # 1000 seeded geared mean-variance solutions stay above the weakened bound
    rng = np.random.default_rng(41)
    worst = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        alpha, cov = random_instance(rng, n)
        gamma = float(rng.uniform(0.5, 10.0))
        g0 = float(rng.uniform(0.2, 2.0))
        port = solve(Program.VII, alpha, cov, gamma=gamma, g0=g0)
        report = verify_bound(alpha, cov, port)
        assert report.psi is not None
        assert report.kappa_psi >= report.kappa - 1e-12
        assert report.bound_bh <= report.bound_kantorovich + 1e-15
        worst = min(worst, report.slack)
    assert worst >= -1e-10


def test_verify_bound_explicit_psi(micro_alpha, micro_cov):
    port = solve(Program.VI, micro_alpha, micro_cov, alpha0=0.2, g0=1.0)
    report = verify_bound(micro_alpha, micro_cov, port, psi=0.9)
    assert report.psi == 0.9
    assert report.bound_bh is not None


def test_verify_bound_refuses_a_psi_below_the_smallest_admissible(micro_alpha, micro_cov):
    port = solve(Program.VI, micro_alpha, micro_cov, alpha0=0.2, g0=1.0)
    smallest = smallest_valid_psi(micro_alpha, micro_cov, port)
    default = verify_bound(micro_alpha, micro_cov, port)
    assert default.psi == smallest
    # rounding a few ulps under the smallest angle is not a refusal
    for psi in (smallest, smallest - 2 * np.spacing(smallest)):
        report = verify_bound(micro_alpha, micro_cov, port, psi=psi)
        assert report.bound_bh == pytest.approx(default.bound_bh, rel=1e-14)
    for psi in (0.0, smallest - 1e-9, -1.0):
        with pytest.raises(InvalidPsi, match=f"below the smallest admissible angle "
                                             f"{smallest!r}"):
            verify_bound(micro_alpha, micro_cov, port, psi=psi)


def test_verify_bound_keeps_any_psi_of_a_collinear_portfolio():
    # theta_alpha's smallest angle is 0 but computes as rounding, ~1e-14 at
    # kappa 1e4; at psi = 0 Bauer-Householder is Kantorovich, which holds
    for seed in range(5):
        alpha, cov = random_instance(np.random.default_rng(seed), 8, kappa=1e4)
        port = solve(Program.RISKY, alpha, cov)
        assert smallest_valid_psi(alpha, cov, port) > 0.0
        report = verify_bound(alpha, cov, port, psi=0.0)
        assert report.bound_bh == report.bound_kantorovich and report.slack >= 0.0


EPS = np.finfo(float).eps


def _reference_psi(alpha, cov_entries, theta):
    """The angle between Sigma^-1/2 alpha and Sigma^1/2 theta, to 60 digits,
    from cos psi = alpha'theta / sqrt(alpha'Sigma^-1 alpha theta'Sigma theta)."""
    with mpmath.workdps(60):
        sigma = mpmath.matrix(np.asarray(cov_entries).tolist())
        a = mpmath.matrix(np.asarray(alpha).tolist())
        t = mpmath.matrix(np.asarray(theta).tolist())
        sigma_t = sigma * t
        cos = mpmath.fdot(a, t) / mpmath.sqrt(
            mpmath.fdot(a, mpmath.lu_solve(sigma, a)) * mpmath.fdot(t, sigma_t))
        return mpmath.acos(cos)


def test_smallest_psi_matches_transformed_angle():
    rng = np.random.default_rng(43)
    alpha, cov = random_instance(rng, 4)
    theta = solve(Program.VI, alpha, cov, alpha0=0.15, g0=1.0).weights
    psi = smallest_valid_psi(alpha, cov, theta)
    reference = _reference_psi(alpha.entries, cov.entries, theta)
    assert abs(psi - reference) <= cov.condition_number * EPS


def _lowest_psi_by_bisection(target):
    """Lowest psi on [0, pi/2] whose rounded cosine reaches ``target``."""
    lo, hi = 0.0, np.pi / 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if np.cos(mid) <= target else (mid, hi)
    return hi


def test_smallest_psi_is_exact_for_a_near_collinear_pair():
    # Near psi = 0 one ulp of cos spans ~1e5 ulps of psi, so a search on the
    # rounded cosine stops well below the angle the bound must cover.
    rng = np.random.default_rng(43)
    alpha, cov = random_instance(rng, 5)
    nudge = rng.standard_normal(5)
    nudge *= 1e-3 * np.linalg.norm(alpha.entries) / np.linalg.norm(nudge)
    theta = cov.solve(alpha.entries + nudge)
    reference = _reference_psi(alpha.entries, cov.entries, theta)
    psi = smallest_valid_psi(alpha, cov, theta)
    assert 0.0 < psi < 1e-3
    assert abs(psi - reference) <= cov.condition_number * EPS
    target = float(mpmath.cos(reference))
    assert psi - _lowest_psi_by_bisection(target) > 1e3 * np.spacing(psi)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha_power", [-1000, 0, 900])
@pytest.mark.parametrize("theta_power", [-1000, 0, 800])
def test_smallest_psi_is_the_same_at_any_scale_of_alpha_and_theta(alpha_power, theta_power):
    # on Sigma times 2^600, L'theta passes the float range at theta times
    # 2^800, and L^-1 alpha falls below the normal range at alpha times 2^-1000
    rng = np.random.default_rng(47)
    alpha, cov = random_instance(rng, 4)
    theta = solve(Program.VI, alpha, cov, alpha0=0.15, g0=1.0).weights
    cov = CovMatrix.from_entries(np.ldexp(cov.entries, 600))
    assert (smallest_valid_psi(np.ldexp(alpha.entries, alpha_power), cov,
                               np.ldexp(theta, theta_power))
            == smallest_valid_psi(alpha, cov, theta))


@pytest.mark.parametrize("kappa", [10.0, 1e3, 1e6])
@pytest.mark.parametrize("psi_order", range(1, 9))
def test_smallest_psi_is_accurate_near_zero(kappa, psi_order):
    # x and y at angle 10^-psi_order in the whitened coordinates of Sigma's
    # spectrum; arccos of their cosine is off by up to ~5e6 kappa eps here.
    rng = np.random.default_rng([psi_order, int(np.log10(kappa))])
    cov = random_cov(rng, 8, kappa=kappa)
    rho, vecs = cov.eigenpairs
    root = np.sqrt(rho)
    x, u = rng.standard_normal((2, 8))
    x /= np.linalg.norm(x)
    u -= (u @ x) * x
    u /= np.linalg.norm(u)
    y = np.cos(10.0**-psi_order) * x + np.sin(10.0**-psi_order) * u
    alpha = vecs @ (root * x)
    theta = vecs @ (y / root)
    reference = _reference_psi(alpha, cov.entries, theta)
    assert abs(reference * 10.0**psi_order - 1.0) < 1e-2
    psi = smallest_valid_psi(alpha, cov, theta)
    assert abs(psi - reference) <= cov.condition_number * EPS


# ---------------------------------------------------------------------------
# Worst-case constructions
# ---------------------------------------------------------------------------

def test_worst_case_unconstrained_2x2():
    pair = worst_case_unconstrained(CovMatrix.from_entries(np.diag([4.0, 1.0])))
    npt.assert_allclose(pair.alpha.entries, [2.0, 1.0], rtol=1e-14)
    npt.assert_allclose(pair.theta, [0.5, 1.0], rtol=1e-14)
    assert pair.achieved_cos == pytest.approx(0.8, abs=1e-14)


def test_worst_case_unconstrained_flat_spectrum():
    pair = worst_case_unconstrained(CovMatrix.identity(3))
    assert pair.achieved_cos == pytest.approx(1.0, abs=1e-14)
    npt.assert_allclose(pair.alpha.entries, pair.theta, rtol=1e-14)


def test_worst_case_unconstrained_equality_audit():
    rng = np.random.default_rng(51)
    cov = random_cov(rng, 6, kappa=300.0)
    pair = worst_case_unconstrained(cov)
    bound = kantorovich_bound(cov.condition_number)
    assert abs(pair.achieved_cos - bound) < 1e-10
    # theta is Sigma^-1 alpha for this pair
    assert alpha_angle(cov.solve(pair.alpha.entries), pair.theta) == pytest.approx(
        1.0, abs=1e-10
    )


def test_worst_case_perturbation_never_undercuts_bound():
    rng = np.random.default_rng(53)
    cov = random_cov(rng, 5, kappa=80.0)
    pair = worst_case_unconstrained(cov)
    bound = kantorovich_bound(cov.condition_number)
    for _ in range(25):
        direction = rng.standard_normal(5)
        alpha = pair.alpha.entries + 1e-3 * direction / np.linalg.norm(direction)
        cos = alpha_angle(alpha, cov.solve(alpha))
        assert cos >= bound - 1e-10


def test_worst_case_constrained_reduces_at_eta_one():
    rng = np.random.default_rng(59)
    cov = random_cov(rng, 4, kappa=25.0)
    base = worst_case_unconstrained(cov)
    pair = worst_case_constrained(cov, eta=1.0)
    npt.assert_array_equal(pair.alpha.entries, base.alpha.entries)
    npt.assert_array_equal(pair.theta, base.theta)
    assert pair.achieved_cos == base.achieved_cos
    assert (pair.eta, base.eta) == (1.0, None)


def test_worst_case_constrained_2x2():
    pair = worst_case_constrained(CovMatrix.from_entries(np.diag([4.0, 1.0])), eta=4.0)
    assert pair.achieved_cos == pytest.approx(8.0 / 17.0, abs=1e-14)


def test_worst_case_constrained_formula_and_monotonicity():
    rng = np.random.default_rng(61)
    cov = random_cov(rng, 5, kappa=60.0)
    kappa = cov.condition_number
    previous = np.inf
    for eta in [1.0, 2.0, 4.0, 8.0]:
        pair = worst_case_constrained(cov, eta=eta)
        expected = 2.0 * np.sqrt(eta * kappa) / (eta * kappa + 1.0)
        assert abs(pair.achieved_cos - expected) < 1e-10
        assert pair.achieved_cos < previous
        previous = pair.achieved_cos


# ---------------------------------------------------------------------------
# Minimax degeneracy
# ---------------------------------------------------------------------------

def minimax_degeneracy(cov):
    """Best achievable cos(phi) for the spectrum: sqrt(rho_1 rho_n) over the
    mean of rho_1 and rho_n."""
    rho = cov.eigenvalues
    return float(np.sqrt(rho[0] * rho[-1]) / (0.5 * (rho[0] + rho[-1])))


def test_minimax_degeneracy_values():
    assert minimax_degeneracy(
        CovMatrix.from_entries(np.diag([4.0, 1.0]))
    ) == pytest.approx(0.8, abs=1e-14)
    assert minimax_degeneracy(CovMatrix.identity(4)) == pytest.approx(1.0, abs=1e-14)


def test_minimax_degeneracy_equals_kantorovich():
    rng = np.random.default_rng(67)
    for _ in range(20):
        cov = random_cov(rng, int(rng.integers(2, 7)))
        assert abs(
            minimax_degeneracy(cov) - kantorovich_bound(cov.condition_number)
        ) <= 1e-12


# ---------------------------------------------------------------------------
# Angle decomposition on the frontier object
# ---------------------------------------------------------------------------

def frontier_split(alpha, cov, g0, w):
    """cos(phi) of theta = (g0 - w) theta_0 + w theta_alpha, which the frontier
    object forms as weights(w/B, g0), and the same cosine recomposed from the
    two funds theta_0 = weights(0, 1) and theta_alpha = weights(1/B, 1):
        (g0 - w)(|theta_0|/|theta|) cos(phi_0) + w (|theta_alpha|/|theta|) cos(phi_alpha),
    each norm scaled by a power of two where its square would leave the
    float range."""
    f = FrontierScalars(alpha, cov)
    theta = f.weights(w / f.B, g0)
    _, norm, e = _binary_scaled(theta)

    def part(fund):
        _, fund_norm, fund_e = _binary_scaled(fund)
        return np.ldexp(fund_norm / norm, fund_e - e) * alpha_angle(alpha, fund)

    return alpha_angle(alpha, theta), ((g0 - w) * part(f.weights(0.0, 1.0))
                                       + w * part(f.weights(1.0 / f.B, 1.0)))


def test_decomposition_pure_risky(micro_alpha, micro_cov):
    cos_phi, recomposed = frontier_split(micro_alpha, micro_cov, g0=1.0, w=1.0)
    assert cos_phi == pytest.approx(
        alpha_angle(micro_alpha, solve(Program.RISKY, micro_alpha, micro_cov)), abs=1e-14)
    assert abs(cos_phi - recomposed) < 1e-10


def test_decomposition_pure_gmv(micro_alpha, micro_cov):
    cos_phi, recomposed = frontier_split(micro_alpha, micro_cov, g0=1.0, w=0.0)
    assert cos_phi == pytest.approx(
        alpha_angle(micro_alpha, solve(Program.GMV, None, micro_cov)), abs=1e-14)
    assert abs(cos_phi - recomposed) < 1e-10


def test_decomposition_matches_program_vii(micro_alpha, micro_cov):
    # mu = B / gamma = 0.3 reproduces the VII mix at gamma = 1, g0 = 1
    cos_phi, recomposed = frontier_split(micro_alpha, micro_cov, g0=1.0, w=0.3)
    port = solve(Program.VII, micro_alpha, micro_cov, gamma=1.0, g0=1.0)
    assert cos_phi == pytest.approx(alpha_angle(micro_alpha, port.weights), abs=1e-14)
    assert abs(cos_phi - recomposed) < 1e-12


def test_decomposition_random_mixes():
    rng = np.random.default_rng(71)
    for _ in range(30):
        alpha, cov = random_instance(rng, int(rng.integers(2, 7)))
        g0 = float(rng.uniform(0.2, 2.0))
        w = float(rng.uniform(-1.0, 2.0))
        f = FrontierScalars(alpha, cov)
        if np.linalg.norm(f.weights(w / f.B, g0)) < 1e-9:
            continue
        cos_phi, recomposed = frontier_split(alpha, cov, g0, w)
        assert abs(cos_phi - recomposed) < 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("power", [-600, 600])
def test_decomposition_is_the_same_at_any_scale_of_the_funds(power):
    # The mix times 2^-600 or 2^600: its square leaves the float range, and
    # each norm is scaled by a power of two first, so the cosine and its
    # recomposition are the scale-1 ones bit for bit, with no warning and no
    # ZeroVector.
    alpha, cov = random_instance(np.random.default_rng(13), 3)
    plain = frontier_split(alpha, cov, g0=1.0, w=0.3)
    assert frontier_split(alpha, cov, g0=2.0**power, w=0.3 * 2.0**power) == plain
    assert abs(plain[0] - plain[1]) < 1e-10


@pytest.mark.filterwarnings("error")
def test_alpha_angles_are_each_rows_alpha_angle():
    # Each row's cosine is alpha_angle's to rounding, at any power-of-two
    # scale of the row; a zero or non-finite row, where alpha_angle raises,
    # reads nan.
    rng = np.random.default_rng(21)
    alpha = rng.standard_normal(7)
    rows = rng.standard_normal((4, 7))
    thetas = np.vstack([rows, rows[:2] * 2.0**600, rows[2:] * 2.0**-600,
                        np.zeros(7), np.full(7, np.inf)])
    cos = alpha_angles(alpha, thetas)
    expected = [alpha_angle(alpha, row) for row in rows]
    npt.assert_allclose(cos[:8], expected * 2, rtol=0, atol=4 * np.finfo(float).eps)
    assert np.isnan(cos[8:]).all()
    for row in thetas[8:]:
        with pytest.raises((ZeroVector, NonFiniteData)):
            alpha_angle(alpha, row)
