import warnings

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

from mvgear import (
    CovMatrix,
    DegenerateAlpha,
    InefficientBranchWarning,
    InvalidPortfolio,
    KktProblem,
    MissingParameter,
    NonFiniteData,
    NonPositiveParameter,
    Portfolio,
    Program,
    ZeroB,
    alpha_angle,
    dominance_sample,
    frontier_scalars,
    frontier_variance,
    gmv_portfolio,
    implied_returns,
    optimal_risky_portfolio,
    pareto_surface,
    project_to_gearing,
    sharpe_objective,
    solve_I,
    solve_II,
    solve_III,
    solve_IV,
    solve_V,
    solve_VI,
    solve_VII,
    solve_VIII,
    solve_QOQC,
    solve_kkt,
    solve_qoqc,
)
from mvgear import AlphaVector, QoqcProblem
from mvgear.solvers import PROGRAMS, solve

from conftest import (odd_surface_instance, random_instance, random_spd,
                      reference_surface, surface_points)


def kkt_check(weights, q, c, e, d, tol=1e-8):
    theta, _ = solve_kkt(KktProblem(quadratic=q, linear=c, eq_matrix=e, eq_rhs=d))
    npt.assert_allclose(weights, theta, atol=tol, rtol=0)


# ---------------------------------------------------------------------------
# Frontier scalars
# ---------------------------------------------------------------------------

def test_scalars_identity(micro_alpha, micro_cov):
    s = frontier_scalars(micro_alpha, micro_cov)
    assert s.A == pytest.approx(2.0, abs=1e-14)
    assert s.B == pytest.approx(0.3, abs=1e-14)
    assert s.C == pytest.approx(0.05, abs=1e-14)
    assert s.D == pytest.approx(0.01, abs=1e-14)


def test_scalars_diagonal():
    s = frontier_scalars(AlphaVector([0.1, 0.2]), CovMatrix.from_entries(np.diag([1.0, 4.0])))
    assert s.A == pytest.approx(1.25, abs=1e-14)
    assert s.B == pytest.approx(0.15, abs=1e-14)
    assert s.C == pytest.approx(0.02, abs=1e-14)
    assert s.D == pytest.approx(0.0025, abs=1e-14)


def test_scalars_constant_alpha_degenerate(micro_cov):
    with pytest.raises(DegenerateAlpha):
        frontier_scalars(AlphaVector([0.1, 0.1]), micro_cov)


def test_scalars_carry_both_building_blocks():
    rng = np.random.default_rng(3)
    alpha, cov = random_instance(rng, 6)
    s = frontier_scalars(alpha, cov)
    assert np.array_equal(s.si_ones, cov.solve(np.ones(6)))
    assert np.array_equal(s.si_alpha, cov.solve(alpha))
    assert s.B == float(alpha.entries @ s.si_ones)


# ---------------------------------------------------------------------------
# The program table
# ---------------------------------------------------------------------------

TABLE_PARAMS = {
    Program.I: {"sigma0": 0.4}, Program.II: {"alpha0": 0.08},
    Program.III: {"gamma": 2.0}, Program.IV: {}, Program.V: {"sigma0": 0.3},
    Program.VI: {"alpha0": 0.2, "g0": 1.0}, Program.VII: {"gamma": 1.5, "g0": 1.0},
    Program.VIII: {"g0": 2.0}, Program.GMV: {}, Program.RISKY: {},
    Program.QOQC: {"gamma": 1.0, "g0": 1.0, "n0": 1.5},
}


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
def test_solve_runs_the_table_solver_of_every_program():
    rng = np.random.default_rng(30)
    alpha, cov = random_instance(rng, 4)
    direct = {
        Program.GMV: lambda: gmv_portfolio(cov),
        Program.RISKY: lambda: optimal_risky_portfolio(alpha, cov),
        Program.I: lambda: solve_I(alpha, cov, 0.4),
        Program.II: lambda: solve_II(alpha, cov, 0.08),
        Program.III: lambda: solve_III(alpha, cov, 2.0),
        Program.IV: lambda: solve_IV(alpha, cov),
        Program.V: lambda: solve_V(alpha, cov, sigma0=0.3),
        Program.VI: lambda: solve_VI(alpha, cov, 0.2, 1.0),
        Program.VII: lambda: solve_VII(alpha, cov, 1.5, 1.0),
        Program.VIII: lambda: solve_VIII(alpha, cov, 2.0),
        Program.QOQC: lambda: solve_QOQC(alpha, cov, 1.0, 1.0, 1.5),
    }
    assert set(PROGRAMS) == set(direct) == set(Program)
    for program, params in TABLE_PARAMS.items():
        port = solve(program.value, alpha, cov, **params)
        assert port.program is program
        assert port.params == direct[program]().params
        assert np.array_equal(port.weights, direct[program]().weights)


def test_solve_runs_qoqc_as_solve_qoqc_bit_for_bit():
    rng = np.random.default_rng(31)
    alpha, cov = random_instance(rng, 6)
    port = solve(Program.QOQC, alpha, cov, gamma=2.0, g0=1.0, n0=3.0)
    sol = solve_qoqc(QoqcProblem(alpha=alpha.entries, cov=cov, gamma=2.0, g0=1.0,
                                 n0=3.0))
    assert port.program is Program.QOQC
    assert np.array_equal(port.weights, sol.weights)
    assert port.params == {"gamma": 2.0, "g0": 1.0, "n0": 3.0,
                           "lambda1": sol.lambda1, "lambda2": sol.lambda2}
    assert port.alpha_p == float(alpha.entries @ sol.weights)
    assert port.sigma_p == float(np.sqrt(cov.quad(sol.weights)))


def test_table_arguments_pick_the_solver_parameters():
    values = {"sigma0": 0.3, "g0": 1.2, "gamma": None, "alpha0": 0.1}
    assert PROGRAMS[Program.V].arguments(values) == {"sigma0": 0.3}
    assert PROGRAMS[Program.V].arguments({"g0": 1.2}) == {"g0": 1.2}
    assert PROGRAMS[Program.IV].arguments(values) == {"g0": 1.2}
    assert PROGRAMS[Program.IV].arguments({}) == {}
    assert PROGRAMS[Program.VI].arguments(values) == {"alpha0": 0.1, "g0": 1.2}
    assert PROGRAMS[Program.GMV].arguments(values) == {}
    with pytest.raises(MissingParameter, match=r"^program VII requires --gamma$"):
        PROGRAMS[Program.VII].arguments(values)
    with pytest.raises(MissingParameter,
                       match=r"^program V takes exactly one of --sigma0 / --g0$"):
        PROGRAMS[Program.V].arguments({"sigma0": None, "alpha0": 0.1})


def test_solve_filters_parameters_through_the_table(micro_alpha, micro_cov):
    plain = solve(Program.VII, micro_alpha, micro_cov, gamma=2.0, g0=1.0)
    extra = solve(Program.VII, micro_alpha, micro_cov, gamma=2.0, g0=1.0,
                  sigma0=None, alpha0=0.3)
    assert np.array_equal(extra.weights, plain.weights)
    assert extra.params == plain.params
    with pytest.raises(MissingParameter, match="program VI requires --alpha0"):
        solve(Program.VI, micro_alpha, micro_cov, g0=1.0)


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
@pytest.mark.parametrize("program,solves", [
    (Program.GMV, 1), (Program.RISKY, 1), (Program.I, 2), (Program.II, 2),
    (Program.III, 1), (Program.IV, 1), (Program.V, 2), (Program.VI, 2),
    (Program.VII, 2), (Program.VIII, 1),
])
def test_each_program_solves_each_product_once(monkeypatch, program, solves):
    rng = np.random.default_rng(5)
    alpha, cov = random_instance(rng, 4)
    calls = []
    real = CovMatrix.solve

    def counting(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(CovMatrix, "solve", counting)
    solve(program, alpha, cov, **TABLE_PARAMS[program])
    assert len(calls) == solves


@pytest.mark.parametrize("program", list(PROGRAMS))
def test_only_programs_that_divide_by_D_reject_a_flat_alpha(program):
    alpha, cov = AlphaVector([0.1, 0.1]), CovMatrix.identity(2)  # D = 0 exactly
    if program in (Program.I, Program.II, Program.V, Program.VI):
        with pytest.raises(DegenerateAlpha):
            solve(program, alpha, cov, **TABLE_PARAMS[program])
    else:
        assert solve(program, alpha, cov, **TABLE_PARAMS[program]).dim == 2


# ---------------------------------------------------------------------------
# GMV and optimal risky portfolios
# ---------------------------------------------------------------------------

def test_gmv_identity(micro_cov):
    npt.assert_allclose(gmv_portfolio(micro_cov).weights, [0.5, 0.5], atol=1e-15)


def test_gmv_inverse_variance():
    cov = CovMatrix.from_entries(np.diag([1.0, 4.0]))
    npt.assert_allclose(gmv_portfolio(cov).weights, [0.8, 0.2], rtol=1e-14)


def test_gmv_matches_kkt_oracle():
    rng = np.random.default_rng(21)
    alpha, cov = random_instance(rng, 5)
    port = gmv_portfolio(cov)
    kkt_check(port.weights, cov.entries, np.zeros(5), np.ones((1, 5)), [1.0])
    assert port.gearing == pytest.approx(1.0, abs=1e-14)


def test_risky_identity(micro_alpha, micro_cov):
    port = optimal_risky_portfolio(micro_alpha, micro_cov)
    npt.assert_allclose(port.weights, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)
    assert port.program is Program.RISKY


def test_risky_dominates_sampled_sharpe():
    rng = np.random.default_rng(33)
    alpha, cov = random_instance(rng, 4)
    port = optimal_risky_portfolio(alpha, cov)
    mine = float(alpha.entries @ port.weights) / np.sqrt(cov.quad(port.weights))
    best = dominance_sample(
        sharpe_objective(alpha.entries, cov.entries),
        project_to_gearing(1.0),
        dim=4,
        count=100_000,
        seed=0,
    )
    assert best <= mine + 1e-9


def test_risky_zero_b():
    with pytest.raises(ZeroB):
        optimal_risky_portfolio(AlphaVector([-0.1, 0.1]), CovMatrix.identity(2))


# ---------------------------------------------------------------------------
# Programs I-V (geared risky family)
# ---------------------------------------------------------------------------

def test_solve_I_binds_risk(micro_alpha, micro_cov):
    port = solve_I(micro_alpha, micro_cov, sigma0=0.7)
    assert micro_cov.quad(port.weights) == pytest.approx(0.49, rel=1e-12)
    assert alpha_angle(port.weights, optimal_risky_portfolio(micro_alpha, micro_cov).weights) == pytest.approx(1.0, abs=1e-12)


def test_solve_II_worked_example(micro_alpha, micro_cov):
    port = solve_II(micro_alpha, micro_cov, alpha0=0.05)
    npt.assert_allclose(port.weights, [0.1, 0.2], rtol=1e-13)
    assert float(micro_alpha.entries @ port.weights) == pytest.approx(0.05, abs=1e-15)
    kkt_check(port.weights, micro_cov.entries, np.zeros(2),
              micro_alpha.entries[None, :], [0.05])


def test_solve_III_unit_gamma(micro_alpha, micro_cov):
    npt.assert_allclose(
        solve_III(micro_alpha, micro_cov, gamma=1.0).weights, [0.1, 0.2], atol=1e-15
    )


def test_solve_IV_is_fully_invested_risky(micro_alpha, micro_cov):
    npt.assert_allclose(
        solve_IV(micro_alpha, micro_cov).weights,
        optimal_risky_portfolio(micro_alpha, micro_cov).weights,
        rtol=1e-14,
    )


def test_solve_V_gearing_one_equals_risky(micro_alpha, micro_cov):
    npt.assert_allclose(
        solve_V(micro_alpha, micro_cov, g0=1.0).weights,
        optimal_risky_portfolio(micro_alpha, micro_cov).weights,
        rtol=1e-14,
    )


def test_solve_V_linear_in_gearing(micro_alpha, micro_cov):
    one = solve_V(micro_alpha, micro_cov, g0=1.0).weights
    two = solve_V(micro_alpha, micro_cov, g0=2.0).weights
    npt.assert_allclose(two, 2.0 * one, rtol=1e-14)


def test_solve_V_sigma_variant(micro_alpha, micro_cov):
    port = solve_V(micro_alpha, micro_cov, sigma0=1.0)
    assert port.params["g0"] == pytest.approx(0.3 / np.sqrt(0.05), rel=1e-12)
    assert micro_cov.quad(port.weights) == pytest.approx(1.0, rel=1e-12)


def test_solve_V_requires_exactly_one_parameter(micro_alpha, micro_cov):
    with pytest.raises(NonPositiveParameter):
        solve_V(micro_alpha, micro_cov)
    with pytest.raises(NonPositiveParameter):
        solve_V(micro_alpha, micro_cov, sigma0=0.5, g0=1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_nonpositive_parameters_rejected(micro_alpha, micro_cov, bad):
    with pytest.raises(NonPositiveParameter):
        solve_I(micro_alpha, micro_cov, sigma0=bad)
    with pytest.raises(NonPositiveParameter):
        solve_II(micro_alpha, micro_cov, alpha0=bad)
    with pytest.raises(NonPositiveParameter):
        solve_III(micro_alpha, micro_cov, gamma=bad)


# ---------------------------------------------------------------------------
# Program VI
# ---------------------------------------------------------------------------

def test_solve_VI_gmv_inflection(micro_alpha, micro_cov):
    port = solve_VI(micro_alpha, micro_cov, alpha0=0.15, g0=1.0)
    npt.assert_allclose(port.weights, [0.5, 0.5], atol=1e-13)


def test_solve_VI_worked_example(micro_alpha, micro_cov):
    port = solve_VI(micro_alpha, micro_cov, alpha0=0.2, g0=1.0)
    npt.assert_allclose(port.weights, [0.0, 1.0], atol=1e-13)
    assert port.gearing == pytest.approx(1.0, abs=1e-13)
    assert float(micro_alpha.entries @ port.weights) == pytest.approx(0.2, abs=1e-13)
    kkt_check(port.weights, micro_cov.entries, np.zeros(2),
              np.vstack([micro_alpha.entries, np.ones(2)]), [0.2, 1.0])


def test_solve_VI_constraints_and_frontier_consistency():
    rng = np.random.default_rng(7)
    alpha, cov = random_instance(rng, 4)
    scal = frontier_scalars(alpha, cov)
    for alpha0 in np.linspace(scal.B / scal.A, 3 * scal.B / scal.A, 20):
        port = solve_VI(alpha, cov, alpha0=float(alpha0), g0=1.0)
        assert float(alpha.entries @ port.weights) == pytest.approx(alpha0, rel=1e-10)
        assert port.gearing == pytest.approx(1.0, rel=1e-10)
        var = frontier_variance(scal, float(alpha0), 1.0)
        assert cov.quad(port.weights) == pytest.approx(var, rel=1e-10)


def test_solve_VI_table_form_equivalence():
    # (g0 - w) theta_0 + w theta_alpha with w = (B/D)(alpha0 A - g0 B)
    rng = np.random.default_rng(8)
    alpha, cov = random_instance(rng, 5)
    scal = frontier_scalars(alpha, cov)
    g0, alpha0 = 1.4, 0.12
    w = scal.B / scal.D * (alpha0 * scal.A - g0 * scal.B)
    mixed = (g0 - w) * gmv_portfolio(cov).weights + w * optimal_risky_portfolio(
        alpha, cov
    ).weights
    port = solve_VI(alpha, cov, alpha0=alpha0, g0=g0)
    npt.assert_allclose(port.weights, mixed, rtol=1e-10)


def test_solve_VI_cash_neutral_component(micro_alpha, micro_cov):
    theta0 = gmv_portfolio(micro_cov).weights
    theta_a = optimal_risky_portfolio(micro_alpha, micro_cov).weights
    assert float(np.sum(theta_a - theta0)) == pytest.approx(0.0, abs=1e-12)


def test_solve_VI_zero_gearing_is_cash_neutral(micro_alpha, micro_cov):
    with pytest.warns(InefficientBranchWarning):
        port = solve_VI(micro_alpha, micro_cov, alpha0=-0.05, g0=0.0)
    assert port.gearing == pytest.approx(0.0, abs=1e-12)
    assert float(micro_alpha.entries @ port.weights) == pytest.approx(-0.05, abs=1e-13)


def test_solve_VI_warns_on_inefficient_branch(micro_alpha, micro_cov):
    with pytest.warns(InefficientBranchWarning):
        solve_VI(micro_alpha, micro_cov, alpha0=0.05, g0=1.0)


def test_solve_VI_at_inflection_is_geared_gmv():
    rng = np.random.default_rng(13)
    alpha, cov = random_instance(rng, 5)
    scal = frontier_scalars(alpha, cov)
    for g0 in [0.5, 1.0, 1.7, -1.0]:
        port = solve_VI(alpha, cov, alpha0=g0 * scal.B / scal.A, g0=g0)
        npt.assert_allclose(port.weights, g0 * gmv_portfolio(cov).weights,
                            atol=1e-12, rtol=0)


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
def test_two_fund_separation(micro_alpha, micro_cov):
    rng = np.random.default_rng(12)
    for _ in range(25):
        alpha, cov = random_instance(rng, rng.integers(2, 7))
        a0, b0 = rng.uniform(0.05, 0.25, size=2)
        lam = rng.uniform(-0.5, 1.5)
        g0 = 1.0
        left = solve_VI(alpha, cov, alpha0=lam * a0 + (1 - lam) * b0, g0=g0).weights
        right = lam * solve_VI(alpha, cov, alpha0=a0, g0=g0).weights + (
            1 - lam
        ) * solve_VI(alpha, cov, alpha0=b0, g0=g0).weights
        npt.assert_allclose(left, right, atol=1e-10)


# ---------------------------------------------------------------------------
# Program VII
# ---------------------------------------------------------------------------

def test_solve_VII_worked_example(micro_alpha, micro_cov):
    port = solve_VII(micro_alpha, micro_cov, gamma=1.0, g0=1.0)
    npt.assert_allclose(port.weights, [0.45, 0.55], rtol=1e-13)
    kkt_check(port.weights, micro_cov.entries, micro_alpha.entries,
              np.ones((1, 2)), [1.0])
    # identity-covariance closed form g0 e + (alpha - mean)/gamma
    npt.assert_allclose(port.weights, [0.5 - 0.05, 0.5 + 0.05], rtol=1e-13)


def test_solve_VII_limits_to_gmv(micro_alpha, micro_cov):
    port = solve_VII(micro_alpha, micro_cov, gamma=1e9, g0=1.0)
    npt.assert_allclose(port.weights, gmv_portfolio(micro_cov).weights, atol=1e-6)


def test_solve_VII_relative_alpha_form():
    # [g0 I + (1/gamma) Sigma^-1 (alpha 1' - 1 alpha')] theta_0
    rng = np.random.default_rng(14)
    alpha, cov = random_instance(rng, 5)
    gamma, g0 = 2.5, 1.2
    theta0 = gmv_portfolio(cov).weights
    outer = np.outer(alpha.entries, np.ones(5)) - np.outer(np.ones(5), alpha.entries)
    alt = g0 * theta0 + cov.solve(outer @ theta0) / gamma
    port = solve_VII(alpha, cov, gamma=gamma, g0=g0)
    npt.assert_allclose(port.weights, alt, atol=1e-10)


def test_solve_VII_zero_gearing(micro_alpha, micro_cov):
    port = solve_VII(micro_alpha, micro_cov, gamma=2.0, g0=0.0)
    assert port.gearing == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Program VIII
# ---------------------------------------------------------------------------

def test_solve_VIII_gearing_one(micro_alpha, micro_cov):
    npt.assert_allclose(
        solve_VIII(micro_alpha, micro_cov, g0=1.0).weights,
        optimal_risky_portfolio(micro_alpha, micro_cov).weights,
        rtol=1e-14,
    )


def test_solve_VIII_sharpe_scale_invariant(micro_alpha, micro_cov):
    def sharpe(w):
        return float(micro_alpha.entries @ w) / np.sqrt(micro_cov.quad(w))

    s1 = sharpe(solve_VIII(micro_alpha, micro_cov, g0=1.0).weights)
    s3 = sharpe(solve_VIII(micro_alpha, micro_cov, g0=3.0).weights)
    assert s3 == pytest.approx(s1, abs=1e-12)


def test_solve_VIII_dominance():
    rng = np.random.default_rng(55)
    alpha, cov = random_instance(rng, 5)
    g0 = 1.7
    port = solve_VIII(alpha, cov, g0=g0)
    mine = float(alpha.entries @ port.weights) / np.sqrt(cov.quad(port.weights))
    best = dominance_sample(
        sharpe_objective(alpha.entries, cov.entries),
        project_to_gearing(g0),
        dim=5,
        count=100_000,
        seed=1,
    )
    assert best <= mine + 1e-9


def test_solve_VIII_zero_gearing_rejected(micro_alpha, micro_cov):
    with pytest.raises(NonPositiveParameter):
        solve_VIII(micro_alpha, micro_cov, g0=0.0)


def test_collinearity_family():
    rng = np.random.default_rng(77)
    alpha, cov = random_instance(rng, 6)
    risky = optimal_risky_portfolio(alpha, cov).weights
    family = [
        solve_I(alpha, cov, sigma0=0.4).weights,
        solve_II(alpha, cov, alpha0=0.08).weights,
        solve_III(alpha, cov, gamma=3.0).weights,
        solve_IV(alpha, cov).weights,
        solve_V(alpha, cov, g0=1.5).weights,
        solve_VIII(alpha, cov, g0=2.0).weights,
    ]
    for member in family:
        assert alpha_angle(member, risky) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [50, 200, 500])
def test_unshrunk_closed_forms_match_the_kkt_oracle_at_scale(n):
    # GMV, III, VI and VII against the bordered KKT system of the entries,
    # which never reads the spectrum the closed forms solve through: each
    # weight within 32 kappa eps of the largest. Largest seen: 6.3 kappa eps,
    # VI at n = 500, kappa = 1e2, where the O(n eps) floor of both solvers
    # dominates.
    rng = np.random.default_rng(70 + n)
    ones, zeros, none = np.ones((1, n)), np.zeros(n), np.zeros((0, n))
    for kappa in (1e2, 1e5, 1e8):
        cov = CovMatrix.from_entries(random_spd(rng, n, kappa=kappa))
        a = 5e-3 * (1.0 + 0.5 * rng.standard_normal(n))
        sigma, alpha0 = cov.entries, float(a.mean())
        cases = {
            Program.GMV: ({}, KktProblem(sigma, zeros, ones, [1.0])),
            Program.III: ({"gamma": 2.0}, KktProblem(2.0 * sigma, a, none, [])),
            Program.VI: ({"alpha0": alpha0, "g0": 1.0},
                         KktProblem(sigma, zeros, np.vstack([a, ones]), [alpha0, 1.0])),
            Program.VII: ({"gamma": 2.0, "g0": 1.0},
                          KktProblem(2.0 * sigma, a, ones, [1.0])),
        }
        tolerance = 32.0 * cov.condition_number * np.finfo(float).eps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InefficientBranchWarning)
            for program, (params, problem) in cases.items():
                want, _ = solve_kkt(problem)
                got = solve(program, AlphaVector(a), cov, **params).weights
                npt.assert_allclose(got, want, rtol=0, atol=tolerance * np.abs(want).max(),
                                    err_msg=f"{program.value}, kappa {kappa}")


# ---------------------------------------------------------------------------
# Frontier parabola and surface
# ---------------------------------------------------------------------------

def test_frontier_variance_inflection(micro_alpha, micro_cov):
    scal = frontier_scalars(micro_alpha, micro_cov)
    assert frontier_variance(scal, 0.15, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_frontier_variance_cash_neutral_branch(micro_alpha, micro_cov):
    scal = frontier_scalars(micro_alpha, micro_cov)
    assert frontier_variance(scal, 0.1, 0.0) == pytest.approx(
        0.1**2 * scal.A / scal.D, rel=1e-14
    )


def test_surface_single_gmv_point(micro_alpha, micro_cov):
    scal = frontier_scalars(micro_alpha, micro_cov)
    surface = pareto_surface(micro_alpha, micro_cov, [scal.B / scal.A], [1.0])
    assert surface.sigma_p.shape == (1, 1)
    assert surface.on_gmv.shape == surface.on_risky.shape == (1, 1)
    assert surface.on_gmv[0, 0]
    assert surface.sigma_p[0, 0] == pytest.approx(np.sqrt(1.0 / scal.A), rel=1e-14)


def test_surface_slice_matches_parabola(micro_alpha, micro_cov):
    scal = frontier_scalars(micro_alpha, micro_cov)
    grid = np.linspace(0.05, 0.3, 11)
    surface = pareto_surface(micro_alpha, micro_cov, grid, [1.0])
    assert surface.g0.tolist() == [1.0]
    assert surface.alpha_p.tolist() == grid.tolist()
    for sigma_p, alpha_p in zip(surface.sigma_p[:, 0], grid):
        assert sigma_p**2 == pytest.approx(
            frontier_variance(scal, alpha_p, 1.0), rel=1e-12
        )


def test_surface_equals_the_per_point_loop_bit_for_bit():
    alpha, cov, alphas, gearings = odd_surface_instance()
    surface = pareto_surface(alpha, cov, alphas, gearings)
    assert surface.alpha_p.shape == (alphas.size,)
    assert surface.g0.shape == (gearings.size,)
    assert surface.sigma_p.dtype == float
    assert surface.on_gmv.dtype == surface.on_risky.dtype == bool
    assert surface_points(surface) == reference_surface(alpha, cov, alphas, gearings)
    assert surface.on_gmv.sum() >= 5
    assert surface.on_risky.sum() >= 5
    assert (surface.on_gmv & surface.on_risky).any()


def test_surface_constraint_audit():
    rng = np.random.default_rng(2)
    alpha, cov = random_instance(rng, 4)
    surface = pareto_surface(alpha, cov, np.linspace(0.05, 0.3, 6), [0.5, 1.0, 2.0])
    points = surface_points(surface)
    assert len(points) == 18
    for alpha_p, g0, sigma_p, _, _ in points:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InefficientBranchWarning)
            w = solve_VI(alpha, cov, alpha0=alpha_p, g0=g0).weights
        assert float(np.sum(w)) == pytest.approx(g0, rel=1e-10, abs=1e-10)
        assert float(alpha.entries @ w) == pytest.approx(alpha_p, rel=1e-10)
        assert np.sqrt(cov.quad(w)) == pytest.approx(sigma_p, rel=1e-10)


@pytest.mark.parametrize("alphas,gearings,point", [
    ([0.1, 1e200], [1.0], "alpha_p = 1e+200, g0 = 1.0"),
    ([0.0], [0.5, 1e300], "alpha_p = 0.0, g0 = 1e+300"),
    ([0.1, 1e153, 2e153], [1.0, 2.0], "alpha_p = 1e+153, g0 = 1.0"),
])
def test_surface_names_the_first_point_whose_variance_is_not_finite(
        micro_alpha, micro_cov, alphas, gearings, point):
    # A = 2 and D = 0.01: 1e153 squares to a finite 1e306, and A/D takes it over
    with pytest.raises(NonFiniteData) as info:
        pareto_surface(micro_alpha, micro_cov, alphas, gearings)
    assert str(info.value) == f"variance at {point} is inf"


def test_frontier_variance_overflows_to_inf(micro_alpha, micro_cov):
    scal = frontier_scalars(micro_alpha, micro_cov)
    with np.errstate(over="ignore", invalid="ignore"):
        assert frontier_variance(scal, 1e200, 1.0) == np.inf
        assert frontier_variance(scal, 0.0, 1e300) == np.inf
        assert frontier_variance(scal, np.array([1e200, 0.1]), 1.0)[0] == np.inf


def test_frontier_variance_does_not_cancel_near_the_minimum_variance_line():
    # alpha = 5e-4 (1 + s z) puts every return near one value, so D/B^2 ~ s^2
    # and the expanded numerator alpha_p^2 A - 2 g0 alpha_p B + g0^2 C cancels
    # down to g0^2 D / A: evaluated so, it was off by 3e4 eps at s = 1e-2 and
    # by 7e15 eps at s = 1e-8. The completed square g0^2/A + (A/D) offset^2
    # carries A's rounding in its first term and D's in its second, and
    # D = AC - B^2 is itself accurate only to eps AC/D, which the bound's
    # second term states. Over 30 instances the largest error at f <= 1 was
    # 25 eps. At s = 1e-8 the computed D is rounding noise: where it is not
    # positive, frontier_scalars raises DegenerateAlpha and no point is read.
    eps = np.finfo(float).eps
    fractions = [0.0, 1e-3, 1.0, 10.0]
    evaluated = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cov = CovMatrix.from_entries(random_spd(rng, 20, kappa=38.0, scale=1e-4))
        z = rng.standard_normal(20)
        with mpmath.workdps(60):
            sigma = mpmath.matrix(cov.entries.tolist())
            ones = mpmath.matrix([1] * 20)
            si_ones = mpmath.lu_solve(sigma, ones)
        for spread in [1e-2, 1e-4, 1e-6, 1e-8]:
            alpha = 5e-4 * (1.0 + spread * z)
            try:
                scal = frontier_scalars(alpha, cov)
            except DegenerateAlpha:
                assert spread == 1e-8
                continue
            evaluated.append(spread)
            gmv, risky = scal.B / scal.A, scal.C / scal.B
            alphas = [gmv + f * (risky - gmv) for f in fractions]
            surface = pareto_surface(alpha, cov, alphas, [1.0])
            with mpmath.workdps(60):
                a = mpmath.matrix(alpha.tolist())
                big_a = mpmath.fdot(ones, si_ones)
                big_b = mpmath.fdot(a, si_ones)
                big_c = mpmath.fdot(a, mpmath.lu_solve(sigma, a))
                for alpha_p, sigma_p in zip(alphas, surface.sigma_p[:, 0]):
                    x = mpmath.mpf(alpha_p)
                    exact = ((x * x * big_a - 2 * x * big_b + big_c)
                             / (big_a * big_c - big_b * big_b))
                    offset = alpha_p - gmv
                    bound = 128 * eps * (1.0 / scal.A + scal.A / scal.D * offset**2
                                         * (scal.A * scal.C / scal.D))
                    assert abs(frontier_variance(scal, alpha_p, 1.0) - exact) <= bound
                    assert abs(sigma_p - mpmath.sqrt(exact)) <= (
                        bound / (2 * sigma_p) + eps * sigma_p)
    assert evaluated.count(1e-2) == evaluated.count(1e-6) == 5
    assert 1e-8 in evaluated


# ---------------------------------------------------------------------------
# Implied returns and leverage
# ---------------------------------------------------------------------------

def test_implied_returns_identity(micro_cov):
    port = gmv_portfolio(micro_cov)
    npt.assert_allclose(implied_returns(port, micro_cov).entries, [0.5, 0.5])


def test_implied_returns_gmv_is_flat():
    rng = np.random.default_rng(19)
    _, cov = random_instance(rng, 5)
    pi = implied_returns(gmv_portfolio(cov), cov).entries
    npt.assert_allclose(pi, np.full(5, 0.2), atol=1e-12)


def test_implied_returns_round_trip():
    rng = np.random.default_rng(23)
    _, cov = random_instance(rng, 4)
    w = rng.uniform(-1.0, 1.0, 4)
    w += (1.0 - w.sum()) / 4.0
    port = Portfolio(
        weights=w, program=Program.RISKY, params={},
        gearing=float(w.sum()), leverage=float(np.abs(w).sum()),
    )
    pi = implied_returns(port, cov).entries
    raw = cov.solve(pi)
    npt.assert_allclose(raw / raw.sum(), w, atol=1e-10)


def test_implied_returns_zero_sum():
    from mvgear import ZeroSum
    cov = CovMatrix.from_entries([[1.0, -0.5], [-0.5, 4.0]])
    w = np.array([7.0 / 6.0, -1.0 / 6.0])  # fully invested, 1'Sigma theta = 0
    port = Portfolio(weights=w, program=Program.RISKY, params={},
                     gearing=float(w.sum()), leverage=float(np.abs(w).sum()))
    with pytest.raises(ZeroSum):
        implied_returns(port, cov)


def test_implied_returns_requires_full_investment(micro_cov):
    port = Portfolio(
        weights=np.array([1.0, 1.0]), program=Program.RISKY, params={},
        gearing=2.0, leverage=2.0,
    )
    with pytest.raises(InvalidPortfolio):
        implied_returns(port, micro_cov)


@pytest.mark.parametrize(
    "weights,expected",
    [([1.5, -0.5], (1.0, 2.0)), ([0.5, 0.5], (1.0, 1.0)), ([0.0, 0.0], (0.0, 0.0))],
)
def test_leverage(weights, expected):
    w = np.asarray(weights)
    port = Portfolio(
        weights=w, program=Program.RISKY, params={},
        gearing=float(w.sum()), leverage=float(np.abs(w).sum()),
    )
    assert (port.gearing, port.leverage) == pytest.approx(expected)
