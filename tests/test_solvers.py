import warnings

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

from mvgear import (
    CovMatrix,
    DegenerateAlpha,
    FrontierScalars,
    InefficientBranchWarning,
    KktProblem,
    MissingParameter,
    NonFiniteData,
    NonPositiveParameter,
    Portfolio,
    Program,
    ZeroB,
    alpha_angle,
    dominance_sample,
    frontier_variance,
    pareto_surface,
    project_to_gearing,
    sharpe_objective,
    solve_kkt,
    solve_qoqc,
)
from mvgear import AlphaVector, QoqcProblem, moments
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
    s = FrontierScalars(micro_alpha, micro_cov)
    assert s.A == pytest.approx(2.0, abs=1e-14)
    assert s.B == pytest.approx(0.3, abs=1e-14)
    assert s.C == pytest.approx(0.05, abs=1e-14)
    assert s.D == pytest.approx(0.01, abs=1e-14)


def test_scalars_diagonal():
    s = FrontierScalars(AlphaVector([0.1, 0.2]), CovMatrix.from_entries(np.diag([1.0, 4.0])))
    assert s.A == pytest.approx(1.25, abs=1e-14)
    assert s.B == pytest.approx(0.15, abs=1e-14)
    assert s.C == pytest.approx(0.02, abs=1e-14)
    assert s.D == pytest.approx(0.0025, abs=1e-14)


def test_scalars_constant_alpha_degenerate(micro_cov):
    with pytest.raises(DegenerateAlpha):
        FrontierScalars(AlphaVector([0.1, 0.1]), micro_cov).check((DegenerateAlpha,))


def test_scalars_carry_both_building_blocks():
    # Sigma^-1 1 has gearing A and Sigma^-1 alpha gearing B; the frontier forms
    # them in the factor's coordinates, and agrees with the plain solves, and
    # with B and C taken from them, within a few kappa eps (two roundings of
    # sums of n = 6 terms apart)
    rng = np.random.default_rng(3)
    alpha, cov = random_instance(rng, 6)
    s = FrontierScalars(alpha, cov)
    tolerance = 8.0 * cov.condition_number * np.finfo(float).eps
    si_ones, si_alpha = cov.solve(np.ones(6)), cov.solve(alpha)
    for got, want in ((s.weights(0.0, s.A), si_ones), (s.weights(1.0, s.B), si_alpha)):
        npt.assert_allclose(got, want, rtol=0, atol=tolerance * np.abs(want).max())
    assert s.B == pytest.approx(float(alpha.entries @ si_ones), rel=tolerance, abs=0)
    assert s.C == pytest.approx(float(alpha.entries @ si_alpha), rel=tolerance, abs=0)


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


def stated_formula(program, alpha, sigma, **params):
    """``program``'s closed form as the solvers module docstring states it,
    from np.linalg.solve on the entries."""
    ones = np.ones(alpha.size)
    si_alpha, si_ones = np.linalg.solve(sigma, alpha), np.linalg.solve(sigma, ones)
    a, b, c = ones @ si_ones, ones @ si_alpha, alpha @ si_alpha
    d = a * c - b * b
    return {
        Program.GMV: lambda: si_ones / a,
        Program.RISKY: lambda: si_alpha / b,
        Program.I: lambda sigma0: sigma0 / np.sqrt(c) * si_alpha,
        Program.II: lambda alpha0: alpha0 / c * si_alpha,
        Program.III: lambda gamma: si_alpha / gamma,
        Program.IV: lambda g0=1.0: g0 * si_alpha / b,
        Program.V: lambda sigma0=None, g0=None: (
            (g0 if sigma0 is None else sigma0 * b / np.sqrt(c)) * si_alpha / b),
        Program.VI: lambda alpha0, g0: ((alpha0 * a - g0 * b) / d * si_alpha
                                        + (g0 * c - alpha0 * b) / d * si_ones),
        Program.VII: lambda gamma, g0: (g0 - b / gamma) * si_ones / a + si_alpha / gamma,
        Program.VIII: lambda g0: g0 * si_alpha / b,
    }[program](**params)


CLOSED_FORMS = [(program, params) for program, params in TABLE_PARAMS.items()
                if program is not Program.QOQC] + [
    (Program.IV, {"g0": 0.5}), (Program.V, {"g0": 1.5}),
    (Program.VI, {"alpha0": 0.05, "g0": 2.0})]


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
@pytest.mark.parametrize("program,params", CLOSED_FORMS,
                         ids=[p.value + "".join(f"-{k}={v}" for k, v in q.items())
                              for p, q in CLOSED_FORMS])
def test_each_closed_form_matches_its_stated_formula(program, params):
    # Each table entry against the formula its program states, solved on the
    # entries, on instances with D/(AC) >= 0.05 so that the (c_alpha, c_1)
    # form of VI loses at most a factor 20 to cancellation: each weight within
    # 4 kappa eps of the largest (largest seen: 0.22 kappa eps, III). The
    # record names the program, keeps the parameters given and, where the
    # gearing is audited, records it as g0.
    rng = np.random.default_rng(34)
    for n in (3, 6, 12, 24):
        alpha, cov = random_instance(rng, n, kappa=1e3, min_d_ratio=0.05)
        port = solve(program, alpha, cov, **params)
        want = stated_formula(program, alpha.entries, cov.entries, **params)
        tolerance = 4.0 * cov.condition_number * np.finfo(float).eps
        npt.assert_allclose(port.weights, want, rtol=0, atol=tolerance * np.abs(want).max(),
                            err_msg=f"n = {n}")
        assert port.program is program
        assert {name: port.params[name] for name in params} == params
        if "gearing" in PROGRAMS[program].audits:
            assert port.params["g0"] == pytest.approx(want.sum(), rel=tolerance)
        else:
            assert "g0" not in port.params or "g0" in params


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


def count_products(monkeypatch):
    """The vectors each product with a covariance's basis is formed from, from
    now on: ``("U'", x)`` for U'S^-1 x (the frame's, which coordinates and
    U'S^-1 1 go through), ``("U", c)`` for from_coordinates."""
    calls = []
    for owner, name, label in ((moments._Frame, "project", "U'"),
                               (CovMatrix, "from_coordinates", "U")):
        real = getattr(owner, name)

        def counting(self, x, real=real, label=label):
            calls.append((label, np.array(x, dtype=float)))
            return real(self, x)

        monkeypatch.setattr(owner, name, counting)
    return calls


def ones_products(calls) -> int:
    return sum(label == "U'" and np.all(x == 1.0) for label, x in calls)


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
@pytest.mark.parametrize("program,products", [
    (Program.GMV, 1), (Program.RISKY, 2), (Program.I, 2), (Program.II, 2),
    (Program.III, 2), (Program.IV, 2), (Program.V, 2), (Program.VI, 2),
    (Program.VII, 2), (Program.VIII, 2),
])
def test_each_program_solves_each_product_once(monkeypatch, program, products):
    # A solve forms one product for alpha (the coordinates of Sigma^-1 r,
    # which GMV does not read) and one for its weights. U'S^-1 1 is formed
    # once per (basis, scale) pair: by the first solve on a covariance, and
    # by no later solve on it or on any shrink that shares its basis. Each
    # matrix forms its own Sigma^-1 1 from it, one product more.
    rng = np.random.default_rng(5)
    alpha, cov = random_instance(rng, 4)
    calls = count_products(monkeypatch)

    def solved(matrix):
        calls.clear()
        solve(program, alpha, matrix, **TABLE_PARAMS[program])
        return list(calls)

    first = solved(cov)
    assert len(first) == products + 2 and ones_products(first) == 1
    again = solved(cov)
    assert len(again) == products and ones_products(again) == 0
    assert [label for label, _ in again].count("U") == 1
    for w in (0.0, 0.3, 0.9):
        shrunk = solved(cov.toward_identity(w))
        assert len(shrunk) == products + 1 and ones_products(shrunk) == 0
    first = solved(cov.toward_diagonal(0.3))
    assert len(first) == products + 2 and ones_products(first) == 1
    shrunk = solved(cov.toward_diagonal(0.6))
    assert len(shrunk) == products + 1 and ones_products(shrunk) == 0


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
    npt.assert_allclose(solve(Program.GMV, None, micro_cov).weights, [0.5, 0.5], atol=1e-15)


def test_gmv_inverse_variance():
    cov = CovMatrix.from_entries(np.diag([1.0, 4.0]))
    npt.assert_allclose(solve(Program.GMV, None, cov).weights, [0.8, 0.2], rtol=1e-14)


def test_gmv_matches_kkt_oracle():
    rng = np.random.default_rng(21)
    alpha, cov = random_instance(rng, 5)
    port = solve(Program.GMV, None, cov)
    kkt_check(port.weights, cov.entries, np.zeros(5), np.ones((1, 5)), [1.0])
    assert port.gearing == pytest.approx(1.0, abs=1e-14)


def test_risky_identity(micro_alpha, micro_cov):
    port = solve(Program.RISKY, micro_alpha, micro_cov)
    npt.assert_allclose(port.weights, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)
    assert port.program is Program.RISKY


def test_risky_dominates_sampled_sharpe():
    rng = np.random.default_rng(33)
    alpha, cov = random_instance(rng, 4)
    port = solve(Program.RISKY, alpha, cov)
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
        solve(Program.RISKY, AlphaVector([-0.1, 0.1]), CovMatrix.identity(2))


# ---------------------------------------------------------------------------
# Programs I-V (geared risky family)
# ---------------------------------------------------------------------------

def test_solve_I_binds_risk(micro_alpha, micro_cov):
    port = solve(Program.I, micro_alpha, micro_cov, sigma0=0.7)
    assert micro_cov.quad(port.weights) == pytest.approx(0.49, rel=1e-12)
    assert alpha_angle(port.weights, solve(Program.RISKY, micro_alpha, micro_cov).weights) == pytest.approx(1.0, abs=1e-12)


def test_solve_II_worked_example(micro_alpha, micro_cov):
    port = solve(Program.II, micro_alpha, micro_cov, alpha0=0.05)
    npt.assert_allclose(port.weights, [0.1, 0.2], rtol=1e-13)
    assert float(micro_alpha.entries @ port.weights) == pytest.approx(0.05, abs=1e-15)
    kkt_check(port.weights, micro_cov.entries, np.zeros(2),
              micro_alpha.entries[None, :], [0.05])


def test_solve_III_unit_gamma(micro_alpha, micro_cov):
    npt.assert_allclose(
        solve(Program.III, micro_alpha, micro_cov, gamma=1.0).weights, [0.1, 0.2], atol=1e-15
    )


def test_solve_IV_is_fully_invested_risky(micro_alpha, micro_cov):
    npt.assert_allclose(
        solve(Program.IV, micro_alpha, micro_cov).weights,
        solve(Program.RISKY, micro_alpha, micro_cov).weights,
        rtol=1e-14,
    )


def test_solve_V_gearing_one_equals_risky(micro_alpha, micro_cov):
    npt.assert_allclose(
        solve(Program.V, micro_alpha, micro_cov, g0=1.0).weights,
        solve(Program.RISKY, micro_alpha, micro_cov).weights,
        rtol=1e-14,
    )


def test_solve_V_linear_in_gearing(micro_alpha, micro_cov):
    one = solve(Program.V, micro_alpha, micro_cov, g0=1.0).weights
    two = solve(Program.V, micro_alpha, micro_cov, g0=2.0).weights
    npt.assert_allclose(two, 2.0 * one, rtol=1e-14)


def test_solve_V_sigma_variant(micro_alpha, micro_cov):
    port = solve(Program.V, micro_alpha, micro_cov, sigma0=1.0)
    assert port.params["g0"] == pytest.approx(0.3 / np.sqrt(0.05), rel=1e-12)
    assert micro_cov.quad(port.weights) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_nonpositive_parameters_rejected(micro_alpha, micro_cov, bad):
    with pytest.raises(NonPositiveParameter):
        solve(Program.I, micro_alpha, micro_cov, sigma0=bad)
    with pytest.raises(NonPositiveParameter):
        solve(Program.II, micro_alpha, micro_cov, alpha0=bad)
    with pytest.raises(NonPositiveParameter):
        solve(Program.III, micro_alpha, micro_cov, gamma=bad)


# ---------------------------------------------------------------------------
# Program VI
# ---------------------------------------------------------------------------

def test_solve_VI_gmv_inflection(micro_alpha, micro_cov):
    port = solve(Program.VI, micro_alpha, micro_cov, alpha0=0.15, g0=1.0)
    npt.assert_allclose(port.weights, [0.5, 0.5], atol=1e-13)


def test_solve_VI_worked_example(micro_alpha, micro_cov):
    port = solve(Program.VI, micro_alpha, micro_cov, alpha0=0.2, g0=1.0)
    npt.assert_allclose(port.weights, [0.0, 1.0], atol=1e-13)
    assert port.gearing == pytest.approx(1.0, abs=1e-13)
    assert float(micro_alpha.entries @ port.weights) == pytest.approx(0.2, abs=1e-13)
    kkt_check(port.weights, micro_cov.entries, np.zeros(2),
              np.vstack([micro_alpha.entries, np.ones(2)]), [0.2, 1.0])


def test_solve_VI_constraints_and_frontier_consistency():
    rng = np.random.default_rng(7)
    alpha, cov = random_instance(rng, 4)
    scal = FrontierScalars(alpha, cov)
    for alpha0 in np.linspace(scal.B / scal.A, 3 * scal.B / scal.A, 20):
        port = solve(Program.VI, alpha, cov, alpha0=float(alpha0), g0=1.0)
        assert float(alpha.entries @ port.weights) == pytest.approx(alpha0, rel=1e-10)
        assert port.gearing == pytest.approx(1.0, rel=1e-10)
        var = frontier_variance(scal, float(alpha0), 1.0)
        assert cov.quad(port.weights) == pytest.approx(var, rel=1e-10)


def test_solve_VI_table_form_equivalence():
    # (g0 - w) theta_0 + w theta_alpha with w = (B/D)(alpha0 A - g0 B)
    rng = np.random.default_rng(8)
    alpha, cov = random_instance(rng, 5)
    scal = FrontierScalars(alpha, cov)
    g0, alpha0 = 1.4, 0.12
    w = scal.B / scal.D * (alpha0 * scal.A - g0 * scal.B)
    mixed = ((g0 - w) * solve(Program.GMV, None, cov).weights
             + w * solve(Program.RISKY, alpha, cov).weights)
    port = solve(Program.VI, alpha, cov, alpha0=alpha0, g0=g0)
    npt.assert_allclose(port.weights, mixed, rtol=1e-10)


def test_solve_VI_cash_neutral_component(micro_alpha, micro_cov):
    theta0 = solve(Program.GMV, None, micro_cov).weights
    theta_a = solve(Program.RISKY, micro_alpha, micro_cov).weights
    assert float(np.sum(theta_a - theta0)) == pytest.approx(0.0, abs=1e-12)


def test_solve_VI_zero_gearing_is_cash_neutral(micro_alpha, micro_cov):
    with pytest.warns(InefficientBranchWarning):
        port = solve(Program.VI, micro_alpha, micro_cov, alpha0=-0.05, g0=0.0)
    assert port.gearing == pytest.approx(0.0, abs=1e-12)
    assert float(micro_alpha.entries @ port.weights) == pytest.approx(-0.05, abs=1e-13)


def test_solve_VI_warns_on_inefficient_branch(micro_alpha, micro_cov):
    with pytest.warns(InefficientBranchWarning):
        solve(Program.VI, micro_alpha, micro_cov, alpha0=0.05, g0=1.0)


def test_solve_VI_at_inflection_is_geared_gmv():
    rng = np.random.default_rng(13)
    alpha, cov = random_instance(rng, 5)
    scal = FrontierScalars(alpha, cov)
    for g0 in [0.5, 1.0, 1.7, -1.0]:
        port = solve(Program.VI, alpha, cov, alpha0=g0 * scal.B / scal.A, g0=g0)
        npt.assert_allclose(port.weights, g0 * solve(Program.GMV, None, cov).weights,
                            atol=1e-12, rtol=0)


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
def test_two_fund_separation(micro_alpha, micro_cov):
    rng = np.random.default_rng(12)
    for _ in range(25):
        alpha, cov = random_instance(rng, rng.integers(2, 7))
        a0, b0 = rng.uniform(0.05, 0.25, size=2)
        lam = rng.uniform(-0.5, 1.5)
        g0 = 1.0
        left = solve(Program.VI, alpha, cov, alpha0=lam * a0 + (1 - lam) * b0, g0=g0).weights
        right = lam * solve(Program.VI, alpha, cov, alpha0=a0, g0=g0).weights + (
            1 - lam
        ) * solve(Program.VI, alpha, cov, alpha0=b0, g0=g0).weights
        npt.assert_allclose(left, right, atol=1e-10)


# ---------------------------------------------------------------------------
# Program VII
# ---------------------------------------------------------------------------

def test_solve_VII_worked_example(micro_alpha, micro_cov):
    port = solve(Program.VII, micro_alpha, micro_cov, gamma=1.0, g0=1.0)
    npt.assert_allclose(port.weights, [0.45, 0.55], rtol=1e-13)
    kkt_check(port.weights, micro_cov.entries, micro_alpha.entries,
              np.ones((1, 2)), [1.0])
    # identity-covariance closed form g0 e + (alpha - mean)/gamma
    npt.assert_allclose(port.weights, [0.5 - 0.05, 0.5 + 0.05], rtol=1e-13)


def test_solve_VII_limits_to_gmv(micro_alpha, micro_cov):
    port = solve(Program.VII, micro_alpha, micro_cov, gamma=1e9, g0=1.0)
    npt.assert_allclose(port.weights, solve(Program.GMV, None, micro_cov).weights, atol=1e-6)


def test_solve_VII_relative_alpha_form():
    # [g0 I + (1/gamma) Sigma^-1 (alpha 1' - 1 alpha')] theta_0
    rng = np.random.default_rng(14)
    alpha, cov = random_instance(rng, 5)
    gamma, g0 = 2.5, 1.2
    theta0 = solve(Program.GMV, None, cov).weights
    outer = np.outer(alpha.entries, np.ones(5)) - np.outer(np.ones(5), alpha.entries)
    alt = g0 * theta0 + cov.solve(outer @ theta0) / gamma
    port = solve(Program.VII, alpha, cov, gamma=gamma, g0=g0)
    npt.assert_allclose(port.weights, alt, atol=1e-10)


def test_solve_VII_zero_gearing(micro_alpha, micro_cov):
    port = solve(Program.VII, micro_alpha, micro_cov, gamma=2.0, g0=0.0)
    assert port.gearing == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Program VIII
# ---------------------------------------------------------------------------

def test_solve_VIII_gearing_one(micro_alpha, micro_cov):
    npt.assert_allclose(
        solve(Program.VIII, micro_alpha, micro_cov, g0=1.0).weights,
        solve(Program.RISKY, micro_alpha, micro_cov).weights,
        rtol=1e-14,
    )


def test_solve_VIII_sharpe_scale_invariant(micro_alpha, micro_cov):
    def sharpe(w):
        return float(micro_alpha.entries @ w) / np.sqrt(micro_cov.quad(w))

    s1 = sharpe(solve(Program.VIII, micro_alpha, micro_cov, g0=1.0).weights)
    s3 = sharpe(solve(Program.VIII, micro_alpha, micro_cov, g0=3.0).weights)
    assert s3 == pytest.approx(s1, abs=1e-12)


def test_solve_VIII_dominance():
    rng = np.random.default_rng(55)
    alpha, cov = random_instance(rng, 5)
    g0 = 1.7
    port = solve(Program.VIII, alpha, cov, g0=g0)
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
        solve(Program.VIII, micro_alpha, micro_cov, g0=0.0)


def test_collinearity_family():
    rng = np.random.default_rng(77)
    alpha, cov = random_instance(rng, 6)
    risky = solve(Program.RISKY, alpha, cov).weights
    family = [
        solve(Program.I, alpha, cov, sigma0=0.4).weights,
        solve(Program.II, alpha, cov, alpha0=0.08).weights,
        solve(Program.III, alpha, cov, gamma=3.0).weights,
        solve(Program.IV, alpha, cov).weights,
        solve(Program.V, alpha, cov, g0=1.5).weights,
        solve(Program.VIII, alpha, cov, g0=2.0).weights,
    ]
    for member in family:
        assert alpha_angle(member, risky) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [50, 200, 500])
def test_unshrunk_closed_forms_match_the_kkt_oracle_at_scale(n):
    # Every linearly constrained QP of the table (GMV, II, III, VI, VII, and
    # RISKY as VI at the risky return C/B) against the bordered KKT system of
    # the entries, which never reads the spectrum the closed forms solve
    # through: each weight within 32 kappa eps of the largest. Largest seen:
    # 6.3 kappa eps, VI at n = 500, kappa = 1e2, where the O(n eps) floor of
    # both solvers dominates.
    rng = np.random.default_rng(70 + n)
    ones, zeros, none = np.ones((1, n)), np.zeros(n), np.zeros((0, n))
    for kappa in (1e2, 1e5, 1e8):
        cov = CovMatrix.from_entries(random_spd(rng, n, kappa=kappa))
        a = 5e-3 * (1.0 + 0.5 * rng.standard_normal(n))
        sigma, alpha0 = cov.entries, float(a.mean())
        scal = FrontierScalars(a, cov)
        both = np.vstack([a, ones])
        cases = {
            Program.GMV: ({}, KktProblem(sigma, zeros, ones, [1.0])),
            Program.II: ({"alpha0": alpha0},
                         KktProblem(sigma, zeros, a[None, :], [alpha0])),
            Program.III: ({"gamma": 2.0}, KktProblem(2.0 * sigma, a, none, [])),
            Program.VI: ({"alpha0": alpha0, "g0": 1.0},
                         KktProblem(sigma, zeros, both, [alpha0, 1.0])),
            Program.VII: ({"gamma": 2.0, "g0": 1.0},
                          KktProblem(2.0 * sigma, a, ones, [1.0])),
            Program.RISKY: ({}, KktProblem(sigma, zeros, both, [scal.C / scal.B, 1.0])),
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
    scal = FrontierScalars(micro_alpha, micro_cov)
    assert frontier_variance(scal, 0.15, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_frontier_variance_cash_neutral_branch(micro_alpha, micro_cov):
    scal = FrontierScalars(micro_alpha, micro_cov)
    assert frontier_variance(scal, 0.1, 0.0) == pytest.approx(
        0.1**2 * scal.A / scal.D, rel=1e-14
    )


def test_surface_single_gmv_point(micro_alpha, micro_cov):
    scal = FrontierScalars(micro_alpha, micro_cov)
    surface = pareto_surface(micro_alpha, micro_cov, [scal.B / scal.A], [1.0])
    assert surface.sigma_p.shape == (1, 1)
    assert surface.on_gmv.shape == surface.on_risky.shape == (1, 1)
    assert surface.on_gmv[0, 0]
    assert surface.sigma_p[0, 0] == pytest.approx(np.sqrt(1.0 / scal.A), rel=1e-14)


def test_surface_slice_matches_parabola(micro_alpha, micro_cov):
    scal = FrontierScalars(micro_alpha, micro_cov)
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
            w = solve(Program.VI, alpha, cov, alpha0=alpha_p, g0=g0).weights
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
    scal = FrontierScalars(micro_alpha, micro_cov)
    with np.errstate(over="ignore", invalid="ignore"):
        assert frontier_variance(scal, 1e200, 1.0) == np.inf
        assert frontier_variance(scal, 0.0, 1e300) == np.inf
        assert frontier_variance(scal, np.array([1e200, 0.1]), 1.0)[0] == np.inf


def test_frontier_variance_does_not_cancel_near_the_minimum_variance_line():
    # alpha = 5e-4 (1 + s z) puts every return near one value, so D/B^2 ~ s^2
    # and the expanded numerator alpha_p^2 A - 2 g0 alpha_p B + g0^2 C cancels
    # down to g0^2 D / A: evaluated so, it was off by 3e4 eps at s = 1e-2 and
    # by 7e15 eps at s = 1e-8. The completed square g0^2/A + (A/D) offset^2
    # carries A's rounding in its first term and D's in its second. D taken
    # as AC - B^2 was accurate only to eps AC/D, rounding noise at s = 1e-8
    # (where the frontier raised DegenerateAlpha on some seeds); taken as
    # A r'Sigma^-1 r it is accurate to a few eps at every spread, so the bound
    # carries no AC/D factor and every instance must evaluate. The offset is
    # taken about the mean m of alpha, (alpha_p - m) - (B/A - m): at
    # s = 1e-8 the whole span from the GMV line to the risky line is below an
    # ulp of alpha_p, and alpha_p - B/A with B/A rounded was off by an ulp.
    eps = np.finfo(float).eps
    fractions = [0.0, 1e-3, 1.0, 10.0]
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
            scal = FrontierScalars(alpha, cov)
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
                    bound = 128 * eps * (1.0 / scal.A + scal.A / scal.D * offset**2)
                    assert abs(frontier_variance(scal, alpha_p, 1.0) - exact) <= bound
                    assert abs(sigma_p - mpmath.sqrt(exact)) <= (
                        bound / (2 * sigma_p) + eps * sigma_p)


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
def test_D_and_the_II_and_VI_weights_hold_near_a_flat_alpha():
    # The instances above, against 60 digits: D, the II weights and the VI
    # weights at g0 = 1 within 4 kappa eps at every spread down to 1e-8
    # (largest seen: 0.9 kappa eps, II). Taken as alpha0 A - g0 B and
    # g0 C - alpha0 B over D, VI's multipliers cancel to eps AC/D, and at
    # s = 1e-8 its weights were off by up to 5e16 eps; the frontier forms VI as
    # g0 theta_0 + c_alpha Sigma^-1 r, with alpha0 - g0 B/A taken about the
    # mean m of alpha. A g0 other than 1 rounds g0 m, and VI's weights move
    # by about eps/s per ulp of g0: that is the program's own conditioning.
    eps = np.finfo(float).eps
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cov = CovMatrix.from_entries(random_spd(rng, 20, kappa=38.0, scale=1e-4))
        tolerance = 4.0 * cov.condition_number * eps
        z = rng.standard_normal(20)
        with mpmath.workdps(60):
            sigma = mpmath.matrix(cov.entries.tolist())
            si_ones = mpmath.lu_solve(sigma, mpmath.matrix([1] * 20))
        for spread in [1e-2, 1e-4, 1e-6, 1e-8]:
            alpha = 5e-4 * (1.0 + spread * z)
            with mpmath.workdps(60):
                si_alpha = mpmath.lu_solve(sigma, mpmath.matrix(alpha.tolist()))
                big_a, big_b = sum(si_ones), sum(si_alpha)
                big_c = mpmath.fdot(alpha.tolist(), si_alpha)
                big_d = big_a * big_c - big_b * big_b
                cases = [(Program.II, {"alpha0": 5e-4},
                          [5e-4 / big_c * v for v in si_alpha])]
                for target in (big_b / big_a, (big_b / big_a + big_c / big_b) / 2,
                               big_c / big_b, 2 * big_b / big_a):
                    x = mpmath.mpf(float(target))
                    lam1, lam2 = (x * big_a - big_b) / big_d, (big_c - x * big_b) / big_d
                    exact = [lam1 * u + lam2 * v for u, v in zip(si_alpha, si_ones)]
                    cases.append((Program.VI, {"alpha0": float(x), "g0": 1.0}, exact))
                scal = FrontierScalars(alpha, cov)
                assert abs(scal.D - big_d) <= tolerance * big_d
                for program, params, exact in cases:
                    got = solve(program, alpha, cov, **params).weights
                    err = max(abs(g - e) for g, e in zip(got, exact))
                    assert err <= tolerance * max(abs(e) for e in exact), (program, spread)


# ---------------------------------------------------------------------------
# Leverage
# ---------------------------------------------------------------------------

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
