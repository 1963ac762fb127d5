import math
import re

import mpmath
import numpy as np
import pytest

from holoext.bounds import (
    ExtensionScenario,
    ball_bound_integral_mc,
    ball_bound_integral,
    ball_bound_ratio,
    lift_route_rhs,
    minimal_norm_squared,
    sigma_mu,
    indicatrix_bound_rhs,
)
from holoext import scenarios
from holoext.errors import InfeasibleConstraintError
from holoext.green import BallPairModel, BallPointModel, RadialLiftModel
from holoext.scenarios import ScenarioConfig, run_scenario
from holoext.weights import EpsilonRegularizedProfile, LogSingularProfile, ScaledLogProfile

PI = math.pi


def _point_scenario(n):
    """Unit ball of C^n, V = {0}, phi = n u(log |z|^2) with u log-singular, f = 1."""
    return ExtensionScenario(ambient_dim=n, codim=n, profile=LogSingularProfile())


def _margin(scenario):
    """Indicatrix bound minus lift-route bound, as bound_comparison reports it."""
    return indicatrix_bound_rhs(scenario) - lift_route_rhs(scenario).value


def test_sigma_mu_small_cases():
    assert sigma_mu(1) == pytest.approx((PI, 2 * PI))
    assert sigma_mu(2) == pytest.approx((PI**2 / 2, 2 * PI**2))


def test_sigma_mu_consistency():
    for k in range(1, 7):
        sigma, mu = sigma_mu(k)
        assert mu == pytest.approx(2 * k * sigma, rel=1e-15)


def test_sigma_mu_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma_mu(0)


def _beta(x, y):
    return math.gamma(x) * math.gamma(y) / math.gamma(x + y)


def _mixed_fiber_integral(n, a, eps):
    """(mu_n / 2) int_0^1 (1 - x^(1/a))^(na) (1 - x)^(n eps) x^(n-1) dx at 30 digits."""
    with mpmath.workdps(30):
        a, eps = mpmath.mpf(a), mpmath.mpf(eps)
        integral = mpmath.quad(
            lambda x: (1 - x ** (1 / a)) ** (n * a) * (1 - x) ** (n * eps) * x ** (n - 1),
            [0, 1],
        )
        return float(mpmath.pi**n / mpmath.factorial(n - 1) * integral)


# (profile, integral_(B^n) e^(-2n psi) as a function of n, with mu_n / 2 = pi^n/(n-1)!)
LIFT_ROUTE_CASES = {
    "log_singular": (
        LogSingularProfile(),
        lambda n: PI**n / math.factorial(n - 1) * _beta(n, n + 1),
    ),
    "scaled_log_a0.5": (
        ScaledLogProfile(a=0.5),
        lambda n: PI**n / math.factorial(n - 1) * 0.5 * _beta(0.5 * n, 0.5 * n + 1),
    ),
    "scaled_log_a2": (
        ScaledLogProfile(a=2.0),
        lambda n: PI**n / math.factorial(n - 1) * 2.0 * _beta(2.0 * n, 2.0 * n + 1),
    ),
    "eps0.1": (
        EpsilonRegularizedProfile(LogSingularProfile(), eps=0.1),
        lambda n: PI**n / math.factorial(n - 1) * _beta(n, n * 1.1 + 1),
    ),
    "eps0.1_over_scaled_log_a0.5": (
        EpsilonRegularizedProfile(ScaledLogProfile(a=0.5), eps=0.1),
        lambda n: _mixed_fiber_integral(n, 0.5, 0.1),
    ),
}


@pytest.mark.parametrize("label", sorted(LIFT_ROUTE_CASES))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_route_closed_form(n, label):
    # V a point and f = 1: the lift route is the fiber integral of e^(-2n psi)
    profile, closed_form = LIFT_ROUTE_CASES[label]
    scenario = ExtensionScenario(ambient_dim=n, codim=n, profile=profile)
    assert lift_route_rhs(scenario).value == pytest.approx(closed_form(n), rel=1e-9)
    if label == "log_singular":
        assert closed_form(n) == pytest.approx(ball_bound_ratio(n), rel=1e-14)


@pytest.mark.parametrize("label", sorted(LIFT_ROUTE_CASES))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_model_indicatrix_integral_closed_form(n, label):
    # k = n: V = {(w)}, and integral_V e^(2k B) = integral_(B^n) e^(-2n psi)
    profile, closed_form = LIFT_ROUTE_CASES[label]
    model = RadialLiftModel(profile, pole_dim=n, base_dim=n)
    assert model.indicatrix_integral({(): 1.0}) == pytest.approx(closed_form(n), rel=1e-9)
    assert model.indicatrix_integral({(): 2.0}) == 4.0 * model.indicatrix_integral()


# (scaling_limit params, the model, integral_V e^(2k B) in closed form)
SCALING_LIMIT_CASES = [
    ({"model": "ball_point", "n": 2}, BallPointModel(2), 1.0),
    ({"model": "ball_pair", "n": 2, "k": 1}, BallPairModel(1, 2), PI**2 / 6),
    ({"model": "ball_pair", "n": 3, "k": 2}, BallPairModel(2, 3), PI**3 * 2 / 120),
    (
        {"model": "radial_lift", "n": 3, "k": 2, "profile": "log_singular"},
        RadialLiftModel(LogSingularProfile(), 2, 3),
        PI * PI**2 * 2 / 24,
    ),
]


@pytest.mark.parametrize("params, model, integral", SCALING_LIMIT_CASES, ids=str)
def test_scaling_limit_is_sigma_k_times_the_indicatrix_integral(params, model, integral):
    config = ScenarioConfig(
        scenario="scaling_limit", params={**params, "t_ladder": [-1.0]}, samples=1000, seed=0
    )
    values = {v.name: v.value for v in run_scenario(config).values}
    assert model.indicatrix_integral() == pytest.approx(integral, rel=1e-9)
    sigma_k, _ = sigma_mu(model.pole_dim)
    assert values["limit_value"] == sigma_k * model.indicatrix_integral()


# a str or bool is rejected before complex(), which would read "2" as 2 and True as 1
@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, complex(1.0, -math.inf), "2", True, None], ids=repr
)
def test_extension_scenario_rejects_data_that_is_not_a_finite_number(bad):
    with pytest.raises(ValueError):
        ExtensionScenario(2, 2, LogSingularProfile(), {(): bad})
    with pytest.raises(ValueError):
        ExtensionScenario(3, 1, LogSingularProfile(), {(0, 0): 1.0, (1, 0): bad})


@pytest.mark.parametrize("coeff", [np.float64(2.0), np.int64(2), np.complex64(2.0)], ids=repr)
def test_extension_scenario_accepts_numpy_scalars(coeff):
    assert ExtensionScenario(1, 1, LogSingularProfile(), {(): coeff}).f_coeffs == {(): 2.0}


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_radial_lift_scaling_limit_closed_form(n, k):
    config = ScenarioConfig(
        scenario="scaling_limit",
        params={"model": "radial_lift", "n": n, "k": k, "t_ladder": [-1.0]},
        samples=1000,
        seed=0,
    )
    values = {v.name: v.value for v in run_scenario(config).values}
    sigma_k, _ = sigma_mu(k)
    fiber = PI**k * math.factorial(k) / math.factorial(2 * k)
    expected = PI ** (n - k) / math.factorial(n - k) * sigma_k * fiber
    assert values["limit_value"] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize(
    "params, tol",
    [
        ({"model": "ball_point", "n": 2}, 1e-2),
        ({"model": "ball_pair", "n": 2, "k": 2}, 5e-2),
        ({"model": "radial_lift", "n": 2, "k": 1}, 5e-2),
    ],
    ids=str,
)
def test_scaling_limit_checks_each_level_against_the_limit(params, tol):
    # one limit check per level; the pair model's box is too coarse for 1% at
    # n = k = 3 and the k < n lift only approaches the limit, so both get 5%
    ladder = [-4, -8, -12]
    config = ScenarioConfig(
        scenario="scaling_limit", params={**params, "t_ladder": ladder}, samples=20_000, seed=5
    )
    report = run_scenario(config)
    limit = report.values[0].value
    assert [a.name for a in report.assertions] == [f"matches_limit_t={t}" for t in ladder]
    assert all(a.rhs == limit and a.tol == tol for a in report.assertions)


def test_extension_scenario_requires_a_radial_profile():
    with pytest.raises(ValueError, match="RadialProfile"):
        ExtensionScenario(1, 1, None)


def test_indicatrix_bound_direct_values():
    assert indicatrix_bound_rhs(_point_scenario(2)) == pytest.approx(PI**2 / 2, rel=1e-14)
    assert indicatrix_bound_rhs(_point_scenario(1)) == pytest.approx(PI, rel=1e-14)
    lifted_pair = ExtensionScenario(ambient_dim=4, codim=2, profile=LogSingularProfile())
    assert indicatrix_bound_rhs(lifted_pair) == pytest.approx(PI**4 / 24, rel=1e-14)


def test_indicatrix_bound_zero_data():
    scenario = ExtensionScenario(
        ambient_dim=2, codim=2, profile=LogSingularProfile(), f_coeffs={(): 0.0}
    )
    assert indicatrix_bound_rhs(scenario) == 0.0


def test_strictness_gap_examples():
    assert _margin(_point_scenario(1)) == pytest.approx(PI / 2, rel=1e-9)
    assert _margin(_point_scenario(2)) == pytest.approx(
        5 * PI**2 / 12, rel=1e-9
    )


def test_strictness_gap_zero_data_flagged_non_strict():
    scenario = ExtensionScenario(
        ambient_dim=1, codim=1, profile=LogSingularProfile(), f_coeffs={(): 0.0}
    )
    assert _margin(scenario) == 0.0


def test_strictly_sharper_fails_on_a_zero_margin(monkeypatch):
    # an indicatrix bound equal to the lift route leaves no margin: not strict
    monkeypatch.setattr(
        scenarios, "indicatrix_bound_rhs", lambda scenario: scenarios.lift_route_rhs(scenario).value
    )
    report = run_scenario(ScenarioConfig("bound_comparison", {"n": 1, "k": 1}))
    record = {a.name: a for a in report.assertions}["strictly_sharper"]
    assert (record.passed, record.lhs, record.rhs, record.tol) == (False, 0.0, 0.0, 0.0)
    assert not report.passed


def test_ball_bound_ratio_values():
    assert ball_bound_ratio(1) == pytest.approx(PI / 2, abs=1e-14)
    assert ball_bound_ratio(2) == pytest.approx(PI**2 / 12, abs=1e-14)
    assert ball_bound_ratio(3) == pytest.approx(PI**3 / 120, abs=1e-14)


def test_ball_bound_ratio_below_one_and_decreasing():
    ratios = [ball_bound_ratio(n) for n in range(2, 7)]
    assert all(r < 1.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ball_bound_ratio(1) >= 1.0


def test_ball_bound_ratio_equals_ball_integral():
    for n in (1, 2, 3, 4):
        quad = ball_bound_integral(n)
        assert quad.value == pytest.approx(ball_bound_ratio(n), rel=1e-10)


def test_ball_bound_integral_mc_cross_check():
    mc = ball_bound_integral_mc(2, 400_000, seed=9)
    assert mc.value == pytest.approx(ball_bound_ratio(2), rel=1e-2)
    assert abs(mc.value - ball_bound_ratio(2)) <= 3 * mc.error_estimate


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bound_ratio_scenario_passes_up_to_its_largest_n(n):
    # the ball is its own proposal, so at the default 10^6 samples the 99%
    # half-width is 0.5%, 0.8% and 1.2% of the integral at n = 3, 4 and 5; in
    # the polydisc, whose draws hit the ball in 1/n!, it was 1.4%, 3.8% and 13.9%
    # and n = 4 and 5 failed the 1% check
    config = ScenarioConfig.from_mapping({"scenario": "bound_ratio", "params": {"n": n}, "seed": 2026})
    report = run_scenario(config)
    assert report.passed, [a for a in report.assertions if not a.passed]


def test_bound_report_disc():
    disc = _point_scenario(1)
    assert indicatrix_bound_rhs(disc) == pytest.approx(PI, rel=1e-14)
    assert lift_route_rhs(disc).value == pytest.approx(PI / 2, rel=1e-9)
    assert minimal_norm_squared(disc).norm_squared == pytest.approx(PI / 2, rel=1e-9)
    assert _margin(disc) > 0.0


def test_bound_ordering_point_slices():
    for scenario in (_point_scenario(1), _point_scenario(2)):
        lift = lift_route_rhs(scenario).value
        assert minimal_norm_squared(scenario).norm_squared <= lift * (1 + 1e-6)
        assert lift <= indicatrix_bound_rhs(scenario) * (1 + 1e-12)


def test_bound_ordering_strict_slice():
    # n > k: the flat extension beats the lift-route bound strictly
    scenario = ExtensionScenario(
        ambient_dim=2,
        codim=1,
        profile=LogSingularProfile(),
        degree=8,
    )
    lift = lift_route_rhs(scenario).value
    assert minimal_norm_squared(scenario).norm_squared < lift
    assert lift <= indicatrix_bound_rhs(scenario) * (1 + 1e-12)
    assert _margin(scenario) > 0.0


def test_bound_ordering_scaled_profile():
    scenario = ExtensionScenario(
        ambient_dim=1,
        codim=1,
        profile=ScaledLogProfile(a=0.5),
        degree=10,
    )
    lift = lift_route_rhs(scenario).value
    assert minimal_norm_squared(scenario).norm_squared <= lift * (1 + 1e-4)
    assert lift <= indicatrix_bound_rhs(scenario) * (1 + 1e-12)


def test_radial_optimality_equalities():
    for scenario in (_point_scenario(1), _point_scenario(2)):
        assert minimal_norm_squared(scenario).norm_squared == pytest.approx(
            lift_route_rhs(scenario).value, rel=1e-6
        )


def test_improvement_factors():
    for n, factor in ((1, 2.0), (2, 6.0)):
        scenario = _point_scenario(n)
        ratio = indicatrix_bound_rhs(scenario) / lift_route_rhs(scenario).value
        assert ratio == pytest.approx(factor, rel=1e-9)


def test_polynomial_data_moments():
    # f(z_2) = z_2 on V = {z_1 = 0} in C^2: the indicatrix bound is
    # sigma_1 * int |z_2|^2 (1-|z_2|^2) dV = pi * pi/6
    scenario = ExtensionScenario(
        ambient_dim=2,
        codim=1,
        profile=LogSingularProfile(),
        f_coeffs={(1,): 1.0},
    )
    assert indicatrix_bound_rhs(scenario) == pytest.approx(PI**2 / 6, rel=1e-14)
    solved = minimal_norm_squared(scenario)
    assert solved.norm_squared == pytest.approx(PI**2 / 8, rel=1e-9)
    assert solved.norm_squared < lift_route_rhs(scenario).value


def test_scenario_validation():
    with pytest.raises(ValueError):
        ExtensionScenario(ambient_dim=1, codim=2, profile=LogSingularProfile())
    with pytest.raises(ValueError):
        ExtensionScenario(
            ambient_dim=2, codim=1, profile=LogSingularProfile(), f_coeffs={(1, 2): 1.0}
        )


@pytest.mark.parametrize("index", [(-1,), (1.0,), (0.5,), (True,)], ids=repr)
def test_extension_scenario_rejects_a_bad_multi_index(index):
    # caught before either bound or the solve starts, naming the index
    message = re.escape(repr(index)) + " must be 1 non-negative integer"
    with pytest.raises(InfeasibleConstraintError, match=message):
        ExtensionScenario(2, 1, LogSingularProfile(), {index: 1.0})


def test_quadrature_mc_sigma_consistency():
    # sampled ball volume agrees with sigma_n from exact arithmetic
    from holoext.geometry import Ball
    from holoext.integrate import volume

    sigma_2, _ = sigma_mu(2)
    res = volume(Ball(1.0, 2), 400_000, seed=10)
    assert abs(res.value - sigma_2) <= 3 * res.error_estimate
