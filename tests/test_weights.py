import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoext.errors import DomainError
from holoext.geometry import sq_moduli
from holoext.green import RadialLiftModel
from holoext.weights import (
    BallStandardWeight,
    EpsilonRegularizedProfile,
    LogSingularProfile,
    RadialWeight,
    ScaledLogProfile,
    EpsilonRegularizedWeight,
    TrivialWeight,
    make_profile,
)

CATALOG = [
    LogSingularProfile(),
    ScaledLogProfile(a=0.5),
    ScaledLogProfile(a=2.0),
    EpsilonRegularizedProfile(LogSingularProfile(), eps=0.25),
    EpsilonRegularizedProfile(ScaledLogProfile(a=1.5), eps=0.4),
]


def test_ball_standard_vanishes_at_origin():
    assert BallStandardWeight(2).value([0.0, 0.0]) == 0.0


def test_radial_weight_direct_substitution():
    w = RadialWeight(LogSingularProfile(), 1)
    assert w.value([0.6]) == pytest.approx(-math.log(1 - 0.36), abs=1e-12)


def test_trivial_weight_is_zero_everywhere():
    w = TrivialWeight()
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert w.value(rng.uniform(-1, 1, 4).view(complex)) == 0.0


def test_radial_weight_zero_on_pole_slice():
    w = RadialWeight(LogSingularProfile(), 1)
    assert w.value([0.0, 0.3 + 0.4j]) == 0.0


def test_weight_outside_slice_radius_raises():
    w = RadialWeight(LogSingularProfile(), 1)
    with pytest.raises(DomainError):
        w.value([1.0])
    with pytest.raises(DomainError):
        BallStandardWeight(1).value([1.2])


def test_profile_inverse_examples():
    u = LogSingularProfile()
    assert u.inverse(0.0) == -math.inf
    assert u.inverse(math.log(2)) == pytest.approx(math.log(0.5), abs=1e-14)


def _mp_log1mexp(x):
    """log(1 - e^(-x)) at 30 digits; each branch is well conditioned there."""
    mpmath.mp.dps = 30
    x = mpmath.mpf(x)
    return mpmath.log(-mpmath.expm1(-x)) if x < 1 else mpmath.log1p(-mpmath.exp(-x))


@pytest.mark.parametrize(
    "profile, outer, inner",
    [
        (LogSingularProfile(), 1.0, 1.0),
        (ScaledLogProfile(a=0.5), 0.5, 0.5),
        (ScaledLogProfile(a=2.0), 2.0, 2.0),
        (EpsilonRegularizedProfile(LogSingularProfile(), eps=0.25), 1.0, 1.25),
    ],
    ids=["log_singular", "scaled_a0.5", "scaled_a2", "regularized_log"],
)
def test_closed_form_inverse_keeps_relative_precision(profile, outer, inner):
    # u^(-1)(s) = outer * log(1 - e^(-s/inner))
    s = np.geomspace(1e-300, 700.0, 200)
    exact = [float(outer * _mp_log1mexp(x / inner)) for x in s]
    np.testing.assert_allclose(profile.inverse(s), exact, rtol=1e-15, atol=0.0)
    assert profile.inverse(1e-17) == pytest.approx(outer * math.log(1e-17 / inner), rel=1e-15)


def _mixed_root(a, eps, s):
    """30-digit root t of -a log(1 - e^(t/a)) - eps log(1 - e^t) = s, bisected in log(-t)."""
    mpmath.mp.dps = 30
    a, eps, s = mpmath.mpf(a), mpmath.mpf(eps), mpmath.mpf(s)

    def excess(x):
        t = -mpmath.exp(x)
        return -a * mpmath.log(-mpmath.expm1(t / a)) - eps * mpmath.log(-mpmath.expm1(t)) - s

    lo, hi = mpmath.mpf(-2000), mpmath.mpf(10)  # excess falls as x = log(-t) grows
    for _ in range(120):
        mid = (lo + hi) / 2
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return -mpmath.exp((lo + hi) / 2)


@pytest.mark.parametrize("a, eps", [(0.5, 0.1), (2.0, 0.1), (0.5, 0.5)])
def test_mixed_profile_inverse_against_mpmath(a, eps):
    profile = EpsilonRegularizedProfile(ScaledLogProfile(a), eps)
    s = np.geomspace(1e-2, 300.0, 25)
    exact = [float(_mixed_root(a, eps, x)) for x in s]
    np.testing.assert_allclose(profile.inverse(s), exact, rtol=1e-13, atol=0.0)
    wide = np.geomspace(1e-300, 700.0, 400)
    assert np.all(np.isfinite(profile.inverse(wide)))
    assert profile.inverse(0.0) == -math.inf


def test_mixed_profile_inverse_closes_the_widest_start_gap():
    # at a = eps the start sits about s / (2a) below the root in log(-t); past
    # s = 709a the step's derivative overflows, so s = 700a is about the widest
    # gap a start can have, and it takes 80 of the _NEWTON_STEPS Newton steps.
    # The grid above runs to s = 300, past where this a's inverse returns its
    # underflowed start unrefined, so this a gets its own s
    a = 0.05
    profile = EpsilonRegularizedProfile(ScaledLogProfile(a), a)
    s = np.array([30.0 * a, 600.0 * a, 700.0 * a])
    exact = [float(_mixed_root(a, a, x)) for x in s]
    np.testing.assert_allclose(profile.inverse(s), exact, rtol=1e-13, atol=0.0)
    assert np.all(np.isfinite(profile.inverse(np.geomspace(1e-300, 700.0, 400))))


def test_profile_inverse_rejects_negative():
    with pytest.raises(ValueError):
        LogSingularProfile().inverse(-0.1)


def test_log_singular_profile_is_the_scaled_profile_at_one():
    # t / 1.0 and 1.0 * x are exact, so the two give the same bytes
    ls, scaled = LogSingularProfile(), ScaledLogProfile(1.0)
    t = np.concatenate([-np.logspace(-14, 2, 200), [-np.inf]])
    s = np.concatenate([np.logspace(-14, 2, 200), [0.0]])
    for name, x in (("value", t), ("derivative", t), ("inverse", s)):
        for arg in (x, float(x[0]), float(x[100]), float(x[-1])):
            got = np.asarray(getattr(ls, name)(arg))
            assert got.tobytes() == np.asarray(getattr(scaled, name)(arg)).tobytes(), name
    assert repr(ls) == "LogSingularProfile()"
    with pytest.raises(TypeError):
        LogSingularProfile(a=2.0)


@pytest.mark.parametrize("profile", CATALOG, ids=lambda p: type(p).__name__)
def test_inverse_round_trip(profile):
    rng = np.random.default_rng(42)
    s = np.concatenate([rng.uniform(1e-8, 40.0, 200), [1e-14, 0.5, 39.9]])
    t = profile.inverse(s)
    assert np.max(np.abs(profile.value(t) - s)) < 1e-12


@settings(max_examples=150)
@given(s=st.floats(min_value=1e-6, max_value=30.0))
def test_inverse_round_trip_property(s):
    u = LogSingularProfile()
    assert abs(u.value(u.inverse(s)) - s) < 1e-12


def test_profile_limits():
    for profile in CATALOG:
        # u -> 0 at -inf, u -> +inf at the blow-up
        assert profile.value(-np.inf) == 0.0
        assert profile.value(np.asarray([-1e-13]))[0] > 10.0
        ts = np.linspace(-8.0, -0.1, 50)
        assert np.all(np.diff(profile.value(ts)) > 0)


def _psi(profile, w):
    """The fiber function psi(w) = -u^(-1)(-log |w|^2) / 2: minus the gap of
    the Hartogs lift of the disc at (0, w)."""
    return -RadialLiftModel(profile, 1, 1).gap((0, w))


def test_psi_closed_form():
    u = LogSingularProfile()
    assert _psi(u, 0.6) == pytest.approx(-0.5 * math.log(1 - 0.36), abs=1e-13)


def test_psi_domain_and_limits():
    u = LogSingularProfile()
    with pytest.raises(DomainError):
        _psi(u, 1.0)
    # limit value at the center of the fiber; blows up toward the fiber boundary
    assert _psi(u, 0.0) == 0.0
    assert _psi(u, 1.0 - 1e-9) > 9.0


@pytest.mark.parametrize("profile", CATALOG, ids=lambda p: type(p).__name__)
def test_psi_monotone_in_radius(profile):
    # psi increases with |w| for every catalog profile (e^(-2k psi) = the
    # shrinking fiber volume factor)
    radii = np.linspace(1e-3, 1 - 1e-3, 1000)
    values = np.array([_psi(profile, r) for r in radii])
    assert np.all(np.diff(values) > 0)
    assert values[0] < 1e-2


def test_epsilon_regularize_of_trivial_weight():
    w = EpsilonRegularizedWeight(TrivialWeight(), 0.3)
    for r in (0.1, 0.5, 0.9):
        assert w.value([r]) == pytest.approx(-0.3 * math.log(1 - r * r), abs=1e-13)


def test_epsilon_regularize_converges_pointwise():
    base = RadialWeight(LogSingularProfile(), 1)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.45, 0.45, (100, 4)).view(complex)
    for eps in (1e-1, 1e-2, 1e-3):
        w = EpsilonRegularizedWeight(base, eps)
        gaps = [abs(w.value(p) - base.value(p)) for p in pts]
        assert max(gaps) < eps * 3.0


def test_epsilon_regularized_weight_diverges_at_boundary():
    eps = 0.2
    w = EpsilonRegularizedWeight(TrivialWeight(), eps)
    r = math.sqrt(1.0 - 1e-6)
    assert w.value([r]) > 10.0 * eps


def test_epsilon_regularize_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        EpsilonRegularizedWeight(TrivialWeight(), 0.0)
    with pytest.raises(ValueError):
        EpsilonRegularizedProfile(LogSingularProfile(), -0.1)


def test_regularized_profile_exceeds_inner_and_diverges():
    inner = ScaledLogProfile(a=1.5)
    reg = EpsilonRegularizedProfile(inner, eps=0.4)
    ts = np.linspace(-6.0, -0.05, 40)
    assert np.all(reg.value(ts) > inner.value(ts))
    assert reg.value(np.asarray([-1e-12]))[0] > 10.0


@pytest.mark.parametrize("profile", CATALOG, ids=lambda p: type(p).__name__)
def test_profile_convexity_sampled(profile):
    rng = np.random.default_rng(9)
    for _ in range(400):
        t1, t2 = np.sort(rng.uniform(-15.0, -1e-3, 2))
        lam = rng.uniform(0.0, 1.0)
        mid = lam * t1 + (1 - lam) * t2
        chord = lam * profile.value(t1) + (1 - lam) * profile.value(t2)
        assert profile.value(mid) <= chord + 1e-12


def test_psi_subharmonic_circle_means():
    rng = np.random.default_rng(13)
    theta = 2 * np.pi * np.arange(64) / 64
    for profile in CATALOG:
        for _ in range(25):
            radius = rng.uniform(0.1, 0.9)
            angle = rng.uniform(0, 2 * np.pi)
            w0 = radius * np.exp(1j * angle)
            rho = min(0.02, 0.5 * (0.95 - radius))
            circle = w0 + rho * np.exp(1j * theta)
            mean = np.mean([_psi(profile, w) for w in circle])
            assert _psi(profile, w0) <= mean + 1e-8


def test_make_profile_parsing():
    assert isinstance(make_profile("log_singular"), LogSingularProfile)
    scaled = make_profile({"kind": "scaled_log", "a": 2.0})
    assert isinstance(scaled, ScaledLogProfile) and scaled.a == 2.0
    reg = make_profile({"kind": "epsilon_regularized", "eps": 0.5})
    assert isinstance(reg, EpsilonRegularizedProfile)
    with pytest.raises(ValueError):
        make_profile("unknown_kind")
    assert make_profile({"kind": "scaled_log", "a": 10}).a == 10.0
    for spec in (
        {"kind": "scaled_log", "a": "0.5"},
        {"kind": "scaled_log", "a": True},
        {"kind": "scaled_log", "a": 10.5},
        {"kind": "epsilon_regularized", "eps": False},
        {"kind": "epsilon_regularized", "eps": 1e308},
    ):
        with pytest.raises(ValueError):
            make_profile(spec)


@settings(max_examples=60)
@given(
    r=st.floats(min_value=0.01, max_value=0.99),
    k=st.integers(min_value=1, max_value=3),
)
def test_radial_weight_matches_profile_composition(r, k):
    prof = LogSingularProfile()
    w = RadialWeight(prof, k)
    point = np.zeros(k + 1, dtype=complex)
    point[0] = r
    expected = k * float(prof.value(math.log(r * r)))
    assert w.value(point) == pytest.approx(expected, rel=1e-14)


SCALAR_BATCH_WEIGHTS = [
    TrivialWeight(),
    BallStandardWeight(2),
    *(RadialWeight(profile, 1) for profile in CATALOG),
    RadialWeight(LogSingularProfile(), 2),
    EpsilonRegularizedWeight(RadialWeight(ScaledLogProfile(a=0.5), 1), 0.3),
]


@settings(max_examples=100)
@given(
    coords=st.lists(
        st.complex_numbers(max_magnitude=1.2, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=2,
    )
)
def test_scalar_value_is_the_batch_row(coords):
    p = np.asarray(coords)
    for weight in SCALAR_BATCH_WEIGHTS:
        batch = weight.value_batch(sq_moduli(p)[None, :])[0]
        if batch == np.inf:
            with pytest.raises(DomainError):
                weight.value(p)
        else:
            assert weight.value(p) == batch


def test_epsilon_regularized_weight_outside_ball_raises():
    w = EpsilonRegularizedWeight(TrivialWeight(), 0.1)
    for p in ([1.0], [0.8, 0.8j], [0.0, 1.5]):
        with pytest.raises(DomainError):
            w.value(p)


NONNEGATIVE_WEIGHTS = [
    TrivialWeight(),
    BallStandardWeight(2),
    *(RadialWeight(profile, k) for profile in CATALOG for k in (1, 2)),
    *(EpsilonRegularizedWeight(RadialWeight(profile, 1), 0.3) for profile in CATALOG),
    EpsilonRegularizedWeight(TrivialWeight(), 0.1),
    EpsilonRegularizedWeight(BallStandardWeight(2), 0.2),
]


@settings(max_examples=100)
@given(
    coords=st.lists(
        st.complex_numbers(max_magnitude=0.707, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=2,
    )
)
def test_weights_are_nonnegative_on_the_unit_ball(coords):
    # phi >= 0 is what bounds the Hartogs lift's fiber by the unit ball
    x = sq_moduli(np.asarray(coords))[None, :]
    for weight in NONNEGATIVE_WEIGHTS:
        assert weight.value_batch(x)[0] >= 0.0


# the profiles of the benchmark's radial_grid workload
GRID_PROFILE_SPECS = [
    "log_singular",
    {"kind": "scaled_log", "a": 0.5},
    {"kind": "scaled_log", "a": 2.0},
    {"kind": "epsilon_regularized", "eps": 0.1},
    {"kind": "epsilon_regularized", "eps": 0.1, "inner": {"kind": "scaled_log", "a": 0.5}},
]


@pytest.mark.parametrize("spec", GRID_PROFILE_SPECS, ids=str)
@pytest.mark.parametrize("k", [1, 2])
def test_radial_weight_batch_is_finite_exactly_below_the_unit_slice(spec, k):
    # 0 < |z'|^2 < 1 is where log |z'|^2 < 0, the profile's domain; the
    # trailing coordinate is not part of z' and does not count
    profile = make_profile(spec)
    inside = [5e-324, 1e-300, 0.5, 1.0 - 2.0**-53]
    outside = [1.0, 1.0 + 2.0**-52, 2.0]
    x = np.zeros((1 + len(inside) + len(outside), k + 1))
    x[:, 0] = [0.0, *inside, *outside]
    x[:, k] = 0.7
    expected = np.concatenate(
        [[0.0], k * profile.value(np.log(np.array(inside))), np.full(len(outside), np.inf)]
    )
    assert RadialWeight(profile, k).value_batch(x).tobytes() == expected.tobytes()


def _mp_lift_factor(profile, s):
    """exp(-u(log s)) at 30 digits, from the profile's formula for u."""
    mpmath.mp.dps = 30
    t = mpmath.log(mpmath.mpf(s)) if s > 0 else mpmath.mpf("-inf")
    if t == mpmath.mpf("-inf"):
        return mpmath.mpf(1)

    def u(p):
        if isinstance(p, EpsilonRegularizedProfile):
            return u(p.inner) - p.eps * mpmath.log(-mpmath.expm1(t))
        return -p.a * mpmath.log(-mpmath.expm1(t / p.a))

    return mpmath.exp(-u(profile))


FACTOR_PROFILES = [
    *CATALOG,
    *(make_profile(spec) for spec in GRID_PROFILE_SPECS[3:]),
    ScaledLogProfile(a=10.0),
    ScaledLogProfile(a=1e-3),
]


@pytest.mark.parametrize("profile", FACTOR_PROFILES, ids=repr)
def test_factor_is_the_exponential_of_minus_u_of_log(profile):
    # the lift's fiber bound e^(-u(log s)) as a product of powers: within a
    # few ulps of 1 of the 30-digit value, which is what a membership test
    # against |w|^2 in [0, 1) sees; 1 at s = 0
    s = np.concatenate([np.arange(64) / 64.0, np.linspace(0.0, 0.999, 1000)])
    got = profile.factor(s)
    want = np.array([float(_mp_lift_factor(profile, v)) for v in s])
    assert np.all(np.abs(got - want) <= 4 * 2.0**-52)
    assert profile.factor(0.0) == 1.0
    if isinstance(profile, LogSingularProfile):
        assert got.tobytes() == (1.0 - s).tobytes()
