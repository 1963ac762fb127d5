import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import checked_azukawa
from holoext import green, integrate
from holoext.errors import DegenerateDomainError, DomainError
from holoext.geometry import Ball, sq_moduli
from holoext.green import (
    AzukawaForm,
    BallPairModel,
    BallPointModel,
    RadialLiftModel,
    sublevel_scaling,
)
from holoext.integrate import _BLOCK, _SHARD_SIZE, _disc_radii
from holoext.weights import EpsilonRegularizedProfile, LogSingularProfile, ScaledLogProfile

PI = math.pi

MODELS = [
    BallPointModel(2),
    BallPairModel(pole_dim=1, base_dim=1),
    BallPairModel(pole_dim=2, base_dim=2),
    RadialLiftModel(LogSingularProfile(), pole_dim=1, base_dim=1),
    RadialLiftModel(ScaledLogProfile(a=0.5), pole_dim=1, base_dim=1),
    RadialLiftModel(LogSingularProfile(), pole_dim=1, base_dim=2),
]


def _interior_points(model, count, rng):
    """Rejection-sample interior points of the model domain."""
    domain = model.domain()
    radii = _disc_radii(domain.bounding_balls())
    out = []
    while len(out) < count:
        block = rng.uniform(-1, 1, (4 * count, 2 * len(radii)))
        pts = (block[:, : len(radii)] + 1j * block[:, len(radii) :]) * radii
        keep = domain.contains_moduli(sq_moduli(pts))
        out.extend(pts[keep])
    return np.asarray(out[:count])


def test_green_values_on_model_examples():
    assert BallPairModel(1, 1).green([0.5, 0.0]) == pytest.approx(math.log(0.5))
    assert BallPointModel(2).green([0.25, 0.0]) == pytest.approx(math.log(0.25))
    lift = RadialLiftModel(LogSingularProfile(), 1, 1)
    expected = math.log(0.5) - 0.5 * math.log(1.0 - 0.36)  # psi(w) = -log(1 - |w|^2) / 2
    assert lift.green([0.5, 0.6]) == pytest.approx(expected, abs=1e-12)


def test_green_is_minus_infinity_on_poles():
    assert BallPointModel(2).green([0.0, 0.0]) == -math.inf
    assert BallPairModel(1, 1).green([0.0, 0.5]) == -math.inf


def test_green_outside_domain_raises():
    with pytest.raises(DomainError):
        BallPointModel(2).green([1.5, 0.0])


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_green_negative_on_interior(model):
    rng = np.random.default_rng(100)
    pts = _interior_points(model, 100_000, rng)
    values = model.green_batch(sq_moduli(pts))
    assert np.all(values < 0.0)


def test_gap_function_examples():
    pair = BallPairModel(1, 1)
    # exact rearrangement: B = log |psi| - G = log sqrt(1 - |w|^2)
    p = [0.1, math.sqrt(0.75)]
    assert pair.gap(p) == pytest.approx(0.5 * math.log(0.25), abs=1e-12)
    assert pair.gap([0.3, 0.0]) == 0.0
    lift = RadialLiftModel(LogSingularProfile(), 1, 1)
    assert lift.gap([0.5, 0.6]) == pytest.approx(0.5 * math.log(1.0 - 0.36), abs=1e-12)
    assert lift.gap([0.5, 0.6]) <= 0.0


def test_mixed_scale_gap_next_to_the_fiber_boundary_raises_instead_of_hanging():
    # s = -log(1 - 1e-15) = 2.0e-15: the Newton inverse's rounded residual
    # never settles there, and the iterate crept down a few ulps per step for ever
    profile = EpsilonRegularizedProfile(ScaledLogProfile(a=0.5), eps=0.1)
    with pytest.raises(DomainError, match=r"EpsilonRegularizedProfile.*s = \[1\.99"):
        RadialLiftModel(profile, 1, 1).gap([0.0, 1.0 - 1e-15])


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_gap_identity_log_psi_minus_B_equals_green(model):
    rng = np.random.default_rng(7)
    pts = _interior_points(model, 200, rng)
    k = model.pole_dim
    for p in pts:
        norm = float(np.linalg.norm(p[:k]))
        if norm < 1e-12:
            continue
        assert math.log(norm) - model.gap(p) == pytest.approx(
            model.green(p), abs=1e-10
        )


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_membership_gap_bounded_near_poles(model):
    # G - log |psi| = -B stays bounded on samples near the pole set; shrinking
    # the pole block keeps every catalog domain's membership, so near-pole
    # points can be built directly from interior samples
    rng = np.random.default_rng(8)
    pts = _interior_points(model, 500, rng)
    k = model.pole_dim
    pts[:, :k] *= 0.05
    near = [p for p in pts if 0 < np.linalg.norm(p[:k]) < 0.1]
    assert len(near) > 400
    gaps = [model.green(p) - math.log(np.linalg.norm(p[:k])) for p in near]
    assert np.all(np.isfinite(gaps))
    assert max(gaps) < 50.0


@pytest.mark.parametrize(
    "model",
    [BallPointModel(2), BallPairModel(1, 1), RadialLiftModel(ScaledLogProfile(0.5), 1, 1)],
    ids=lambda m: repr(m),
)
def test_green_circle_submean_property(model):
    rng = np.random.default_rng(23)
    theta = 2 * PI * np.arange(64) / 64
    domain = model.domain()
    checked = 0
    pts = _interior_points(model, 500, rng)
    for p in pts:
        if checked >= 40:
            break
        v = rng.normal(size=len(p)) + 1j * rng.normal(size=len(p))
        v /= np.linalg.norm(v)
        rho = 0.02
        circle = p[None, :] + rho * np.outer(np.exp(1j * theta), v)
        x = sq_moduli(circle)
        if not domain.contains_moduli(x).all():
            continue
        values = model.green_batch(x)
        center = model.green(p)
        if not np.isfinite(center):
            continue
        assert center <= np.mean(values) + 1e-6
        checked += 1
    assert checked >= 40


def test_azukawa_closed_forms():
    assert BallPointModel(2).azukawa_form(()).evaluate([1.0, 0.0]) == pytest.approx(0.0)
    pair = BallPairModel(1, 1)
    assert pair.azukawa_form([math.sqrt(0.75)]).evaluate([1.0]) == pytest.approx(
        math.log(2), abs=1e-12
    )
    lift = RadialLiftModel(LogSingularProfile(), 1, 1)
    assert lift.azukawa_form([0.6]).evaluate([1.0]) == pytest.approx(
        -0.5 * math.log(1.0 - 0.36), abs=1e-12
    )


def test_azukawa_rejects_zero_direction():
    with pytest.raises(ValueError):
        BallPointModel(2).azukawa_form(()).evaluate([0.0, 0.0])


@settings(max_examples=100)
@given(
    scale=st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False
    )
)
def test_azukawa_logarithmic_homogeneity(scale):
    pair = BallPairModel(2, 2)
    form = pair.azukawa_form([0.5, 0.2j])
    x = np.array([0.3 + 0.1j, -0.7j])
    assert form.evaluate(scale * x) == pytest.approx(
        form.evaluate(x) + math.log(abs(scale)), abs=1e-12
    )


def test_azukawa_doubling_identity():
    pair = BallPairModel(1, 1)
    form = pair.azukawa_form([0.4])
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = rng.normal() + 1j * rng.normal()
        if abs(x) < 1e-6:
            continue
        assert form.evaluate([2 * x]) - form.evaluate([x]) == pytest.approx(
            math.log(2), abs=1e-12
        )


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_azukawa_numeric_limit_consistency(model):
    rng = np.random.default_rng(4)
    base_len = model.ambient_dim - model.pole_dim
    if isinstance(model, (BallPairModel, RadialLiftModel)):
        base = 0.4 * (rng.normal(size=base_len) + 1j * rng.normal(size=base_len))
        base /= max(1.0, 2.5 * np.linalg.norm(base))
    else:
        base = ()
    direction = rng.normal(size=model.pole_dim) + 1j * rng.normal(size=model.pole_dim)
    # the ladder quotients agree with the form to 1e-6
    checked_azukawa(model, base, direction)


def _indicatrix_volume(form):
    """sigma_k e^(-2k log_shift): the volume of the indicatrix {X : A(X) < 0}."""
    k = form.pole_dim
    return integrate.sigma_mu(k)[0] * math.exp(-2.0 * k * form.log_shift)


def test_indicatrix_volumes_closed_form():
    assert _indicatrix_volume(BallPointModel(2).azukawa_form(())) == (
        pytest.approx(PI**2 / 2, abs=1e-14)
    )
    pair = BallPairModel(2, 2)
    form = pair.azukawa_form([math.sqrt(0.75), 0.0])
    assert _indicatrix_volume(form) == pytest.approx((PI**2 / 2) * 0.25**2, abs=1e-12)


@pytest.mark.parametrize(
    "model, point",
    [
        (BallPointModel(2), [1.5, 0.0]),
        (BallPairModel(1, 1), [0.1, 1.5]),
        (RadialLiftModel(LogSingularProfile(), 1, 2), [0.0, 5.0, 0.3]),
    ],
    ids=["ball_point", "ball_pair", "radial_lift"],
)
def test_scalar_green_gap_and_form_raise_outside_the_domain(model, point):
    with pytest.raises(DomainError):
        model.green(point)
    with pytest.raises(DomainError):
        model.gap(point)
    if model.pole_dim < model.ambient_dim:  # a point of V off the domain
        with pytest.raises(DomainError):
            model.azukawa_form(point[model.pole_dim :])


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_azukawa_form_comes_from_the_gap(model):
    rng = np.random.default_rng(41)
    k = model.pole_dim
    for p in _interior_points(model, 50, rng):
        v = p[k:]
        gap = model.gap(model.embed(np.zeros(k), v))
        assert -model.azukawa_form(v).log_shift == gap


def test_azukawa_form_rejects_non_finite_input():
    form = BallPairModel(1, 1).azukawa_form([0.3])
    for bad in (math.nan, math.inf, complex(0.5, math.nan)):
        with pytest.raises(ValueError):
            form.evaluate([bad])
    for shift in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            AzukawaForm(1, shift)


def _dirichlet_moment(beta, q):
    """integral_(B^m) |z^beta|^2 (1 - |z|^2)^q dV for m = len(beta) in {1, 2}, at 30 digits.

    In the variables s_j = |z_j|^2 the integral is pi^m times the integral of
    prod s_j^beta_j (1 - sum s_j)^q over the unit simplex.
    """
    with mpmath.workdps(30):
        if len(beta) == 1:
            (b,) = beta
            inner = mpmath.quad(lambda s: s**b * (1 - s) ** q, [0, 1])
        else:
            b1, b2 = beta
            inner = mpmath.quad(
                lambda s1: mpmath.quad(
                    lambda s2: s1**b1 * s2**b2 * (1 - s1 - s2) ** q, [0, 1 - s1]
                ),
                [0, 1],
            )
        return float(mpmath.pi ** len(beta) * inner)


@pytest.mark.parametrize(
    "k, beta", [(1, (0,)), (1, (3,)), (3, (2,)), (1, (0, 0)), (2, (1, 2)), (3, (0, 4))]
)
def test_ball_pair_indicatrix_integral_of_a_monomial(k, beta):
    # integral_V |c z''^beta|^2 e^(2k B) with e^(2k B) = (1 - |z''|^2)^k
    model = BallPairModel(pole_dim=k, base_dim=len(beta))
    c = 0.5 - 1.5j
    expected = abs(c) ** 2 * _dirichlet_moment(beta, k)
    assert model.indicatrix_integral({beta: c}) == pytest.approx(expected, rel=1e-13)
    # distinct monomials are orthogonal on the ball, so their moments add
    other = tuple(b + 1 for b in beta)
    both = model.indicatrix_integral({beta: c, other: 2.0})
    assert both == pytest.approx(expected + 4.0 * _dirichlet_moment(other, k), rel=1e-13)
    with pytest.raises(ValueError):
        model.indicatrix_integral({beta + (0,): 1.0})


def test_sublevel_scaling_ball_point_is_constant():
    model = BallPointModel(2)
    ones = lambda pts: np.ones(len(pts))
    target = PI**2 / 2
    for t in (-4.0, -8.0, -12.0):
        res = sublevel_scaling(model, ones, t, 400_000, seed=11)
        assert res.value == pytest.approx(target, rel=1e-2)


def test_sublevel_scaling_ball_pair_limit():
    model = BallPairModel(2, 2)
    ones = lambda pts: np.ones(len(pts))
    res = sublevel_scaling(model, ones, -8.0, 600_000, seed=11)
    assert res.value == pytest.approx(PI**4 / 24, rel=5e-2)


def test_sublevel_scaling_matches_the_pair_limit():
    # the pair model's rescaled volume is pi^4/24 at every level, not only in the limit
    ones = lambda pts: np.ones(len(pts))
    res = sublevel_scaling(BallPairModel(2, 2), ones, -8.0, 400_000, seed=19)
    assert abs(res.value - PI**4 / 24) <= 3.0 * res.error_estimate


def test_sublevel_scaling_weighted_integrand():
    # chi = |w|^2 on the ball-point model: e^(-kt) int_{|z|<e^(t/2)} |z|^2
    # equals sigma_2 * 2/3 * e^t -> use the exact closed form at t = -2
    model = BallPointModel(2)
    chi = lambda x: x.sum(axis=1)
    t = -2.0
    res = sublevel_scaling(model, chi, t, 600_000, seed=13)
    exact = 2 * PI**2 * math.exp(3 * t) * math.exp(-2 * t) / 6
    assert res.value == pytest.approx(exact, rel=2e-2)


def test_sublevel_scaling_empty_level_raises():
    # a draw hits the t = -8 sublevel set of the pair model with p = 1/24, so
    # 12 draws miss with p ~ 0.6; seed 4 is a pinned miss, so the error is deterministic
    model = BallPairModel(2, 2)
    ones = lambda pts: np.ones(len(pts))
    for chi, t in ((ones, -8.0), (None, [-8.0])):
        with pytest.raises(DegenerateDomainError, match=r"0 of 12 samples .* t = -8\.0"):
            sublevel_scaling(model, chi, t, 12, seed=4)


def test_sublevel_scaling_counts_non_finite_integrand():
    # chi is NaN on the half |z_1| < |z_2| of the sublevel set; those points
    # count as zero and are reported, over two shards of draws
    model = BallPointModel(2)
    returned_nan = []

    def chi(x):
        vals = _nan_on_left_half(x)
        returned_nan.append(int(np.isnan(vals).sum()))
        return vals

    res = sublevel_scaling(model, chi, -2.0, 1_200_000, seed=5)
    assert math.isfinite(res.value) and math.isfinite(res.error_estimate)
    assert res.rejected_infinite == sum(returned_nan) > 0
    zeroed = lambda x: np.where(x[:, 0] < x[:, 1], 0.0, 1.0)
    assert res.value == sublevel_scaling(model, zeroed, -2.0, 1_200_000, seed=5).value
    assert res.value == pytest.approx(PI**2 / 4, rel=2e-2)


def _varying_chi(x):
    return 1.0 / (0.01 + x.sum(axis=1))


def _nan_on_left_half(x):
    """NaN on the half |z_1| < |z_2| of a set symmetric in z_1 and z_2, else 1."""
    return np.where(x[:, 0] < x[:, 1], np.nan, 1.0)


LADDER_MODELS = [
    BallPointModel(2),
    BallPairModel(2, 2),
    RadialLiftModel(LogSingularProfile(), pole_dim=2, base_dim=2),
    RadialLiftModel(LogSingularProfile(), pole_dim=1, base_dim=2),
]


# A shard of two blocks and a bit puts shard boundaries, a partial shard and a
# partial block into a small budget; one case per family keeps the real shard.
_SHORT_SHARD = 2 * _BLOCK + 3


def _shard_cases(cases, real):
    """``cases`` at the short shard, then ``real`` at the real _SHARD_SIZE."""
    ids = lambda case: "-".join(c.__name__ if callable(c) else repr(c) for c in case)
    short = [pytest.param(*case, _SHORT_SHARD, id=ids(case)) for case in cases]
    return short + [pytest.param(*real, _SHARD_SIZE, id=ids(real) + "-real_shard")]


def _ragged_budget(monkeypatch, shard_size):
    """Set the shard size; return a budget of two or more shards that ends in
    a partial shard, each shard ending in a partial block."""
    monkeypatch.setattr(integrate, "_SHARD_SIZE", shard_size)
    return integrate._SHARD_SIZE + 3 * _BLOCK + 5


@pytest.mark.parametrize(
    "chi, model, shard_size",
    _shard_cases(
        [(c, m) for c in (_varying_chi, _nan_on_left_half) for m in LADDER_MODELS],
        (_nan_on_left_half, BallPointModel(2)),
    ),
)
def test_sublevel_ladder_matches_one_call_per_level(model, chi, shard_size, monkeypatch):
    # two shards or more with ragged blocks; each level keeps the bits of its own call
    ladder = [-4.0, -8.0, -12.0]
    samples = _ragged_budget(monkeypatch, shard_size)
    monkeypatch.setattr(integrate, "_usable_cores", lambda: 2)
    want = [sublevel_scaling(model, chi, t, samples, 2032) for t in ladder]
    for cores in (2, 1):
        monkeypatch.setattr(integrate, "_usable_cores", lambda: cores)
        assert sublevel_scaling(model, chi, ladder, samples, 2032) == want
    if chi is _nan_on_left_half:
        assert all(r.rejected_infinite > 0 for r in want)
    if model.ambient_dim > 2 * model.pole_dim:  # the k < n lift: its levels differ
        assert len({r.value for r in want}) == len(ladder)


@pytest.mark.parametrize(
    "model",
    [
        BallPointModel(2),
        BallPairModel(2, 2),
        RadialLiftModel(LogSingularProfile(), pole_dim=2, base_dim=2),
    ],
    ids=lambda m: repr(m),
)
def test_homogeneous_models_give_every_level_the_same_value(model):
    # G(lambda z', ...) = G + log|lambda|, so e^(-kt) vol{G < t/2} does not depend on t
    ones = lambda pts: np.ones(len(pts))
    at_4, at_8 = sublevel_scaling(model, ones, [-4.0, -8.0], 100_000, 2033)
    assert at_4.value > 0.0
    assert at_8.value == pytest.approx(at_4.value, rel=1e-12, abs=0.0)


def test_sublevel_scaling_float_level_returns_one_result():
    ones = lambda pts: np.ones(len(pts))
    model = BallPointModel(1)
    res = sublevel_scaling(model, ones, -2.0, 1000, 7)
    assert res == sublevel_scaling(model, ones, [-2.0], 1000, 7)[0]
    assert res == sublevel_scaling(model, ones, np.float64(-2.0), 1000, 7)
    with pytest.raises(ValueError):
        sublevel_scaling(model, ones, [], 1000, 7)
    with pytest.raises(ValueError):
        sublevel_scaling(model, ones, [-2.0, 0.5], 1000, 7)


def test_sublevel_scaling_requires_negative_t():
    with pytest.raises(ValueError):
        sublevel_scaling(BallPointModel(1), lambda p: np.ones(len(p)), 0.5, 100, 0)


@pytest.mark.parametrize("level", [0.0, math.nan, math.inf, -math.inf, -800.0])
def test_sublevel_scaling_rejects_bad_levels(level):
    # finite and negative, with e^(-k t) finite: -800 overflows it at k = 1
    ones = lambda p: np.ones(len(p))
    for t in (level, [-2.0, level]):
        with pytest.raises(ValueError, match=f"t = {level!r}"):
            sublevel_scaling(BallPointModel(1), ones, t, 100, 0)


@pytest.mark.parametrize(
    "model, shard_size", _shard_cases([(m,) for m in LADDER_MODELS], (BallPointModel(2),))
)
def test_sublevel_counting_has_the_bits_of_ones(model, shard_size, monkeypatch):
    ladder = [-4.0, -8.0, -12.0]
    samples = _ragged_budget(monkeypatch, shard_size)
    ones = lambda pts: np.ones(len(pts))
    monkeypatch.setattr(integrate, "_usable_cores", lambda: 2)
    want = sublevel_scaling(model, ones, ladder, samples, 2043)
    assert all(r.value > 0.0 for r in want)
    for cores in (2, 1):
        monkeypatch.setattr(integrate, "_usable_cores", lambda: cores)
        assert sublevel_scaling(model, None, ladder, samples, 2043) == want


# the five profiles of the benchmark's radial grid
GRID_PROFILES = [
    LogSingularProfile(),
    ScaledLogProfile(a=0.5),
    ScaledLogProfile(a=2.0),
    EpsilonRegularizedProfile(LogSingularProfile(), eps=0.1),
    EpsilonRegularizedProfile(ScaledLogProfile(a=0.5), eps=0.1),
]
SUBLEVEL_MODELS = (
    [BallPointModel(n) for n in (1, 2, 3)]
    + [BallPairModel(k, n) for k, n in ((1, 1), (2, 2), (1, 3))]
    + [
        RadialLiftModel(p, pole_dim=k, base_dim=n)
        for p in GRID_PROFILES
        for n, k in ((1, 1), (2, 1), (2, 2), (3, 2))
    ]
)


@pytest.mark.parametrize("model", SUBLEVEL_MODELS, ids=lambda m: repr(m))
def test_sublevel_batch_is_the_domain_and_green_mask(model):
    # the closed form against its definition, the domain's part of {G < t/2},
    # row for row on the sampler's own blocks of the level polydisc
    domain = model.domain()
    for t in (-1.0, -4.0, -12.0):
        radii = green._sublevel_radii(model, t)
        for _, x in integrate._shard_blocks([1] * len(radii), [radii**2], 2044, 0, 3 * _BLOCK):
            want = domain.contains_moduli(x)
            want[want] = model.green_batch(x[want]) < 0.5 * t
            assert np.array_equal(model.sublevel_batch(x, t), want)
            assert want.any()


def _unreachable(*args, **kwargs):
    raise AssertionError("the sublevel sets need neither G, nor u^(-1), nor a domain test")


@pytest.mark.parametrize(
    "model, patched",
    [
        (BallPointModel(2), [(BallPointModel, "green_batch"), (Ball, "contains_batch")]),
        (BallPairModel(2, 2), [(BallPairModel, "green_batch"), (Ball, "contains_batch")]),
        # the mixed-scale lift, whose u^(-1) is a Newton solve; it keeps its base ball test
        (
            RadialLiftModel(GRID_PROFILES[4], pole_dim=1, base_dim=2),
            [(RadialLiftModel, "green_batch"), (EpsilonRegularizedProfile, "inverse")],
        ),
    ],
    ids=["ball_point", "ball_pair", "mixed_scale_lift"],
)
def test_sublevel_scaling_evaluates_no_green_function(model, patched, monkeypatch):
    ladder, samples = [-4.0, -8.0, -12.0], 3 * _BLOCK + 5
    want = sublevel_scaling(model, None, ladder, samples, 2045)
    for cls, attr in patched:
        monkeypatch.setattr(cls, attr, _unreachable)
    assert sublevel_scaling(model, None, ladder, samples, 2045) == want


@pytest.mark.parametrize("level", [0.0, 0.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "model",
    [BallPointModel(1), BallPairModel(1, 1), RadialLiftModel(LogSingularProfile(), 1, 1)],
    ids=lambda m: repr(m),
)
def test_sublevel_batch_rejects_bad_levels(model, level):
    # every closed form relies on e^t < 1
    x = np.zeros((1, model.ambient_dim))
    with pytest.raises(ValueError, match=f"finite and negative, got t = {level!r}"):
        model.sublevel_batch(x, level)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_scalar_green_is_the_batch_row(model):
    rng = np.random.default_rng(103)
    pts = _interior_points(model, 200, rng)
    pts[:20, : model.pole_dim] = 0.0  # points on the pole set, where G = -inf
    for p in pts:
        assert model.green(p) == model.green_batch(sq_moduli(p)[None, :])[0]
