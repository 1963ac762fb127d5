import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoext.errors import DimensionMismatchError
from holoext.geometry import Ball, HartogsLift, Polydisc, as_point, sq_moduli
from holoext.integrate import _shard_blocks
from holoext.weights import (
    BallStandardWeight,
    LogSingularProfile,
    RadialWeight,
    TrivialWeight,
)


def test_ball_contains_interior_point():
    assert Ball(1.0, 2).contains([0.5, 0.0])


def test_ball_boundary_is_excluded():
    assert not Ball(1.0, 2).contains([1.0, 0.0])


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        Ball(1.0, 2).contains([0.1, 0.2, 0.3])


def test_nonfinite_point_rejected():
    with pytest.raises(ValueError):
        Ball(1.0, 1).contains([np.nan])


def test_disc_lift_of_standard_weight_is_the_ball():
    lift = HartogsLift(Ball(1.0, 1), RadialWeight(LogSingularProfile(), 1), 1)
    assert lift.contains([0.6, 0.6])
    assert not lift.contains([0.8, 0.8])


def test_zero_weight_lift_is_the_bidisc():
    lift = HartogsLift(Ball(1.0, 1), TrivialWeight(), 1)
    bidisc = Polydisc((1.0, 1.0))
    rng = np.random.default_rng(0)
    x = sq_moduli(rng.uniform(-1.1, 1.1, (4000, 4)).view(complex))
    assert np.array_equal(lift.contains_batch(x), bidisc.contains_batch(x))


def test_ball_lift_identity_on_random_points():
    # lift of the unit disc under the standard weight matches the ball of C^2
    lift = HartogsLift(Ball(1.0, 1), RadialWeight(LogSingularProfile(), 1), 1)
    ball = Ball(1.0, 2)
    rng = np.random.default_rng(7)
    x = sq_moduli(rng.uniform(-1.0, 1.0, (100_000, 4)).view(complex))
    assert np.array_equal(lift.contains_batch(x), ball.contains_batch(x))


def test_ball2_lift_of_double_weight_is_ball4():
    lift = HartogsLift(Ball(1.0, 2), BallStandardWeight(2), 2)
    ball4 = Ball(1.0, 4)
    rng = np.random.default_rng(3)
    x = sq_moduli(rng.uniform(-0.8, 0.8, (50_000, 8)).view(complex))
    assert np.array_equal(lift.contains_batch(x), ball4.contains_batch(x))


def test_lift_membership_rule():
    weight = RadialWeight(LogSingularProfile(), 1)
    base = Ball(1.0, 1)
    lift = HartogsLift(base, weight, 1)
    rng = np.random.default_rng(11)
    for _ in range(300):
        z = complex(*rng.uniform(-1, 1, 2))
        w = complex(*rng.uniform(-1, 1, 2))
        expected = base.contains([z]) and abs(w) ** 2 < np.exp(-weight.value([z]))
        assert lift.contains([z, w]) == expected


def test_domains_contain_the_origin():
    for domain in (
        Ball(1.0, 3),
        Polydisc((0.5, 2.0)),
        HartogsLift(Ball(1.0, 1), RadialWeight(LogSingularProfile(), 1), 1),
        HartogsLift(Ball(1.0, 2), TrivialWeight(), 2),
    ):
        assert domain.contains(np.zeros(domain.ambient_dim))


def test_lift_requires_positive_fiber_dimension():
    with pytest.raises(ValueError):
        HartogsLift(Ball(1.0, 1), TrivialWeight(), 0)


def test_invalid_radii_rejected():
    with pytest.raises(ValueError):
        Ball(0.0, 1)
    with pytest.raises(ValueError):
        Polydisc((1.0, -2.0))


@settings(max_examples=50)
@given(extra=st.integers(min_value=1, max_value=4))
def test_contains_rejects_wrong_length(extra):
    domain = Ball(1.0, 2)
    with pytest.raises(DimensionMismatchError):
        domain.contains(np.zeros(2 + extra))


SCALAR_BATCH_DOMAINS = [
    Ball(1.0, 2),
    Polydisc((0.5, 2.0)),
    HartogsLift(Ball(1.0, 1), RadialWeight(LogSingularProfile(), 1), 1),
    HartogsLift(Ball(1.0, 2), BallStandardWeight(2), 2),
]


@settings(max_examples=100)
@given(
    coords=st.lists(
        st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
        min_size=4,
        max_size=4,
    )
)
def test_scalar_contains_is_the_batch_row(coords):
    for domain in SCALAR_BATCH_DOMAINS:
        p = np.asarray(coords[: domain.ambient_dim])
        assert domain.contains(p) == domain.contains_batch(sq_moduli(p)[None, :])[0]


def test_sq_moduli_is_the_squared_modulus_to_a_few_ulp():
    # squaring the hypot of np.abs doubles its rounding error
    rng = np.random.default_rng(2026)
    pts = rng.normal(size=(20_000, 8)).view(complex) * np.logspace(-100, 100, 20_000)[:, None]
    point = as_point([0.3 - 0.4j, 1e-200j, 7.0])
    for case in (pts, pts[:, :2], pts[:, 1:3], point, rng.normal(size=(100, 3))):
        np.testing.assert_array_max_ulp(sq_moduli(case), np.abs(case) ** 2, maxulp=4)
    assert np.array_equal(sq_moduli(np.zeros((4, 3), dtype=complex)), np.zeros((4, 3)))


def _old_lift_mask(lift, x):
    """HartogsLift membership written plainly, on C-ordered rows with boolean rows."""
    x = np.ascontiguousarray(x)
    nb = lift.base.ambient_dim
    mask = np.sum(x[:, :nb], axis=1) < lift.base.radius**2
    out = np.zeros(len(x), dtype=bool)
    if mask.any():
        phi = lift.weight.value_batch(x[mask, :nb])
        out[mask] = np.sum(x[mask, nb:], axis=1) < np.exp(-phi / lift.fiber_dim)
    return out


def test_masks_match_the_old_formulas_on_a_million_draws():
    ball = Ball(1.0, 4)
    lift = HartogsLift(Ball(1.0, 2), RadialWeight(LogSingularProfile(), 2), 2)  # fubini_k2
    # shard 0 of seed 2026: a million moduli draws in coordinate-major blocks,
    # in the polydisc, whose draws leave the lift's base, and in the lift's proposal
    for dims in ((1, 1, 1, 1), (2, 2)):
        for _, x in _shard_blocks(dims, [np.ones(4)], 2026, 0, 1_000_000):
            want = np.sum(np.ascontiguousarray(x), axis=1) < 1.0
            assert np.array_equal(ball.contains_batch(x), want)
            assert np.array_equal(lift.contains_batch(x), _old_lift_mask(lift, x))


def test_bounding_balls_name_each_domains_proposal():
    assert Ball(0.5, 3).bounding_balls() == ((3, 0.5),)
    assert Polydisc((1.0, 2.0)).bounding_balls() == ((1, 1.0), (1, 2.0))
    lift = HartogsLift(Ball(1.0, 2), RadialWeight(LogSingularProfile(), 2), 2)
    assert lift.bounding_balls() == ((2, 1.0), (2, 1.0))
    lift = HartogsLift(Polydisc((1.0, 0.5)), RadialWeight(LogSingularProfile(), 1), 3)
    assert lift.bounding_balls() == ((1, 1.0), (1, 0.5), (3, 1.0))
