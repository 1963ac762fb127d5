import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoext.errors import DimensionMismatchError
from holoext.geometry import Ball, HartogsLift, Polydisc, as_point, ball_sums, sq_moduli
from holoext.green import RadialLiftModel
from holoext.integrate import _BLOCK, _shard_blocks, rng_stream
from holoext.weights import (
    BallStandardWeight,
    EpsilonRegularizedWeight,
    LogSingularProfile,
    RadialWeight,
    ScaledLogProfile,
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
    assert np.array_equal(lift.contains_moduli(x), bidisc.contains_moduli(x))


def test_ball_lift_identity_on_random_points():
    # lift of the unit disc under the standard weight matches the ball of C^2
    lift = HartogsLift(Ball(1.0, 1), RadialWeight(LogSingularProfile(), 1), 1)
    ball = Ball(1.0, 2)
    rng = np.random.default_rng(7)
    x = sq_moduli(rng.uniform(-1.0, 1.0, (100_000, 4)).view(complex))
    assert np.array_equal(lift.contains_moduli(x), ball.contains_moduli(x))


def test_ball2_lift_of_double_weight_is_ball4():
    lift = HartogsLift(Ball(1.0, 2), BallStandardWeight(2), 2)
    ball4 = Ball(1.0, 4)
    rng = np.random.default_rng(3)
    x = sq_moduli(rng.uniform(-0.8, 0.8, (50_000, 8)).view(complex))
    assert np.array_equal(lift.contains_moduli(x), ball4.contains_moduli(x))


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


def _plain_mask(domain, x):
    """Each scalar-test domain's membership written out on squared moduli."""
    if isinstance(domain, Polydisc):
        return np.all(x < np.square(domain.radii), axis=1)
    # the ball, and the lifts that are balls: of C^2 over the disc, of C^4 over B^2
    return x.sum(axis=1) < 1.0


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
        x = sq_moduli(p)[None, :]
        assert domain.contains(p) == domain.contains_moduli(x)[0]
        # the lifts that are balls hold 2 ulps either way of the sphere
        if abs(x.sum() - 1.0) > 4e-16 or isinstance(domain, (Ball, Polydisc)):
            assert domain.contains(p) == _plain_mask(domain, x)[0]


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


def _moduli_blocks(dims, seed, size):
    """The per-coordinate squared moduli that the kernel drew for shard 0
    before it handed ball radii: each block rng.random((m, b)), the rows of
    each ball replaced by the spacings of their sorted values."""
    rng = rng_stream(seed, 0)
    for lo in range(0, size, _BLOCK):
        u = rng.random((sum(dims), min(_BLOCK, size - lo)))
        start = 0
        for k in dims:
            group = np.sort(u[start : start + k], axis=0)
            u[start : start + k] = np.diff(group, axis=0, prepend=0.0)
            start += k
        yield u.T


LIFTS = {
    "fubini_k1": HartogsLift(Ball(1.0, 1), RadialWeight(LogSingularProfile(), 1), 1),
    "fubini_k2": HartogsLift(Ball(1.0, 2), RadialWeight(LogSingularProfile(), 2), 2),
    # the factor (1 - s^2)^(1/2) goes through two powers
    "scaled_log_0.5": HartogsLift(Ball(1.0, 2), RadialWeight(ScaledLogProfile(a=0.5), 2), 2),
}


@pytest.mark.parametrize(
    "domain", [Ball(1.0, 4), *LIFTS.values()], ids=["ball4", *LIFTS]
)
def test_masks_match_the_old_formulas_on_a_million_draws(domain):
    # shard 0 of seed 2026: a million draws in the polydisc, whose draws leave
    # the lift's base, and in the domain's own proposal.  The masks on the
    # kernel's ball radii against the old formulas, np.sum and exp(-phi/k),
    # on the per-coordinate moduli of the same uniforms
    if isinstance(domain, HartogsLift):
        old = lambda x: _old_lift_mask(domain, x)
    else:
        old = lambda x: np.sum(np.ascontiguousarray(x), axis=1) < 1.0
    proposal = [k for k, _ in domain.bounding_balls()]
    for dims in {(1,) * domain.ambient_dim, tuple(proposal)}:
        blocks = _shard_blocks(dims, [np.ones(len(dims))], 2026, 0, 1_000_000)
        for (_, t), x in zip(blocks, _moduli_blocks(dims, 2026, 1_000_000), strict=True):
            got = domain.contains_batch(t) if list(dims) == proposal else domain.contains_moduli(t)
            assert np.array_equal(got, old(x))


def test_bounding_balls_name_each_domains_proposal():
    assert Ball(0.5, 3).bounding_balls() == ((3, 0.5),)
    assert Polydisc((1.0, 2.0)).bounding_balls() == ((1, 1.0), (1, 2.0))
    lift = HartogsLift(Ball(1.0, 2), RadialWeight(LogSingularProfile(), 2), 2)
    assert lift.bounding_balls() == ((2, 1.0), (2, 1.0))
    lift = HartogsLift(Polydisc((1.0, 0.5)), RadialWeight(LogSingularProfile(), 1), 3)
    assert lift.bounding_balls() == ((1, 1.0), (1, 0.5), (3, 1.0))
    # a base ball in which the weight's block z' ends splits there
    assert RadialLiftModel(LogSingularProfile(), 1, 2).domain().bounding_balls() == ((1, 1.0),) * 3
    weight = EpsilonRegularizedWeight(RadialWeight(LogSingularProfile(), 2), 0.5)
    lift = HartogsLift(Ball(0.9, 3), weight, 1)
    assert lift.bounding_balls() == ((2, 0.9), (1, 0.9), (1, 1.0))


@pytest.mark.parametrize(
    "lift",
    [
        RadialLiftModel(ScaledLogProfile(a=0.5), 1, 2).domain(),
        HartogsLift(
            Ball(1.0, 3), EpsilonRegularizedWeight(RadialWeight(LogSingularProfile(), 2), 0.5), 1
        ),
        HartogsLift(Ball(1.0, 2), TrivialWeight(), 2),
        HartogsLift(Polydisc((1.0, 0.5)), RadialWeight(LogSingularProfile(), 2), 2),
    ],
    ids=["split_radial", "split_eps", "trivial", "polydisc_base"],
)
def test_lift_masks_on_ball_radii_are_the_old_masks_on_moduli(lift):
    # the split base and the shared e^(-phi/k) path for weights without a
    # factor, against the old formula on per-coordinate moduli
    rng = np.random.default_rng(29)
    x = sq_moduli(rng.uniform(-1.0, 1.0, (50_000, 2 * lift.ambient_dim)).view(complex))
    nb = lift.base.ambient_dim
    phi = lift.weight.value_batch(x[:, :nb])
    want = x[:, nb:].sum(axis=1) < np.exp(-phi / lift.fiber_dim)
    want &= lift.base.contains_moduli(x[:, :nb])
    assert np.array_equal(lift.contains_moduli(x), want)
    assert want.any() and not want.all()


@pytest.mark.parametrize(
    "dims", [(1,), (2,), (3, 1), (1, 2, 5), (7,), (9,), (4, 4), (1, 1, 1), (2, 2, 2)], ids=str
)
def test_ball_sums_add_columns_with_the_bits_of_a_row_sum(dims):
    # numpy reduces column-contiguous rows column by column, and C-ordered
    # rows of fewer than eight values in order; eight or more it sums pairwise
    rng = np.random.default_rng(31)
    x = rng.random((1000, sum(dims))) * np.logspace(-12, 0, 1000)[:, None]
    starts = np.cumsum((0, *dims))
    for layout in (x, np.asfortranarray(x)):
        t = ball_sums(layout, dims)
        assert t.shape == (1000, len(dims)) and t.T.flags.c_contiguous
        for j, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
            want = layout[:, a:b].sum(axis=1).tobytes()
            assert (t[:, j].tobytes() == want) or (layout is x and b - a >= 8)
    if dims == (9,):  # the pairwise sum does differ
        assert ball_sums(x, dims).tobytes() != x.sum(axis=1).tobytes()


def test_contains_batch_rejects_arrays_not_in_its_ball_layout():
    # squared moduli, one column per coordinate, fail loudly instead of giving a mask
    x = np.full((5, 3), 0.2)
    for domain, moduli in (
        (Ball(1.0, 3), x),
        (Polydisc((1.0, 1.0)), x),
        (HartogsLift(Ball(1.0, 2), RadialWeight(LogSingularProfile(), 2), 2), np.full((5, 4), 0.2)),
        (HartogsLift(Ball(1.0, 1), TrivialWeight(), 1), x),
    ):
        with pytest.raises(DimensionMismatchError):
            domain.contains_batch(moduli)
        dims = [k for k, _ in domain.bounding_balls()]
        assert domain.contains_batch(ball_sums(moduli, dims)).all()


def test_lift_rejects_a_weight_block_longer_than_its_base():
    with pytest.raises(DimensionMismatchError):
        HartogsLift(Ball(1.0, 2), RadialWeight(LogSingularProfile(), 3), 1)
    with pytest.raises(DimensionMismatchError):
        weight = EpsilonRegularizedWeight(RadialWeight(LogSingularProfile(), 2), 0.5)
        HartogsLift(Polydisc((1.0,)), weight, 1)


def test_each_weight_declares_its_block():
    radial = RadialWeight(LogSingularProfile(), 2)
    assert TrivialWeight().block is None and BallStandardWeight(3).block is None
    assert radial.block == 2
    assert EpsilonRegularizedWeight(radial, 0.5).block == 2
    assert EpsilonRegularizedWeight(TrivialWeight(), 0.5).block is None


@pytest.mark.parametrize(
    "weight",
    [
        TrivialWeight(),
        BallStandardWeight(3),
        RadialWeight(ScaledLogProfile(a=0.5), 2),
        EpsilonRegularizedWeight(RadialWeight(LogSingularProfile(), 2), 0.5),
        EpsilonRegularizedWeight(BallStandardWeight(3), 0.25),
    ],
    ids=["trivial", "ball_standard", "radial", "eps_radial", "eps_ball"],
)
def test_value_radii_is_value_batch_on_the_balls(weight):
    # on discs the radii are the moduli, bit for bit; on the layouts a lift
    # draws (one ball, or split where z' ends) the sums may round apart
    rng = np.random.default_rng(37)
    z = rng.uniform(-1.0, 1.0, (20_000, 6)).view(complex)
    x = sq_moduli(z / np.sqrt(1.1 * sq_moduli(z).sum(axis=1, keepdims=True)))
    want = weight.value_batch(x)
    assert np.isfinite(want).all()
    assert weight.value_radii(x.copy(), (1, 1, 1)).tobytes() == want.tobytes()
    for dims in [(3,), (1, 2)] if weight.block is None else [(2, 1)]:
        got = weight.value_radii(ball_sums(x, dims), dims)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-300)
