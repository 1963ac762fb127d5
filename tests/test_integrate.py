import math
import threading
import tracemalloc

import numpy as np
import pytest

from holoext import integrate
from holoext.errors import DegenerateDomainError
from holoext.geometry import Ball, HartogsLift
from holoext.integrate import (
    _BLOCK,
    _SHARD_SIZE,
    _box_moments,
    adaptive_gauss,
    fubini_mc_oracle,
    fubini_sides,
    mc_integrate,
    radial_integrate,
    rng_stream,
    volume,
)
from holoext.weights import (
    EpsilonRegularizedProfile,
    LogSingularProfile,
    RadialWeight,
    ScaledLogProfile,
)

PI = math.pi

FUBINI_PROFILES = [
    LogSingularProfile(),
    ScaledLogProfile(a=0.5),
    ScaledLogProfile(a=2.0),
    EpsilonRegularizedProfile(LogSingularProfile(), eps=0.25),
    EpsilonRegularizedProfile(ScaledLogProfile(a=1.5), eps=0.4),
]


def test_disc_area():
    res = volume(Ball(1.0, 1), 1_000_000, seed=42)
    assert res.value == pytest.approx(PI, rel=1e-2)
    assert res.error_estimate > 0


def test_weighted_ball_integral():
    integrand = lambda pts: (1.0 - np.sum(np.abs(pts) ** 2, axis=1)) ** 2
    res = mc_integrate(Ball(1.0, 2), integrand, 1_000_000, seed=42)
    assert res.value == pytest.approx(PI**2 / 12, rel=1e-2)


def test_rng_stream_reproducible_per_key():
    a = rng_stream(123, 4).random(16)
    b = rng_stream(123, 4).random(16)
    assert np.array_equal(a, b)
    c = rng_stream(123, 5).random(16)
    d = rng_stream(124, 4).random(16)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_mc_is_deterministic_per_seed():
    integrand = lambda pts: np.ones(len(pts))
    a = mc_integrate(Ball(1.0, 2), integrand, 300_000, seed=7)
    b = mc_integrate(Ball(1.0, 2), integrand, 300_000, seed=7)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    c = mc_integrate(Ball(1.0, 2), integrand, 300_000, seed=8)
    assert c.value != a.value


def test_mc_unbiasedness_over_seeds():
    target = PI**2 / 2
    estimates = [volume(Ball(1.0, 2), 100_000, seed=s).value for s in range(30)]
    mean = np.mean(estimates)
    stderr = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
    assert abs(mean - target) <= 3 * stderr


def test_mc_error_bar_covers_truth():
    res = volume(Ball(1.0, 2), 400_000, seed=3)
    assert abs(res.value - PI**2 / 2) <= 3 * res.error_estimate


def test_mc_counts_nonfinite_integrand_values():
    # integrand is +inf on the inner disc; those samples are dropped
    def integrand(pts):
        r2 = np.sum(np.abs(pts) ** 2, axis=1)
        return np.where(r2 < 0.25, np.inf, 1.0)

    res = mc_integrate(Ball(1.0, 1), integrand, 400_000, seed=5)
    assert res.rejected_infinite > 0
    assert res.value == pytest.approx(PI - PI / 4, rel=2e-2)


def test_mc_degenerate_domain_raises():
    # steep weight: the lift fills a vanishing fraction of its bounding box
    lift = HartogsLift(Ball(1.0, 2), RadialWeight(ScaledLogProfile(a=2.5), 2), 2)
    with pytest.raises(DegenerateDomainError):
        volume(lift, 50_000, seed=1)


def test_radial_quadrature_examples():
    assert radial_integrate(lambda r: 1 - r * r, 1).value == pytest.approx(
        PI / 2, abs=1e-12
    )
    assert radial_integrate(lambda r: (1 - r * r) ** 2, 2).value == pytest.approx(
        PI**2 / 12, abs=1e-12
    )
    assert radial_integrate(lambda r: np.ones_like(r), 2).value == pytest.approx(
        PI**2 / 2, abs=1e-12
    )


def test_radial_quadrature_integrable_endpoint_singularity():
    # int_0^1 r / sqrt(1 - r^2) dr = 1, so the weighted value is mu_1 = 2 pi;
    # the algebraic endpoint singularity caps the reachable residual, but the
    # value itself is resolved far beyond the assertion tolerance
    with np.errstate(divide="ignore"):
        res = radial_integrate(
            lambda r: 1.0 / np.sqrt(1.0 - r * r), 1, node_cap=200_000
        )
    assert res.value == pytest.approx(2 * PI, rel=1e-6)


def test_radial_quadrature_flags_divergence():
    with np.errstate(divide="ignore"):
        res = radial_integrate(lambda r: 1.0 / (1.0 - r * r), 1, node_cap=20_000)
    assert not res.converged
    assert res.note != ""
    assert res.error_estimate > 1e-3 * abs(res.value)


def test_adaptive_gauss_validates_interval():
    with pytest.raises(ValueError):
        adaptive_gauss(lambda x: x, 1.0, 0.0)


@pytest.mark.parametrize("profile", FUBINI_PROFILES, ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("z2_norm", [0.0, 0.3, 0.6])
def test_fubini_identity_catalog(profile, k, z2_norm):
    lhs, rhs = fubini_sides(profile, k, z2_norm)
    assert lhs.converged and rhs.converged
    assert abs(lhs.value - rhs.value) <= 1e-5 * lhs.value


def test_fubini_closed_forms():
    u = LogSingularProfile()
    lhs1, rhs1 = fubini_sides(u, 1, 0.0)
    assert lhs1.value == pytest.approx(PI / 2, rel=1e-6)
    assert rhs1.value == pytest.approx(PI / 2, rel=1e-6)
    lhs2, rhs2 = fubini_sides(u, 2, 0.0)
    assert lhs2.value == pytest.approx(PI**2 / 12, rel=1e-6)
    assert rhs2.value == pytest.approx(PI**2 / 12, rel=1e-6)


def test_fubini_error_estimates_include_tails():
    lhs, rhs = fubini_sides(LogSingularProfile(), 1, 0.0)
    assert lhs.error_estimate >= 0.5 * 2 * PI * math.exp(-60.0)
    assert rhs.error_estimate > 0


def test_fubini_mc_oracle_matches_quadrature():
    u = LogSingularProfile()
    lhs, _ = fubini_sides(u, 1, 0.0)
    oracle = fubini_mc_oracle(u, 1, 0.0, 400_000, seed=21)
    assert oracle.value == pytest.approx(lhs.value, rel=1e-2)


def test_fubini_mc_oracle_off_center_slice():
    prof = ScaledLogProfile(a=0.5)
    lhs, _ = fubini_sides(prof, 2, 0.3)
    oracle = fubini_mc_oracle(prof, 2, 0.3, 600_000, seed=2)
    assert oracle.value == pytest.approx(lhs.value, rel=2e-2)


def test_quadrature_and_mc_agree_within_error_bars():
    u = LogSingularProfile()
    integrand = lambda pts: np.exp(
        -RadialWeight(u, 1).value_batch(pts)
    )
    mc = mc_integrate(Ball(1.0, 1), integrand, 500_000, seed=17)
    quad = radial_integrate(lambda r: 1.0 - r * r, 1)
    assert abs(mc.value - quad.value) <= 3 * (mc.error_estimate + quad.error_estimate)


def test_bounded_lift_volume():
    # volume of the lift equals sigma_1 times the slice integral: pi * pi/2
    lift = HartogsLift(Ball(1.0, 1), RadialWeight(LogSingularProfile(), 1), 1)
    res = volume(lift, 400_000, seed=12)
    assert res.value == pytest.approx(PI * PI / 2, rel=2e-2)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        radial_integrate(lambda r: r, 0)
    with pytest.raises(ValueError):
        fubini_sides(LogSingularProfile(), 1, 1.0)
    with pytest.raises(ValueError):
        fubini_sides(LogSingularProfile(), 0, 0.0)
    with pytest.raises(ValueError):
        mc_integrate(Ball(1.0, 1), lambda pts: np.ones(len(pts)), 0, seed=0)


# ---------------------------------------------------------------------------
# The blocked, threaded sampler against a whole-shard reference
# ---------------------------------------------------------------------------


def _whole_shard_draw(radii, size, seed, shard):
    """One shard drawn in a single call, as before blocking."""
    m = len(radii)
    u = 2.0 * rng_stream(seed, shard).random((size, 2 * m)) - 1.0
    return (u[:, :m] + 1j * u[:, m:]) * radii


def _whole_shard_moments(levels, integrand, samples, seed):
    """Reference for _box_moments: for each level on its own, each shard drawn
    whole on one thread, then masked and reduced in _BLOCK slices over the
    inside values, shards in order."""
    moments = []
    for radii, inside in levels:
        s1 = s2 = 0.0
        n_inside = n_bad = 0
        for shard, done in enumerate(range(0, samples, _SHARD_SIZE)):
            pts = _whole_shard_draw(radii, min(_SHARD_SIZE, samples - done), seed, shard)
            t1 = t2 = 0.0
            for lo in range(0, len(pts), _BLOCK):
                block = pts[lo : lo + _BLOCK]
                mask = inside(block)
                n_inside += int(mask.sum())
                if mask.any():
                    vals = np.asarray(integrand(block[mask]), dtype=float)
                    bad = ~np.isfinite(vals)
                    n_bad += int(bad.sum())
                    vals = np.where(bad, 0.0, vals)
                    t1 += float(vals.sum())
                    t2 += float((vals * vals).sum())
            s1 += t1
            s2 += t2
        mean = s1 / samples
        var = max(s2 / samples - mean * mean, 0.0)
        moments.append((mean, math.sqrt(var / samples), n_inside, n_bad))
    return moments


def _nan_on_left_half(pts):
    # 1/|z|^2 spans many magnitudes, so any change of summation order shows
    vals = 1.0 / np.sum(np.abs(pts) ** 2, axis=1)
    vals[pts[:, 0].real < -0.5] = np.nan
    return vals


def _ball_levels(inside):
    """The unit ball of C^2 sampled in its own box, then in a box cut to |Re, Im z_1| < 0.7."""
    radii = Ball(1.0, 2).bounding_radii()
    return [(radii, inside), (np.array([0.7, 1.0]), inside)]


MOMENT_SAMPLES = pytest.mark.parametrize(
    "samples",
    [1, _BLOCK - 1, _BLOCK + 1, _SHARD_SIZE + 3 * _BLOCK + 5],
    ids=["one", "block_minus_one", "block_plus_one", "two_shards"],
)


@MOMENT_SAMPLES
def test_box_moments_bit_identical_to_whole_shard_loop(samples):
    levels = _ball_levels(Ball(1.0, 2).contains_batch)
    for count in (1, 2):
        got = _box_moments(levels[:count], _nan_on_left_half, samples, 2029)
        assert got == _whole_shard_moments(levels[:count], _nan_on_left_half, samples, 2029)
        if samples > 1000:
            assert all(level[3] > 0 for level in got)
    if samples > 1000:
        assert got[0] != got[1]


@MOMENT_SAMPLES
def test_box_moments_same_on_one_and_two_workers(samples, monkeypatch):
    domain = Ball(1.0, 2)
    threads = set()

    def inside(pts):
        threads.add(threading.get_ident())
        return domain.contains_batch(pts)

    args = (_ball_levels(inside), _nan_on_left_half, samples, 2031)
    got = {}
    for cores in (1, 2):
        threads.clear()
        monkeypatch.setattr(integrate, "_usable_cores", lambda: cores)
        got[cores] = _box_moments(*args)
        # one shard or one core runs inline; two shards on two cores use the pool
        inline = cores == 1 or samples <= _SHARD_SIZE
        assert (threads == {threading.get_ident()}) == inline
    assert got[1] == got[2]


def test_box_moments_workers_run_under_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(integrate, "_usable_cores", lambda: 2)
    domain = Ball(1.0, 1)

    def sqrt_of_negative(pts):
        return np.sqrt(np.abs(pts[:, 0]) ** 2 - 0.5)

    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            mc_integrate(domain, sqrt_of_negative, _SHARD_SIZE + 1, seed=3)


def test_shard_blocks_concatenate_to_the_whole_shard_draw():
    radii = Ball(1.0, 3).bounding_radii()
    sizes = (_SHARD_SIZE, _BLOCK + 5)
    assert integrate._shards(sum(sizes)) == list(enumerate(sizes))
    want_lens = ([_BLOCK] * (_SHARD_SIZE // _BLOCK) + [_SHARD_SIZE % _BLOCK], [_BLOCK, 5])
    for shard, size in enumerate(sizes):
        blocks = [pts.copy() for _, pts in integrate._shard_blocks([radii], 11, shard, size)]
        assert [len(b) for b in blocks] == want_lens[shard]
        want = _whole_shard_draw(radii, size, 11, shard)
        assert np.concatenate(blocks).tobytes() == want.tobytes()


def _row_broadcast_blocks(radii, seed, shard, size):
    """Reference for _shard_blocks: each block drawn as 2u - 1, then each level's
    radii broadcast over the rows, into the real parts from the first m columns
    and into the imaginary parts from the last m."""
    m = len(radii[0])
    rng = rng_stream(seed, shard)
    for lo in range(0, size, _BLOCK):
        u = 2.0 * rng.random((min(_BLOCK, size - lo), 2 * m)) - 1.0
        for level, r in enumerate(radii):
            pts = np.empty((len(u), m), dtype=complex)
            np.multiply(u[:, :m], r, out=pts.real)
            np.multiply(u[:, m:], r, out=pts.imag)
            yield level, pts


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_shard_blocks_match_the_row_broadcast_layout(m):
    # three levels whose rows differ in some columns only; the last block is partial
    base = np.linspace(0.4, 1.0, m)
    radii = [base, base.copy(), base * 0.5]
    radii[1][0] = 0.05
    size = 2 * _BLOCK + 7
    got = [(level, pts.copy()) for level, pts in integrate._shard_blocks(radii, 2041, 3, size)]
    want = list(_row_broadcast_blocks(radii, 2041, 3, size))
    assert [level for level, _ in got] == [level for level, _ in want] == [0, 1, 2] * 3
    assert [len(pts) for _, pts in got] == [_BLOCK] * 6 + [7] * 3
    for (_, g), (_, w) in zip(got, want):
        assert g.tobytes() == w.tobytes()


_FUBINI_K2_LIFT = HartogsLift(
    base=Ball(1.0, 2), weight=RadialWeight(LogSingularProfile(), 2), fiber_dim=2
)


@pytest.mark.parametrize("domain", [Ball(1.0, 2), _FUBINI_K2_LIFT], ids=["ball", "fubini_k2_lift"])
def test_volume_counts_with_the_bits_of_integrating_ones(domain, monkeypatch):
    ones = lambda pts: np.ones(len(pts))
    samples = _SHARD_SIZE + _BLOCK + 3
    for cores in (1, 2):
        monkeypatch.setattr(integrate, "_usable_cores", lambda: cores)
        assert volume(domain, samples, 2042) == mc_integrate(domain, ones, samples, 2042)


def test_volume_memory_stays_at_one_block_per_worker():
    tracemalloc.start()
    try:
        volume(Ball(1.0, 4), 2_000_000, seed=2030)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
