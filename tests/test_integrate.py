import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from holoext import integrate
from holoext.bergman import _radial_reduction
from holoext.bounds import fubini_sides
from holoext.errors import DegenerateDomainError
from holoext.geometry import Ball, HartogsLift
from holoext.green import BallPointModel, RadialLiftModel, sublevel_scaling
from holoext.integrate import (
    _BLOCK,
    _LADDER,
    _SHARD_SIZE,
    _box_moments,
    _radial_rule,
    adaptive_gauss,
    fubini_mc_oracle,
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


# the unit ball of C^2 as the lift of the log-singular weight over the disc
# (|w|^2 < e^(-u(log |z|^2)) = 1 - |z|^2): a set of volume pi^2/2 whose
# proposal, the bidisc, it fills by half
BALL2_LIFT = HartogsLift(Ball(1.0, 1), RadialWeight(LogSingularProfile(), 1), 1)


def test_disc_area():
    # the unit disc is its own proposal, so its area is exact; the lift over
    # it is not, so its volume is an estimate
    res = volume(Ball(1.0, 1), 1_000_000, seed=42)
    assert (res.value, res.error_estimate) == (PI, 0.0)
    res = volume(BALL2_LIFT, 1_000_000, seed=42)
    assert res.value == pytest.approx(PI**2 / 2, rel=1e-2)
    assert res.error_estimate > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("radius", [1.0, 0.7, 2.5])
def test_a_ball_is_its_own_exact_proposal(n, radius):
    # every draw hits, so the volume is pi^n r^(2n) / n! with half-width 0
    res = volume(Ball(radius, n), 200_000, seed=45)
    assert res.value == pytest.approx(PI**n * radius ** (2 * n) / math.factorial(n), rel=1e-14)
    assert res.error_estimate == 0.0
    [(mean, stderr, hits, _)] = _box_moments(
        [(Ball(radius, n).bounding_balls(), Ball(radius, n).contains_batch)], None, 200_000, 45
    )
    assert (mean, stderr, hits) == (1.0, 0.0, 200_000)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ball_hits_its_polydisc_at_one_over_n_factorial(n):
    # the moduli |z_i|^2 of the polydisc's draws are uniform on [0, 1], so the
    # ball's hit count is binomial with p = 1/n! (a complex box would give
    # p = pi^n / (n! 4^n))
    samples = 1_000_000
    levels = [([(1, 1.0)] * n, Ball(1.0, n).contains_moduli)]
    [(_, _, hits, _)] = _box_moments(levels, None, samples, 38)
    p = 1.0 / math.factorial(n)
    assert abs(hits - samples * p) <= 5.0 * math.sqrt(samples * p * (1.0 - p))


def test_weighted_ball_integral():
    integrand = lambda x: (1.0 - x.sum(axis=1)) ** 2
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
    a = mc_integrate(BALL2_LIFT, integrand, 300_000, seed=7)
    b = mc_integrate(BALL2_LIFT, integrand, 300_000, seed=7)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    c = mc_integrate(BALL2_LIFT, integrand, 300_000, seed=8)
    assert c.value != a.value


def test_mc_unbiasedness_over_seeds():
    target = PI**2 / 2
    estimates = [volume(BALL2_LIFT, 100_000, seed=s).value for s in range(30)]
    mean = np.mean(estimates)
    stderr = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
    assert abs(mean - target) <= 3 * stderr


def test_mc_error_bar_covers_truth():
    res = volume(BALL2_LIFT, 400_000, seed=3)
    assert abs(res.value - PI**2 / 2) <= 3 * res.error_estimate


def test_mc_counts_nonfinite_integrand_values():
    # integrand is +inf on the inner disc; those samples are dropped
    def integrand(x):
        return np.where(x.sum(axis=1) < 0.25, np.inf, 1.0)

    res = mc_integrate(Ball(1.0, 1), integrand, 400_000, seed=5)
    assert res.rejected_infinite > 0
    assert res.value == pytest.approx(PI - PI / 4, rel=2e-2)


def test_mc_degenerate_domain_raises():
    # the scaled lift at a = 10 fills Gamma(11)^2 / (pi Gamma(21)) = 1.7e-6
    # of its bidisc proposal, under the 0.1% floor
    lift = HartogsLift(Ball(1.0, 1), RadialWeight(ScaledLogProfile(a=10.0), 1), 1)
    with pytest.raises(DegenerateDomainError, match="bounding balls"):
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


def _legendre_on_unit_interval(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def test_adaptive_gauss_doubles_a_rule():
    value, resid, nodes, converged = adaptive_gauss(np.exp, rules=_legendre_on_unit_interval)
    assert (nodes, converged) == (16 + 32, True)
    assert value == pytest.approx(math.e - 1.0, rel=1e-15)
    assert resid <= 1e-10 * value
    # no rule, or a value that is not finite, ends the ladder unconverged
    assert adaptive_gauss(np.exp, rules=lambda n: None)[2:] == (0, False)
    infinite = lambda x: np.full_like(x, np.inf)
    assert adaptive_gauss(infinite, rules=_legendre_on_unit_interval)[2:] == (16, False)


def test_radial_rule_at_the_legendre_weight_is_gauss_legendre():
    # k = 1, edge 0 and power 1/2 give the weight (1 - y)^0 y^0: r^2 = y is a
    # Gauss-Legendre node mapped to [0, 1], and the weights integrate g = 1 to mu_1 / 2
    eps = np.finfo(float).eps
    for nodes in _LADDER:
        r, w = _radial_rule(nodes, 1, 0.0, 0.5)
        x = np.polynomial.legendre.leggauss(nodes)[0]
        assert np.max(np.abs(r * r - 0.5 * (1.0 + x))) <= 4 * eps
        assert w.sum() == pytest.approx(PI, rel=1e-14)


_RULE_DIGEST = """
import hashlib
from holoext.integrate import _LADDER, _radial_rule

digest = hashlib.sha256()
for k, edge, power in [(1, 0.0, 0.5), (2, -0.9, 1.0), (3, 30.0, 0.25), (1, 1.5, 1e-3), (2, 0.1, 10.0)]:
    for nodes in _LADDER:
        for part in _radial_rule(nodes, k, edge, power):
            digest.update(part.tobytes())
print(digest.hexdigest())
"""


def test_radial_rule_does_not_depend_on_blas_threads():
    # numpy's eigvalsh runs LAPACK's blocked tridiagonal reduction, which may thread
    digests = {}
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _RULE_DIGEST],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            timeout=300,
        )
        digests[threads] = proc.stdout
    assert digests["1"] == digests[None]


def test_radial_integrate_vanishing_order():
    # sqrt(1 - r) = (1 - r)^(-1/2 + 1): mu_1 integral_0^1 sqrt(1 - r) r dr = 2 pi B(2, 3/2)
    exact = 2.0 * PI * 4.0 / 15.0
    g = lambda r: np.sqrt(1.0 - r)
    rule = radial_integrate(g, 1, exponents=(-0.5, 1.0), vanishing=1)
    assert rule.method == "gauss-jacobi"
    assert rule.value == pytest.approx(exact, rel=1e-14)
    # no Jacobi rule carries (1 - r)^(-3/2), so bisection integrates the same g
    bisected = radial_integrate(g, 1, exponents=(-1.5, 1.0), vanishing=2)
    assert bisected.method == "adaptive-quadrature"
    assert bisected.value == pytest.approx(exact, rel=1e-9)
    # without the vanishing order the same edge is non-integrable
    assert radial_integrate(g, 1, exponents=(-1.5, 1.0)).method == "endpoint-exponent"


@pytest.mark.parametrize("profile", FUBINI_PROFILES, ids=lambda p: type(p).__name__)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("z2_norm", [0.0, 0.3, 0.6])
def test_fubini_identity_catalog(profile, k, z2_norm):
    lhs, rhs = fubini_sides(profile, k, z2_norm)
    assert lhs.converged and rhs.converged
    assert (lhs.method, rhs.method) == ("gauss-jacobi", "gauss-jacobi")
    assert abs(lhs.value - rhs.value) <= 1e-5 * lhs.value


def test_fubini_closed_forms():
    u = LogSingularProfile()
    lhs1, rhs1 = fubini_sides(u, 1, 0.0)
    assert lhs1.value == pytest.approx(PI / 2, rel=1e-6)
    assert rhs1.value == pytest.approx(PI / 2, rel=1e-6)
    lhs2, rhs2 = fubini_sides(u, 2, 0.0)
    assert lhs2.value == pytest.approx(PI**2 / 12, rel=1e-6)
    assert rhs2.value == pytest.approx(PI**2 / 12, rel=1e-6)


def test_fubini_error_estimates_are_the_rule_residuals():
    # no truncated tail is left to bound: each side's error is the residual of
    # its radial rule, times (1 - z2^2)^k like the value
    u, k, z2 = LogSingularProfile(), 1, 0.3
    factor, exponents = _radial_reduction(RadialWeight(u, k))
    slice_rule = radial_integrate(factor, k, exponents=exponents)
    rules = slice_rule, RadialLiftModel(u, k, k).fiber_integral()
    for side, rule in zip(fubini_sides(u, k, z2), rules):
        assert side.error_estimate == (1.0 - z2**2) ** k * rule.error_estimate
        assert 0.0 <= side.error_estimate <= 1e-10 * side.value


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


@pytest.mark.parametrize("profile", [LogSingularProfile(), ScaledLogProfile(a=0.5)], ids=repr)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("z2_norm", [0.3, 0.6, 0.95])
def test_fubini_mc_oracle_offset_is_a_pure_scale(profile, k, z2_norm):
    # z' -> rho z' maps the centred lift onto the off-centre one, so the same
    # draws give the centred estimate times (1 - z2^2)^k, value and error alike
    centred = fubini_mc_oracle(profile, k, 0.0, 50_000, seed=40)
    off = fubini_mc_oracle(profile, k, z2_norm, 50_000, seed=40)
    s = (1.0 - z2_norm**2) ** k
    assert off.samples_or_nodes == centred.samples_or_nodes
    for got, base in [(off.value, centred.value), (off.error_estimate, centred.error_estimate)]:
        assert base > 0.0
        assert abs(got - s * base) <= 4 * math.ulp(s * base)


def test_quadrature_and_mc_agree_within_error_bars():
    u = LogSingularProfile()
    integrand = lambda x: np.exp(-RadialWeight(u, 1).value_batch(x))
    mc = mc_integrate(Ball(1.0, 1), integrand, 500_000, seed=17)
    quad = radial_integrate(lambda r: 1.0 - r * r, 1)
    assert abs(mc.value - quad.value) <= 3 * (mc.error_estimate + quad.error_estimate)


def test_monte_carlo_estimators_name_their_method():
    disc = Ball(1.0, 1)
    results = [
        volume(disc, 1000, seed=0),
        mc_integrate(disc, lambda pts: np.ones(len(pts)), 1000, seed=0),
        sublevel_scaling(BallPointModel(1), None, -2.0, 1000, seed=0),
        *sublevel_scaling(BallPointModel(1), None, [-2.0, -4.0], 1000, seed=0),
        fubini_mc_oracle(LogSingularProfile(), 1, 0.0, 20_000, seed=1),
    ]
    assert [r.method for r in results] == ["monte-carlo"] * len(results)


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
# The blocked, threaded sampler against a one-thread reference
# ---------------------------------------------------------------------------


def _reference_blocks(dims, scales, seed, shard, size):
    """Reference for _shard_blocks: each block drawn as rng.random((m, b)),
    each group of ``dims`` rows reduced by np.max to one row, then each
    level's scale of ball j broadcast along row j."""
    m = sum(dims)
    starts = np.cumsum((0, *dims))
    rng = rng_stream(seed, shard)
    for lo in range(0, size, _BLOCK):
        u = rng.random((m, min(_BLOCK, size - lo)))
        top = np.array([np.max(u[a:b], axis=0) for a, b in zip(starts[:-1], starts[1:])])
        for level, c in enumerate(scales):
            yield level, (top * np.asarray(c)[:, None]).T


def _whole_shard_moments(levels, integrand, samples, seed):
    """Reference for _box_moments: for each level on its own, each shard drawn
    on one thread by ``_reference_blocks`` at the scales r^2, masked and
    reduced block by block over the inside values, shards in order."""
    moments = []
    for balls, inside in levels:
        dims = [k for k, _ in balls]
        radii = np.array([r for _, r in balls])
        s1 = s2 = 0.0
        n_inside = n_bad = 0
        for shard, done in enumerate(range(0, samples, _SHARD_SIZE)):
            size = min(_SHARD_SIZE, samples - done)
            t1 = t2 = 0.0
            for _, block in _reference_blocks(dims, [radii * radii], seed, shard, size):
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


def _nan_on_left_half(x):
    # 1/|z|^2 spans many magnitudes, so any change of summation order shows;
    # NaN where the first column is below 1/4: |z_1|^2 on the discs, a
    # quarter of the first level's draws and about half of the cut level's;
    # |z|^2 on the balls, a sixteenth and about a quarter
    vals = 1.0 / x.sum(axis=1)
    vals[x[:, 0] < 0.25] = np.nan
    return vals


def _ball_levels(proposal, watch=None):
    """The unit ball of C^2 sampled in the bidisc, then in one cut to
    |z_1| < 0.7, tested on the moduli; or in its own ball, then in the ball
    of radius 0.7, tested on the squared radius.  ``watch`` runs at every
    test."""
    ball = Ball(1.0, 2)
    test = ball.contains_moduli if proposal == "discs" else ball.contains_batch

    def inside(x):
        if watch:
            watch()
        return test(x)

    if proposal == "discs":
        return [([(1, 1.0), (1, 1.0)], inside), ([(1, 0.7), (1, 1.0)], inside)]
    return [([(2, 1.0)], inside), ([(2, 0.7)], inside)]


PROPOSALS = pytest.mark.parametrize("proposal", ["discs", "ball"])


MOMENT_SAMPLES = pytest.mark.parametrize(
    "samples",
    [1, _BLOCK - 1, _BLOCK + 1, _SHARD_SIZE + 3 * _BLOCK + 5],
    ids=["one", "block_minus_one", "block_plus_one", "two_shards"],
)


@PROPOSALS
@MOMENT_SAMPLES
def test_box_moments_bit_identical_to_whole_shard_loop(samples, proposal):
    levels = _ball_levels(proposal)
    for count in (1, 2):
        got = _box_moments(levels[:count], _nan_on_left_half, samples, 2029)
        assert got == _whole_shard_moments(levels[:count], _nan_on_left_half, samples, 2029)
        if samples > 1000:
            assert all(level[3] > 0 for level in got)
    if samples > 1000:
        assert got[0] != got[1]


@PROPOSALS
@MOMENT_SAMPLES
def test_box_moments_same_on_one_and_two_workers(samples, proposal, monkeypatch):
    threads = set()
    watch = lambda: threads.add(threading.get_ident())
    args = (_ball_levels(proposal, watch), _nan_on_left_half, samples, 2031)
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

    def sqrt_of_negative(x):
        return np.sqrt(x[:, 0] - 0.5)

    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            mc_integrate(domain, sqrt_of_negative, _SHARD_SIZE + 1, seed=3)


def test_shard_blocks_concatenate_to_the_whole_shard_draw():
    # on C^1 a block is one row of draws, so the blocks of a shard, in order,
    # are its whole stream drawn in one call
    sizes = (_SHARD_SIZE, _BLOCK + 5)
    assert integrate._shards(sum(sizes)) == list(enumerate(sizes))
    want_lens = ([_BLOCK] * (_SHARD_SIZE // _BLOCK) + [_SHARD_SIZE % _BLOCK], [_BLOCK, 5])
    for shard, size in enumerate(sizes):
        blocks = [x.copy() for _, x in integrate._shard_blocks([1], [[0.5]], 11, shard, size)]
        assert [len(b) for b in blocks] == want_lens[shard]
        want = rng_stream(11, shard).random((size, 1)) * 0.5
        assert np.concatenate(blocks).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "dims", [(1,), (1, 1), (2,), (1, 2), (3,), (2, 1, 1), (4,), (2, 3), (5,)], ids=str
)
def test_shard_blocks_match_the_row_broadcast_layout(dims):
    # three levels whose scales differ in some balls only, then the same
    # draws as one level, written over its uniforms, and as one level at
    # unit scales, which is not multiplied; two shards, each ending in a
    # partial block; each ball's column is the np.max of its uniforms
    nb = len(dims)
    base = np.linspace(0.4, 1.0, nb)
    scales = [base, base.copy(), base * 0.5]
    scales[1][0] = 0.05
    size = 2 * _BLOCK + 7
    for shard in (0, 3):
        for levels in (scales, scales[2:], [np.ones(nb)]):
            got = [
                (level, x.copy())
                for level, x in integrate._shard_blocks(dims, levels, 2041, shard, size)
            ]
            want = list(_reference_blocks(dims, levels, 2041, shard, size))
            count = len(levels)
            assert [level for level, _ in got] == [level for level, _ in want] == list(range(count)) * 3
            assert [len(x) for _, x in got] == [_BLOCK] * 2 * count + [7] * count
            for (_, g), (_, w) in zip(got, want):
                assert g.tobytes() == w.tobytes()
    # the consumers see (b, balls) views of ball-major blocks
    _, x = next(integrate._shard_blocks(dims, scales, 2041, 0, size))
    assert x.shape == (_BLOCK, nb) and x.T.flags.c_contiguous


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("radius", [1.0, 0.6])
def test_ball_draws_are_uniform_squared_radii(k, radius):
    # the squared radius of a uniform point of the ball of radius r in C^k
    # is r^2 times a Beta(k, 1) variable: mean r^2 k / (k + 1), variance
    # r^4 k / ((k + 1)^2 (k + 2))
    size = 3 * _BLOCK + 11
    scale = radius * radius
    blocks = [x.copy() for _, x in integrate._shard_blocks([k], [[scale]], 2045, 0, size)]
    t = np.concatenate(blocks)
    assert t.shape == (size, 1) and np.all(t >= 0.0) and np.all(t < scale)
    mean = scale * k / (k + 1)
    stderr = scale * math.sqrt(k / ((k + 2) * size)) / (k + 1)
    assert abs(t.mean() - mean) <= 3.0 * stderr


def test_disc_groups_keep_their_uniforms():
    # a disc's column is its scaled uniform, bit for bit, beside a ball or on
    # its own; a ball's is the maximum of its uniforms
    size = 2 * _BLOCK + 3
    rng = rng_stream(2046, 0)
    u = np.concatenate([rng.random((4, min(_BLOCK, size - lo))) for lo in range(0, size, _BLOCK)], 1)
    for dims in ((1, 1, 1, 1), (1, 2, 1)):
        blocks = integrate._shard_blocks(dims, [[1.0] * len(dims)], 2046, 0, size)
        t = np.concatenate([x.copy() for _, x in blocks])
        assert t[:, 0].tobytes() == u[0].tobytes() and t[:, -1].tobytes() == u[3].tobytes()
    assert t[:, 1].tobytes() == np.maximum(u[1], u[2]).tobytes() != u[1].tobytes()


def test_a_split_lift_proposal_gives_its_volume():
    # the lift of B^2 under the log-singular weight on z_1 draws in
    # B^1 x B^1 x B^1; its volume is pi times the integral of 1 - |z_1|^2
    # over B^2, pi^3 / 3
    res = volume(RadialLiftModel(LogSingularProfile(), 1, 2).domain(), 1_000_000, seed=47)
    assert abs(res.value - PI**3 / 3) <= 3.0 * res.error_estimate
    assert 0.0 < res.error_estimate < 0.01 * res.value


_FUBINI_K2_LIFT = HartogsLift(
    base=Ball(1.0, 2), weight=RadialWeight(LogSingularProfile(), 2), fiber_dim=2
)


@pytest.mark.parametrize("domain", [Ball(1.0, 2), _FUBINI_K2_LIFT], ids=["ball", "fubini_k2_lift"])
def test_volume_counts_with_the_bits_of_integrating_ones(domain, monkeypatch):
    ones = lambda x: np.ones(len(x))
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
