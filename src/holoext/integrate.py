"""Seeded Monte Carlo over domains and adaptive 1D radial quadrature.

Every Monte Carlo estimator in the package (``mc_integrate`` and ``volume``
here, ``green.sublevel_scaling`` and the Monte Carlo ``bergman.gram_matrix``)
draws through one kernel, ``_shard_blocks``: uniform points in a bounding
box with plain rejection, in shards of ``_SHARD_SIZE`` points.  Shard j is
drawn from a counter-based (Philox) generator keyed by (seed, j), in
consecutive blocks of ``_BLOCK`` points.  Each worker holds two buffers,
allocated once per shard and refilled in place, so the membership test and
the integrand run on cache-sized arrays: the complex point buffer, whose
float64 view takes the draws, and the block's 2u - 1 laid out once in
complex order (re_1, im_1, re_2, ...).
The kernel takes a list of levels, each a box: each level fills the point
buffer with one contiguous product of the 2u - 1 buffer and its radii, so a
ladder of levels (the sublevel sets of ``sublevel_scaling``) pays for one
draw, and each level sees exactly the points a draw for it alone would
make.

Scheduling.  ``_box_moments`` (behind ``mc_integrate``, ``volume`` and
``sublevel_scaling``) runs its shards on a thread pool of
min(usable cores, shards) workers; with one shard or one usable core it
runs inline.  Each shard returns its partial sums per level, which are
added in shard order.  Inside a shard each block adds, per level, the sum
of its inside values to s1, squares those values in place and adds their
sum to s2.  A counting estimator (``volume``, and ``sublevel_scaling``
without an integrand) passes no integrand: each block adds its inside
count to s1 and s2, the exact sums of that many ones, and nothing is
copied or evaluated.  No BLAS call takes part, so every estimate is a
fixed function of (samples, seed, ``_SHARD_SIZE``, ``_BLOCK``), the same
for a level sampled alone or in a ladder: the same bits on any number of
workers and any BLAS thread count.  Memory is one block per worker,
however many levels share it.

The Monte Carlo Gram walks the same shards and blocks in order on one
thread and reduces each block with two GEMMs; it holds one block plus its
accumulators.  It stays off the pool because each pooled GEMM would start
its own BLAS threads, which oversubscribe the cores: on 2 vCPUs, 3 x 10^6
samples took 2.2-2.5 s with shards on two workers against 1.3-1.5 s on one
thread; the pool wins (1.0-1.1 s) only with OPENBLAS_NUM_THREADS=1, and numpy
cannot set the BLAS threads of one worker (threadpoolctl could).  On one
thread the BLAS threads give no measurable gain: a 500k-sample Gram took
0.24-0.29 s at one BLAS thread and 0.22-0.36 s at two.

Integrands are vectorized: they receive an (N, ambient_dim) complex array of
points that already passed the membership test and return N real values.
Membership tests and integrands may run on several threads at once, each
under a copy of the caller's context.  A non-finite integrand value counts
as zero and is reported in the result's ``rejected_infinite``.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDomainError
from .geometry import Ball, HartogsLift
from .weights import RadialProfile, RadialWeight, ShiftedProfile

__all__ = [
    "QuadratureResult",
    "sigma_mu",
    "rng_stream",
    "mc_integrate",
    "volume",
    "adaptive_gauss",
    "radial_integrate",
    "fubini_sides",
    "fubini_mc_oracle",
]

_SHARD_SIZE = 1_000_000
_BLOCK = 16_384  # rows per drawn block: 1 MB of uniforms plus 1 MB of points on C^4
_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_TAIL_CUT = 60.0  # truncation point for improper integrals over (-inf, 0]


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate with an error bound and reproducibility data."""

    value: float
    error_estimate: float
    samples_or_nodes: int
    seed: int | None = None
    converged: bool = True
    rejected_infinite: int = 0
    note: str = ""


def rng_stream(seed: int, shard: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, shard).

    Identical keys reproduce identical sample sequences across platforms, so
    sharded estimates reduced in fixed shard order are bit-stable.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, shard], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _box_volume(radii):
    return float(np.prod((2.0 * radii) ** 2))


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shards(samples: int):
    """(shard, size) pairs: shard j holds the next min(_SHARD_SIZE, remaining) draws."""
    return [
        (shard, min(_SHARD_SIZE, samples - done))
        for shard, done in enumerate(range(0, samples, _SHARD_SIZE))
    ]


def _shard_blocks(radii, seed: int, shard: int, size: int):
    """Yield (level, points) for the ``size`` uniform draws of one shard.

    ``radii`` holds one row of box radii per level, the box of a row being
    prod |z_i| < radii_i.  The draws come from rng_stream(seed, shard) in
    consecutive blocks of at most ``_BLOCK`` rows, each row holding the real
    parts of its m coordinates, then their imaginary parts.  A block is drawn
    into the float64 view of the point buffer and written once as 2u - 1, in
    complex order (re_1, im_1, re_2, ...), into a second buffer; each level
    then fills the point buffer with one contiguous product of that buffer
    and its radii, each repeated twice.  Every coordinate is (2u - 1) * r_i
    with one rounding, so each level sees exactly the points a draw for it
    alone would make.  Both buffers are reused for the whole shard, and the
    points are valid only until the next yield.
    """
    m = len(radii[0])
    rows = min(_BLOCK, size)
    unit = np.empty((rows, m, 2))
    pts = np.empty((rows, m), dtype=complex)
    flat = pts.view(np.float64)
    scales = [np.repeat(r, 2) for r in radii]
    rng = rng_stream(seed, shard)
    for lo in range(0, size, _BLOCK):
        b = min(_BLOCK, size - lo)
        ub, fb = unit[:b], flat[:b]
        rng.random(out=fb)
        np.multiply(fb.reshape(b, 2, m).transpose(0, 2, 1), 2.0, out=ub)
        ub -= 1.0
        for level, scale in enumerate(scales):
            np.multiply(ub.reshape(b, 2 * m), scale, out=fb)
            yield level, pts[:b]


def _shard_moments(levels, integrand, seed: int, shard: int, size: int):
    """Per level, [sum, sum of squares, inside count, non-finite count] over one shard.

    Each block adds the sum of its inside values, then the sum of their
    squares; values outside the level's set are zero and add nothing.  An
    ``integrand`` of None is the constant 1: a block adds its inside count to
    both sums, which is what summing that many ones gives, bit for bit.
    """
    radii, tests = zip(*levels)
    parts = [[0.0, 0.0, 0, 0] for _ in levels]
    for level, pts in _shard_blocks(radii, seed, shard, size):
        mask = tests[level](pts)
        hits = int(np.count_nonzero(mask))
        part = parts[level]
        if hits and integrand is None:
            part[0] += float(hits)
            part[1] += float(hits)
        elif hits:
            # a copy, so that squaring in place leaves the integrand's array alone
            vals = np.array(integrand(np.compress(mask, pts, axis=0)), dtype=float)
            bad = ~np.isfinite(vals)
            if bad.any():
                part[3] += int(bad.sum())
                vals[bad] = 0.0
            part[0] += float(vals.sum())
            np.multiply(vals, vals, out=vals)
            part[1] += float(vals.sum())
        part[2] += hits
    return parts


def _box_moments(levels, integrand, samples: int, seed: int):
    """Moments of the masked integrand over the box draws of each level.

    ``levels`` is a list of (radii, inside) pairs that share the draws:
    ``inside`` maps a block of points in the box of ``radii`` to its
    membership mask, and ``integrand`` maps the inside points to real
    values, or is None to count them.  The shards run and are reduced as the module docstring
    describes; each worker runs under a copy of the caller's context, so
    ``np.errstate`` carries over.  Returns, per level, the sample mean, its
    standard error, the inside count and the non-finite count, with the bits
    of a call for that level alone.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    shards = _shards(samples)
    workers = min(_usable_cores(), len(shards))
    args = (levels, integrand, seed)
    if workers == 1:
        parts = [_shard_moments(*args, shard, size) for shard, size in shards]
    else:
        with ThreadPoolExecutor(workers) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, _shard_moments, *args, shard, size)
                for shard, size in shards
            ]
            parts = [f.result() for f in futures]
    moments = []
    for level_parts in zip(*parts):
        # a plain loop: sum() of floats is compensated from Python 3.12 on
        s1 = s2 = 0.0
        n_inside = n_bad = 0
        for p1, p2, p_inside, p_bad in level_parts:
            s1 += p1
            s2 += p2
            n_inside += p_inside
            n_bad += p_bad
        mean = s1 / samples
        var = max(s2 / samples - mean * mean, 0.0)
        moments.append((mean, math.sqrt(var / samples), n_inside, n_bad))
    return moments


def sigma_mu(k: int):
    """(sigma_k, mu_k): volumes of the unit ball in C^k and of S^(2k-1)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return (
        math.pi**k / math.factorial(k),
        2.0 * math.pi**k / math.factorial(k - 1),
    )


def _ball_moment(m: int, beta: tuple, q: int) -> float:
    """integral_(B^m) |z^beta|^2 (1 - |z|^2)^q dV = pi^m beta! q! / (m+|beta|+q)!.

    For m = 0 the slice is a point and the moment is 1.
    """
    if len(beta) != m:
        raise ValueError(f"index {beta} must have length {m}")
    if m == 0:
        return 1.0
    num = math.prod(math.factorial(b) for b in beta) * math.factorial(q)
    return math.pi**m * num / math.factorial(m + sum(beta) + q)


def _data_moment(m: int, f_coeffs, q: int) -> float:
    """sum_beta |f_beta|^2 * integral_(B^m) |z^beta|^2 (1 - |z|^2)^q dV.

    ``f_coeffs`` maps multi-indices of length m to coefficients; None is the
    constant function 1.
    """
    if f_coeffs is None:
        f_coeffs = {(0,) * m: 1.0}
    return sum(abs(c) ** 2 * _ball_moment(m, beta, q) for beta, c in f_coeffs.items())


def mc_integrate(domain, integrand, samples: int, seed: int) -> QuadratureResult:
    """Monte Carlo estimate of the integral of ``integrand`` over ``domain``.

    The estimator is box volume times the mean of chi_domain * integrand over
    the box; the error_estimate is a 99% confidence half-width.  An
    ``integrand`` of None is the constant 1 (the domain's volume), counted
    without evaluating anything and with the bits of an integrand of ones.
    Raises DegenerateDomainError when fewer than 0.1% of the samples land
    inside.
    """
    radii = domain.bounding_radii()
    [(mean, stderr, n_inside, n_bad)] = _box_moments(
        [(radii, domain.contains_batch)], integrand, samples, seed
    )
    if n_inside < 0.001 * samples:
        raise DegenerateDomainError(
            f"only {n_inside} of {samples} samples hit the domain; "
            "the bounding box does not resolve it"
        )
    boxvol = _box_volume(radii)
    return QuadratureResult(
        value=boxvol * mean,
        error_estimate=_Z99 * boxvol * stderr,
        samples_or_nodes=samples,
        seed=seed,
        rejected_infinite=n_bad,
    )


def volume(domain, samples: int, seed: int) -> QuadratureResult:
    """Lebesgue volume of the domain by rejection sampling.

    The hits are counted (``mc_integrate`` with no integrand), so the result
    has the bits of integrating ones.
    """
    return mc_integrate(domain, None, samples, seed)


# ---------------------------------------------------------------------------
# Adaptive Gauss quadrature
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_RTOL = 1e-10  # relative residual target of adaptive_gauss


def _gl15(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GL_NODES
    fx = np.asarray(f(x), dtype=float)
    bad = ~np.isfinite(fx)
    if bad.any():
        fx = np.where(bad, 0.0, fx)
    return half * float(np.dot(_GL_WEIGHTS, fx))


def adaptive_gauss(f, a, b, node_cap=10**6):
    """Adaptive composite 15-node Gauss rule on [a, b].

    Subdivides until the local refinement residual fits a length-proportional
    share of the relative tolerance ``_RTOL``, down to a width floor of 1e-14
    relative to the interval.  Nodes never land on interval endpoints and non-finite
    node values contribute zero, so integrable endpoint singularities are
    handled; their unresolved leftovers show up in the returned residual.

    Returns (value, residual, nodes, converged): converged is False when the
    node cap was reached or the accumulated residual stayed above 100x the
    relative target.
    """
    if not b > a:
        raise ValueError("need b > a")
    whole = _gl15(f, a, b)
    nodes = 15
    scale = max(abs(whole), 1e-300)
    stack = [(a, b, whole)]
    total = 0.0
    resid = 0.0
    capped = False
    while stack:
        lo, hi, coarse = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _gl15(f, lo, mid)
        right = _gl15(f, mid, hi)
        nodes += 30
        fine = left + right
        err = abs(fine - coarse)
        budget = _RTOL * scale * (hi - lo) / (b - a)
        if err <= budget or (hi - lo) <= 1e-14 * (b - a):
            total += fine
            resid += err
            scale = max(scale, abs(total))
        elif nodes >= node_cap:
            total += fine
            resid += err
            capped = True
        else:
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    converged = (not capped) and resid <= 100.0 * _RTOL * max(abs(total), scale)
    return total, resid, nodes, converged


def radial_integrate(g, k: int, node_cap=10**6):
    """mu_k * integral_0^1 g(r) r^(2k-1) dr for a radial integrand on the unit ball of C^k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    _, mu_k = sigma_mu(k)
    value, resid, nodes, converged = adaptive_gauss(
        lambda r: g(r) * r ** (2 * k - 1), 0.0, 1.0, node_cap=node_cap
    )
    return QuadratureResult(
        value=mu_k * value,
        error_estimate=mu_k * resid,
        samples_or_nodes=nodes,
        converged=converged,
        note="" if converged else "residual target not reached within the node cap",
    )


# ---------------------------------------------------------------------------
# The two sides of the slice/fiber integral identity
# ---------------------------------------------------------------------------


def fubini_sides(profile: RadialProfile, k: int, z2_norm: float = 0.0):
    """Both sides of the identity between a weighted slice integral and the
    fiber integral of e^(-2k psi).

    For a slice at |z''| = z2_norm the radial profile must blow up at
    T = log(1 - z2_norm^2); the catalog profiles blow up at 0, so they are
    translated by T, which leaves the z2_norm = 0 case untouched.  The left
    side is

        mu_k/2 * int_(-inf)^T e^(-k u(t-T)) e^(k t) dt

    (the slice integral of e^(-phi) after the radial substitution), the right
    side is

        mu_k/(2k) * int_(-inf)^0 e^(k (T + u^(-1)(-t/k))) e^t dt

    (the fiber integral of e^(-2k psi)).  Both improper integrals are
    truncated 60 units below their upper limit; the analytic tail bound is
    added to each error estimate.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not 0.0 <= z2_norm < 1.0:
        raise ValueError("z2_norm must lie in [0, 1)")
    big_t = math.log1p(-(z2_norm**2))
    _, mu_k = sigma_mu(k)

    def lhs_integrand(t):
        return np.exp(k * (t - profile.value(t - big_t)))

    lhs_raw, lhs_resid, lhs_nodes, lhs_ok = adaptive_gauss(
        lhs_integrand, big_t - _TAIL_CUT, big_t
    )
    # integrand <= e^(k t) below the cut since u >= 0
    lhs_tail = math.exp(k * (big_t - _TAIL_CUT)) / k

    def rhs_integrand(t):
        return np.exp(k * (big_t + profile.inverse(-t / k)) + t)

    rhs_raw, rhs_resid, rhs_nodes, rhs_ok = adaptive_gauss(
        rhs_integrand, -_TAIL_CUT, 0.0
    )
    # integrand <= e^(k T) e^t below the cut since u^(-1) <= 0
    rhs_tail = math.exp(k * big_t - _TAIL_CUT)

    lhs = QuadratureResult(
        value=0.5 * mu_k * lhs_raw,
        error_estimate=0.5 * mu_k * (lhs_resid + lhs_tail),
        samples_or_nodes=lhs_nodes,
        converged=lhs_ok,
    )
    rhs = QuadratureResult(
        value=0.5 * mu_k / k * rhs_raw,
        error_estimate=0.5 * mu_k / k * (rhs_resid + rhs_tail),
        samples_or_nodes=rhs_nodes,
        converged=rhs_ok,
    )
    return lhs, rhs


def fubini_mc_oracle(
    profile: RadialProfile, k: int, z2_norm: float, samples: int, seed: int
) -> QuadratureResult:
    """Monte Carlo cross-check of the slice integral via a lifted volume.

    The volume of {(z', w) : |z'| < slice radius, |w|^2 < e^(-u(log |z'|^2))}
    equals sigma_k times the weighted slice integral, so dividing the sampled
    volume by sigma_k must reproduce both quadrature sides.
    """
    if not 0.0 <= z2_norm < 1.0:
        raise ValueError("z2_norm must lie in [0, 1)")
    big_t = math.log1p(-(z2_norm**2))
    prof = profile if big_t == 0.0 else ShiftedProfile(profile, big_t)
    lift = HartogsLift(
        base=Ball(radius=math.sqrt(1.0 - z2_norm**2), dim=k),
        weight=RadialWeight(prof, k),
        fiber_dim=k,
    )
    res = volume(lift, samples, seed)
    sigma_k, _ = sigma_mu(k)
    return QuadratureResult(
        value=res.value / sigma_k,
        error_estimate=res.error_estimate / sigma_k,
        samples_or_nodes=res.samples_or_nodes,
        seed=res.seed,
        converged=res.converged,
        rejected_infinite=res.rejected_infinite,
    )
