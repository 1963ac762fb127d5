"""Seeded Monte Carlo over domains and 1D radial quadrature.

Every Monte Carlo estimator in the package (``mc_integrate`` and ``volume``
here, ``green.sublevel_scaling`` and the Monte Carlo ``bergman.gram_matrix``)
draws through one kernel, ``_shard_blocks``, in shards of ``_SHARD_SIZE``
draws.  Shard j is drawn from an SFC64 generator seeded by (seed, j), in
consecutive blocks of ``_BLOCK`` draws.  A block is coordinate-major: an
(m, b) array of uniforms whose row i holds the b draws of coordinate i, so
every per-coordinate operation runs on contiguous memory.  The kernel takes
the sizes of the coordinate groups that form the balls of the proposal (see
below), and a list of levels, each a row of per-ball scales c_j; it reduces
each ball's rows to one and writes each level as that row times c_j with one
contiguous product per ball, every value rounded once.  So a ladder of
levels (the sublevel sets of ``sublevel_scaling``) pays for one draw, and
each level sees exactly the values a draw for it alone would make.  The
consumers get each level as an (N, balls) view whose columns are
contiguous.

The domains, the Green functions and the weights are Reinhardt: they depend
on the point through its squared moduli x_i = |z_i|^2 alone, and every
domain, membership test and integrand of ``mc_integrate`` reads the moduli
of a proposal ball only through their sum, the squared radius |z|^2.  If z
is uniform on the ball of radius r in C^k, then |z|^2 / r^2 follows the
Beta(k, 1) law, the law of the maximum of k uniforms.  So the kernel writes
over the first row of each ball the maximum of its k rows, by k - 1
``np.maximum`` calls, and scales it by r^2; a draw still takes m uniforms in
the same order, and a disc's row keeps its uniform bit for bit.  The
maximum is also, exactly, the sum of the spacings of the k sorted uniforms,
which are uniform on the simplex {x >= 0, sum x < 1} (Devroye, Non-Uniform
Random Variate Generation, 1986, ch. V): the uniforms are multiples of
2^-53, so every spacing is exact.  So a column has the bits of per-coordinate
moduli drawn that way and summed ball by ball.  The estimators
behind ``_box_moments`` (``mc_integrate``, ``volume`` and
``sublevel_scaling``) take (N, balls) arrays of those squared radii; an
integrand that needs the moduli of single coordinates belongs on a proposal
of discs, where each column is one |z_i|^2.  The estimate is the proposal's
volume prod pi^k r^(2k) / k! times the sample mean.  ``mc_integrate`` draws
in the product of the domain's bounding balls (``geometry``): a ball is its
own proposal, every draw hits and its volume has half-width 0, and the
log-singular lift at k = 2, the ball of C^4, fills 1/6 of its proposal
against 1/24 of the unit polydisc.  ``sublevel_scaling`` keeps a polydisc
for its levels (its docstring says why), so its masks see every modulus.

The Monte Carlo Gram integrates z^alpha conj(z^beta), which depends on the
phases, so it keeps its box in R^(2m): it draws (2m, b) blocks at the
scales 2 r_i, centres them on 0, and reads the real parts from the first m
rows and the imaginary parts from the last m.  A polydisc box would raise
its acceptance on the ball of C^2 from 31% to 50%, but to do that it would
push 1.6 times the rows through the product chains and the two SYRKs of
each block, which take most of its time.

Scheduling.  ``_box_moments`` runs its shards on a thread pool of
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
thread and reduces each block with two SYRKs (``bergman`` module
docstring); it holds one block plus its accumulators.  OpenBLAS splits a
SYRK's output across its threads and never a sum, so the Gram's bits do not
depend on their number either.  It stays off the pool because each pooled
SYRK starts its own BLAS threads, which oversubscribe the cores: on 2
vCPUs, 3 x 10^6 samples took 1.0-1.2 s with shards on two workers against
0.75-0.82 s on one thread; the pool wins (0.60-0.71 s) only with
OPENBLAS_NUM_THREADS=1, and numpy cannot set the BLAS threads of one worker
(threadpoolctl could).  On one thread the BLAS threads give no measurable
gain: a 500k-sample Gram took 0.139-0.149 s at one BLAS thread and
0.137-0.162 s at two.

Integrands are vectorized: they receive an (N, balls) array of the squared
radii of points that already passed the membership test and return N real
values.  A membership test maps a whole block to its boolean mask:
a domain's ``contains_batch`` for ``mc_integrate`` and ``volume``, and for
``sublevel_scaling`` the Green model's ``sublevel_batch`` at one level, a
closed form of the domain's part of {G < t/2} that evaluates neither G nor
a domain test of its own on the ball models.  Membership tests and
integrands may run on several threads at once, each under a copy of the
caller's context.  A non-finite integrand
value counts as zero and is reported in the result's ``rejected_infinite``.

Quadrature runs on [0, 1], the radius of a unit ball, so the slice/fiber
identity's sides are radial integrals (``bounds.fubini_sides``); its Monte
Carlo evidence, ``fubini_mc_oracle``, is here.  The Gauss–Jacobi rules take
their nodes from numpy's dense symmetric eigensolver (N <= 256), whose bits
do not depend on the BLAS thread count.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DegenerateDomainError
from .geometry import Ball, HartogsLift
from .weights import RadialProfile, RadialWeight

__all__ = [
    "QuadratureResult",
    "sigma_mu",
    "rng_stream",
    "mc_integrate",
    "volume",
    "adaptive_gauss",
    "radial_integrate",
    "fubini_mc_oracle",
]

_SHARD_SIZE = 1_000_000
_BLOCK = 16_384  # draws per block: 512 KB of uniforms on C^4
_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate with an error bound, its sample or node count, the
    rule that made it and diagnostics."""

    value: float
    error_estimate: float
    samples_or_nodes: int
    method: str
    converged: bool = True
    rejected_infinite: int = 0
    note: str = ""


def rng_stream(seed: int, shard: int = 0) -> np.random.Generator:
    """SFC64 generator seeded by (seed mod 2^64, shard).

    Identical keys reproduce identical sample sequences across platforms, so
    sharded estimates reduced in fixed shard order are bit-stable.
    """
    key = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, shard])
    return np.random.Generator(np.random.SFC64(key))


def _box_volume(radii):
    """Volume of the box |Re z_i|, |Im z_i| < radii_i in R^(2m)."""
    return float(np.prod((2.0 * radii) ** 2))


def _disc_radii(balls):
    """The radius of each coordinate of a product of balls given as (k, r) pairs."""
    return np.repeat([float(r) for _, r in balls], [k for k, _ in balls])


def _ball_volume(balls):
    """Volume prod pi^k r^(2k) / k! of a product of balls given as (k, r) pairs."""
    return float(np.prod([math.pi**k * (r * r) ** k / math.factorial(k) for k, r in balls]))


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


def _shard_blocks(dims, scales, seed: int, shard: int, size: int):
    """Yield (level, t) for the ``size`` draws of one shard.

    ``dims`` splits the m coordinates into consecutive groups, one per ball
    of the proposal, and ``scales`` holds one row of per-ball scales c_j per
    level.  The draws come from rng_stream(seed, shard) in consecutive
    blocks of at most ``_BLOCK`` draws, each block an (m, b) array of
    uniforms u, coordinate by coordinate, as rng.random((m, b)) makes it.
    Row j of the block then becomes, in place, the maximum of ball j's
    uniforms, by k_j - 1 ``np.maximum`` calls on contiguous rows (the rows
    before ball j's first are spent by then); a disc's row is its uniform.
    Each level writes that maximum times c_j, one contiguous product per
    ball, so each level sees exactly the values a draw for it alone would
    make, and ``t`` is that (balls, b) array seen as (b, balls), its columns
    contiguous.  The buffers are reused for the whole shard; a single level
    is written over its uniforms, and not multiplied where every scale is 1.
    ``t`` is valid only until the next yield, and the caller may overwrite
    it.
    """
    m, nb = sum(dims), len(dims)
    rows = min(_BLOCK, size)
    unit = np.empty(m * rows)
    out = unit if len(scales) == 1 else np.empty(nb * rows)
    starts = np.cumsum((0, *dims))
    spans = list(zip(starts[:-1], starts[1:]))
    columns = [np.asarray(c, dtype=float).reshape(nb, 1) for c in scales]
    unscaled = len(columns) == 1 and np.all(columns[0] == 1.0)  # one level, every scale 1
    rng = rng_stream(seed, shard)
    for lo in range(0, size, _BLOCK):
        b = min(_BLOCK, size - lo)
        ub, tb = unit[: m * b].reshape(m, b), out[: nb * b].reshape(nb, b)
        rng.random(out=ub)
        for j, (first, end) in enumerate(spans):
            if end - first > 1:
                np.maximum(ub[first], ub[first + 1], out=ub[j])
                for i in range(first + 2, end):
                    np.maximum(ub[j], ub[i], out=ub[j])
            elif first != j:
                ub[j] = ub[first]
        for level, column in enumerate(columns):
            if not unscaled:
                np.multiply(ub[:nb], column, out=tb)
            yield level, tb.T


def _shard_moments(levels, integrand, seed: int, shard: int, size: int):
    """Per level, [sum, sum of squares, inside count, non-finite count] over one shard.

    The squared radii of a level with balls (k, r) are drawn at the scales r^2.
    Each block adds the sum of its inside values, then the sum of their
    squares; values outside the level's set are zero and add nothing.  An
    ``integrand`` of None is the constant 1: a block adds its inside count to
    both sums, which is what summing that many ones gives, bit for bit.
    """
    balls, tests = zip(*levels)
    dims = [k for k, _ in balls[0]]
    scales = [[r * r for _, r in b] for b in balls]
    parts = [[0.0, 0.0, 0, 0] for _ in levels]
    for level, x in _shard_blocks(dims, scales, seed, shard, size):
        mask = tests[level](x)
        hits = int(np.count_nonzero(mask))
        part = parts[level]
        if hits and integrand is None:
            part[0] += float(hits)
            part[1] += float(hits)
        elif hits:
            # the inside rows, copied column by column so that their columns
            # stay contiguous; a block that hits everywhere, as a ball's own
            # proposal does, goes uncopied.  The values are copied, so that
            # squaring in place leaves the integrand's array alone
            inside = x if hits == len(x) else np.compress(mask, x.T, axis=1).T
            vals = np.array(integrand(inside), dtype=float)
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
    """Moments of the masked integrand over the proposal draws of each level.

    ``levels`` is a list of (balls, inside) pairs that share the draws:
    ``balls`` is the level's proposal, a product of balls given as (k, r)
    pairs with the same dimensions k at every level; ``inside`` maps a block
    of squared radii drawn in it, one column per ball, to its membership
    mask, and ``integrand`` maps the inside rows to real values, or is None
    to count them.  The
    shards run and are reduced as the module docstring describes; each
    worker runs under a copy of the caller's context, so ``np.errstate``
    carries over.  Returns, per level, the sample mean, its standard error,
    the inside count and the non-finite count, with the bits of a call for
    that level alone.
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

    The draws are uniform in the product of the domain's bounding balls,
    and the estimator is that product's volume prod pi^k r^(2k) / k! times
    the mean of chi_domain * integrand over them; ``integrand`` maps an
    (N, balls) array of the squared radii |z|^2 of those balls, one column
    per ball, to N values.  An integrand of the moduli of single coordinates
    needs a domain whose proposal is a product of discs.  The
    error_estimate is a 99% confidence half-width; it is 0 for the volume of
    a set that equals its proposal, such as a ball.  An ``integrand`` of
    None is the constant 1 (the domain's volume), counted without evaluating
    anything and with the bits of an integrand of ones.  Raises
    DegenerateDomainError when fewer than 0.1% of the samples land inside.
    """
    balls = domain.bounding_balls()
    [(mean, stderr, n_inside, n_bad)] = _box_moments(
        [(balls, domain.contains_batch)], integrand, samples, seed
    )
    if n_inside < 0.001 * samples:
        raise DegenerateDomainError(
            f"only {n_inside} of {samples} samples hit the domain; "
            "the product of its bounding balls does not resolve it"
        )
    vol = _ball_volume(balls)
    return QuadratureResult(
        value=vol * mean,
        error_estimate=_Z99 * vol * stderr,
        samples_or_nodes=samples,
        method="monte-carlo",
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
_LADDER = (16, 32, 64, 128, 256)  # node counts of the rules adaptive_gauss doubles through


def _gl15(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GL_NODES
    fx = np.asarray(f(x), dtype=float)
    bad = ~np.isfinite(fx)
    if bad.any():
        fx = np.where(bad, 0.0, fx)
    return half * float(np.dot(_GL_WEIGHTS, fx))


def adaptive_gauss(f, node_cap=10**6, rules=None):
    """Adaptive Gauss quadrature on [0, 1]: a composite 15-node Gauss rule
    refined by bisection or, given ``rules``, one weighted rule refined by
    doubling its nodes.

    Bisection subdivides until the local refinement residual fits a
    length-proportional share of the relative tolerance ``_RTOL``, down to a
    width floor of 1e-14.  Nodes never land on interval endpoints and
    non-finite node values contribute zero, so integrable endpoint
    singularities are handled; their unresolved leftovers show up in the
    returned residual.

    ``rules(N)`` returns the nodes in (0, 1) and the weights of an N-node rule
    for integral_0^1 f(x) omega(x) dx, for a weight omega that the rules carry,
    or None if there is none.  N then doubles through ``_LADDER``, and the
    result is the first value Q_2N within ``_RTOL`` relative of the previous
    Q_N, with the residual |Q_2N - Q_N|.

    Returns (value, residual, nodes, converged), nodes counting every
    evaluation.  converged is False when bisection reached the node cap or its
    accumulated residual stayed above 100x the relative target, or when the
    ladder ended, met a missing rule or a non-finite value first.
    """
    if rules is not None:
        return _doubling(f, rules)
    whole = _gl15(f, 0.0, 1.0)
    nodes = 15
    scale = max(abs(whole), 1e-300)
    stack = [(0.0, 1.0, whole)]
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
        budget = _RTOL * scale * (hi - lo)
        if err <= budget or (hi - lo) <= 1e-14:
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


def _doubling(f, rules):
    """``adaptive_gauss`` on the rules ``rules(N)``, N doubling through ``_LADDER``."""
    value, resid, spent = math.nan, math.inf, 0
    for nodes in _LADDER:
        rule = rules(nodes)
        if rule is None:
            break
        x, w = rule
        q = float(np.dot(np.asarray(f(x), dtype=float), w))
        spent += nodes
        if not math.isfinite(q):
            break
        if nodes > _LADDER[0]:
            resid = abs(q - value)
            if resid <= _RTOL * abs(q):
                return q, resid, spent, True
        value = q
    return value, resid, spent, False


# ---------------------------------------------------------------------------
# Radial integrals: Gauss–Jacobi rules, bisection as the fallback
# ---------------------------------------------------------------------------

_MIN_POWER = 1e-3  # below it, rounding r = y^power costs 1 - r more than about 1e-13


@lru_cache(maxsize=128)
def _radial_rule(nodes: int, k: int, edge: float, power: float):
    """Nodes r in (0, 1) and weights W with sum_i W_i g(r_i) approximating
    mu_k * integral_0^1 g(r) r^(2k-1) dr, exact in the limit for
    g(r) = (1 - r)^edge h(r^(1/power)) with h smooth on [0, 1].

    r = y^power turns the integral into
    mu_k power integral_0^1 g(y^power) y^(2k power - 1) dy, and the
    ``nodes``-point Gauss rule for the weight (1 - y)^edge y^(2k power - 1)
    carries both endpoint factors, so W_i = mu_k power w_i / (1 - y_i)^edge.
    As in Golub and Welsch (1969), the nodes are the eigenvalues x of the
    Jacobi matrix of (1 - x)^edge (1 + x)^beta on [-1, 1], mapped by
    y = (1 + x)/2.  ``np.linalg.eigvalsh`` on the dense matrix (N <= 256)
    gives them, with the same bits on one BLAS thread or two.  Each w_i is
    the weight's mass B(edge + 1, beta + 1) over sum_j p_j(x_i)^2, the
    orthonormal polynomials p_0 .. p_(N-1) of the matrix: the squared first
    component of x_i's unit eigenvector, but to full relative precision where
    it is tiny.  The arrays are shared and read-only.

    None when the weight is not integrable in floating point, the weights are
    not finite, or the power is below ``_MIN_POWER``: near r = 1 the rounded
    r = y^power keeps about a fraction power of the digits of 1 - y, so the
    integrand is evaluated about 1e-16 / power off its node (at a = 1e-10, the
    scaled profile's lift came out 8e-8 low, consistently on every rung).
    """
    a, b = float(edge), 2.0 * k * power - 1.0
    if not (a > -1.0 and b > -1.0 and power >= _MIN_POWER):
        return None
    j = np.arange(1.0, nodes)
    s = 2.0 * j + a + b
    diag = np.empty(nodes)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    off2 = 4.0 * j * (j + a) * (j + b) * (j + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    # the first entry with j + a + b cancelled, which also holds at a + b = -1
    off2[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    off = np.sqrt(off2)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # sum_j p_j(x)^2 by the recurrence off_j p_j = (x - diag_(j-1)) p_(j-1) - off_(j-1) p_(j-2)
    p_prev, p, total = np.zeros(nodes), np.ones(nodes), np.ones(nodes)
    for i in range(1, nodes):
        back = off[i - 2] * p_prev if i > 1 else 0.0
        p_prev, p = p, ((x - diag[i - 1]) * p - back) / off[i - 1]
        total += p * p
    if a + b + 2.0 < 171.0:  # every gamma value below is finite
        mass = math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    else:
        mass = math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    y = 0.5 * (1.0 + x)
    r = y**power
    weights = sigma_mu(k)[1] * power * mass / total * (1.0 - y) ** -a
    if not np.all(np.isfinite(weights)):
        return None
    r.flags.writeable = weights.flags.writeable = False
    return r, weights


def _non_integrable(edge: float) -> QuadratureResult:
    """The result of an integrand that blows up like (1 - r)^edge, edge <= -1, at r = 1."""
    return QuadratureResult(
        value=math.inf,
        error_estimate=math.inf,
        samples_or_nodes=0,
        converged=False,
        note=f"non-integrable, endpoint exponent {edge:g} <= -1",
        method="endpoint-exponent",
    )


def radial_integrate(g, k: int, node_cap=10**6, exponents=None, vanishing=0):
    """mu_k * integral_0^1 g(r) r^(2k-1) dr for a radial integrand on the unit ball of C^k.

    ``exponents`` = (edge, power) declares
    g(r) = (1 - r)^(edge + vanishing) h(r^(1/power)) with h smooth on [0, 1]
    and ``vanishing`` a non-negative integer.  A total edge + vanishing <= -1
    is non-integrable and returns an infinite, non-converged result without
    evaluating g.  Otherwise ``adaptive_gauss`` doubles the Gauss–Jacobi rules
    of ``_radial_rule``, whose weight carries (1 - r)^edge alone, so
    integrands that differ only in ``vanishing`` meet the same nodes.  If they
    do not converge, or with no exponents, ``adaptive_gauss`` bisects.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if exponents is not None:
        edge, power = exponents
        if edge + vanishing <= -1.0:
            return _non_integrable(edge + vanishing)
        value, resid, nodes, converged = adaptive_gauss(
            g, rules=lambda n: _radial_rule(n, k, edge, power)
        )
        if converged:
            return QuadratureResult(value, resid, nodes, method="gauss-jacobi")
    _, mu_k = sigma_mu(k)
    value, resid, nodes, converged = adaptive_gauss(
        lambda r: g(r) * r ** (2 * k - 1), node_cap=node_cap
    )
    return QuadratureResult(
        value=mu_k * value,
        error_estimate=mu_k * resid,
        samples_or_nodes=nodes,
        method="adaptive-quadrature",
        converged=converged,
        note="" if converged else "residual target not reached within the node cap",
    )


# ---------------------------------------------------------------------------
# Monte Carlo evidence for the slice/fiber integral identity
# ---------------------------------------------------------------------------


def fubini_mc_oracle(
    profile: RadialProfile, k: int, z2_norm: float, samples: int, seed: int
) -> QuadratureResult:
    """Monte Carlo cross-check of the slice integral via a lifted volume.

    The slice at |z''| = z2_norm is the ball of radius rho = sqrt(1 - z2_norm^2),
    and z' -> rho z' maps the centred lift onto the slice's with Jacobian
    rho^(2k).  So the sampled centred volume times rho^(2k) / sigma_k must
    reproduce both quadrature sides.
    """
    if not 0.0 <= z2_norm < 1.0:
        raise ValueError("z2_norm must lie in [0, 1)")
    lift = HartogsLift(base=Ball(radius=1.0, dim=k), weight=RadialWeight(profile, k), fiber_dim=k)
    res = volume(lift, samples, seed)
    s = (1.0 - z2_norm**2) ** k
    sigma_k, _ = sigma_mu(k)
    return replace(
        res, value=s * res.value / sigma_k, error_estimate=s * res.error_estimate / sigma_k
    )
