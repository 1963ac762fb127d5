"""Closed-form pluricomplex Green function models for catalog pairs.

A model pairs a domain with the linear subvariety V = {z' = 0} and writes
two batch formulas, ``green_batch`` for the Green function G with
logarithmic poles along V and ``gap_batch`` for the gap function B, defined
by the exact rearrangement B(p) = log |psi(p)| - G(p) with psi the
generator tuple (so the defining inequality log |psi| - B <= G holds with
equality).  Both take an (N, ambient_dim) array of squared moduli
x_i = |z_i|^2: every model is Reinhardt.  Everything else is derived from
these once, in ``_GreenModel``:

  * the scalar ``green`` and ``gap``, which check the domain and run the
    batch formula on the squared moduli of one complex point,
  * the Azukawa directional form A(X) = lim_(a -> 0) G(aX, v) - log |a| at a
    point v of V, which is log |X| - B(0, v); its sublevel set {A < 0}, the
    indicatrix I_v, is the ball of radius e^(B(0, v)) in C^k, so
    vol(I_v) = sigma_k e^(2k B(0, v)).

Each model also integrates that quantity over V: ``indicatrix_integral(f)``
is integral_V |f|^2 e^(2k B) for polynomial data f on V (None is f = 1), so
sigma_k times it is the paper's integral_V vol(I_v) |f|^2.  The bounds and
the sublevel scaling limit are this one integral for different models and
data.

Every model has G = log |z'| - B with B free of z', so for a level t < 0 the
sublevel set {G < t/2} of the domain is the domain's part of
{|z'|^2 < e^t e^(2B)}, the e^(t/2)-dilate of the indicatrix bundle
{(X, v) : X in I_v} along the pole block.  Each model writes its mask on
squared moduli once, as ``sublevel_batch(x, t)``; none evaluates G, and none
an inverse profile.  The ball models add the moduli of each block by
``geometry.ball_sums``, column by column:

  * ball point (B = 0): sum x_i < e^t, inside the ball because e^t < 1;
  * ball pair (e^(2B) = 1 - |z''|^2): |z'|^2 < e^t (1 - |z''|^2), which
    gives |z|^2 < 1, so no domain test is needed;
  * radial lift (e^(2B) = e^(u^(-1)(-log |w|^2))): u is increasing, so
    G < t/2 holds exactly when |z'|^2 < e^t and |w|^2 < e^(-u(log |z'|^2 - t)).
    Since t < 0 that fiber bound lies below the lift's e^(-u(log |z'|^2)),
    but z'' is free when k < n, so the base ball test stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateDomainError, DomainError
from .geometry import Ball, HartogsLift, as_point, ball_sums, sq_moduli
from .integrate import (
    QuadratureResult,
    _ball_volume,
    _box_moments,
    _data_moment,
    _disc_radii,
    _Z99,
    radial_integrate,
)
from .weights import RadialProfile, RadialWeight, _psi_batch

__all__ = [
    "BallPointModel",
    "BallPairModel",
    "RadialLiftModel",
    "AzukawaForm",
    "sublevel_scaling",
]


@dataclass(frozen=True)
class AzukawaForm:
    """Directional form A(X) = log |X| + log_shift for X in C^pole_dim."""

    pole_dim: int
    log_shift: float

    def __post_init__(self):
        if not math.isfinite(self.log_shift):
            raise ValueError(f"log_shift must be finite, got {self.log_shift!r}")

    def evaluate(self, direction):
        norm = float(np.linalg.norm(as_point(direction, self.pole_dim)))
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        return math.log(norm) + self.log_shift


def _dilation(t):
    """e^t, the squared dilation of the sublevel set {G < t/2}, for a finite
    level t < 0; every closed form relies on e^t < 1."""
    if not (math.isfinite(t) and t < 0.0):
        raise ValueError(f"the level t must be finite and negative, got t = {t!r}")
    return math.exp(t)


class _GreenModel:
    """Scalar Green and gap functions and the Azukawa form, from the batch formulas."""

    def _row(self, p):
        """The squared moduli of one point of the domain as a (1, ambient_dim)
        array; DomainError if the point lies outside."""
        x = sq_moduli(as_point(p, self.ambient_dim))[None, :]
        if not self.domain().contains_moduli(x)[0]:
            raise DomainError("point lies outside the model domain")
        return x

    def green(self, p):
        """G at one point of the domain; -inf on the pole set."""
        return float(self.green_batch(self._row(p))[0])

    def gap(self, p):
        """B(p) = log |psi(p)| - G(p) at one point of the domain."""
        return float(self.gap_batch(self._row(p))[0])

    def azukawa_form(self, base_point=()):
        """A(X) = log |X| - B at the point (0, base_point) of V."""
        origin = self.embed(np.zeros(self.pole_dim), base_point)
        return AzukawaForm(self.pole_dim, -self.gap(origin))

    def embed(self, pole_part, base_point=()):
        """The point (pole_part, base_point) of the ambient space."""
        return np.concatenate(
            [
                np.asarray(pole_part, dtype=complex).ravel(),
                np.asarray(base_point, dtype=complex).ravel(),
            ]
        )


@dataclass(frozen=True)
class BallPointModel(_GreenModel):
    """Unit ball of C^n with V = {0}: G(z) = log |z| and B = 0."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @property
    def pole_dim(self):
        return self.n

    @property
    def ambient_dim(self):
        return self.n

    def domain(self):
        return Ball(radius=1.0, dim=self.n)

    def green_batch(self, x):
        with np.errstate(divide="ignore"):
            return 0.5 * np.log(x.sum(axis=1))

    def gap_batch(self, x):
        return np.zeros(len(x))

    def sublevel_batch(self, x, t):
        """The mask of {G < t/2} = {|z|^2 < e^t}."""
        return ball_sums(x, (self.n,))[:, 0] < _dilation(t)

    def indicatrix_integral(self, f_coeffs=None):
        """|f(0)|^2: V is the origin, where B = 0."""
        return _data_moment(0, f_coeffs, 0)


@dataclass(frozen=True)
class BallPairModel(_GreenModel):
    """Unit ball of C^(k+n) with V = {z' = 0}.

    G(z', z'') = log(|z'| / sqrt(1 - |z''|^2)), so the gap function is
    B = log(sqrt(1 - |z''|^2)) <= 0 and the indicatrix at z'' is the ball of
    radius sqrt(1 - |z''|^2) in C^k.
    """

    pole_dim: int
    base_dim: int

    def __post_init__(self):
        if self.pole_dim < 1 or self.base_dim < 1:
            raise ValueError("pole_dim and base_dim must be positive integers")

    @property
    def ambient_dim(self):
        return self.pole_dim + self.base_dim

    def domain(self):
        return Ball(radius=1.0, dim=self.ambient_dim)

    def green_batch(self, x):
        r2 = x[:, : self.pole_dim].sum(axis=1)
        w2 = x[:, self.pole_dim :].sum(axis=1)
        with np.errstate(divide="ignore"):
            return 0.5 * (np.log(r2) - np.log1p(-w2))

    def gap_batch(self, x):
        return 0.5 * np.log1p(-x[:, self.pole_dim :].sum(axis=1))

    def sublevel_batch(self, x, t):
        """The mask of {G < t/2} = {|z'|^2 < e^t (1 - |z''|^2)}."""
        e_t = _dilation(t)
        r2, bound = ball_sums(x, (self.pole_dim, self.base_dim)).T
        # in place: a new block-long array costs more than the arithmetic on it
        np.subtract(1.0, bound, out=bound)
        bound *= e_t
        return r2 < bound

    def indicatrix_integral(self, f_coeffs=None):
        """sum_beta |f_beta|^2 integral_(B^n) |z''^beta|^2 (1 - |z''|^2)^k, in closed form."""
        return _data_moment(self.base_dim, f_coeffs, self.pole_dim)


@dataclass(frozen=True)
class RadialLiftModel(_GreenModel):
    """Hartogs lift of the unit ball of C^n under phi = k u(log |z'|^2).

    Points are laid out as (z', z'', w) with the fiber w in C^k last.  The
    Green function is G(z, w) = log |z'| + psi(w) with
    psi(w) = -u^(-1)(-log |w|^2)/2, and the gap function is B = -psi(w).
    For the log-singular profile this model coincides with the ball pair.
    """

    profile: RadialProfile
    pole_dim: int
    base_dim: int

    def __post_init__(self):
        if self.pole_dim < 1 or self.base_dim < self.pole_dim:
            raise ValueError("need 1 <= pole_dim <= base_dim")

    @property
    def ambient_dim(self):
        return self.base_dim + self.pole_dim

    def weight(self):
        return RadialWeight(self.profile, self.pole_dim)

    def domain(self):
        return HartogsLift(
            base=Ball(radius=1.0, dim=self.base_dim),
            weight=self.weight(),
            fiber_dim=self.pole_dim,
        )

    def green_batch(self, x):
        r2 = x[:, : self.pole_dim].sum(axis=1)
        w2 = x[:, self.base_dim :].sum(axis=1)
        with np.errstate(divide="ignore"):
            return 0.5 * np.log(r2) + _psi_batch(self.profile, w2)

    def _fiber_gap(self, w2):
        """B = -psi(w) as a function of |w|^2."""
        return -_psi_batch(self.profile, w2)

    def gap_batch(self, x):
        return self._fiber_gap(x[:, self.base_dim :].sum(axis=1))

    def sublevel_batch(self, x, t):
        """The mask of {G < t/2}: the base ball, |z'|^2 < e^t and
        |w|^2 < e^(-u(log |z'|^2 - t)), from u alone (u(-inf) = 0 at z' = 0)."""
        e_t, n = _dilation(t), self.base_dim
        r2 = x[:, : self.pole_dim].sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0; NaN where r2 >= e^t
            fiber = np.exp(-self.profile.value(np.log(r2) - t))
        mask = Ball(radius=1.0, dim=n).contains_batch(ball_sums(x, (n,)))
        mask &= r2 < e_t
        mask &= x[:, n:].sum(axis=1) < fiber
        return mask

    def fiber_integral(self) -> QuadratureResult:
        """integral_(B^k) e^(2k B(w)) dV(w) by one radial quadrature.

        e^(2k B) = e^(k u^(-1)(-log |w|^2)) vanishes like (1 - |w|)^(k gamma)
        at |w| = 1 and is 1 minus a multiple of |w|^(2/c) near 0, for the
        profile's exponents (c, gamma), so its radial quadrature runs with the
        exponents (k gamma, c); a profile without exponents runs the adaptive
        rule.
        """
        k = self.pole_dim
        exps = self.profile.exponents
        return radial_integrate(
            lambda r: np.exp(2.0 * k * self._fiber_gap(r * r)),
            k,
            exponents=None if exps is None else (k * exps[1], exps[0]),
        )

    def indicatrix_integral(self, f_coeffs=None):
        """The data moment over B^(n-k) times ``fiber_integral``: B depends on
        w alone, so the integral over V = {(z'', w)} splits."""
        moment = _data_moment(self.base_dim - self.pole_dim, f_coeffs, 0)
        return moment * self.fiber_integral().value


def _sublevel_radii(model, t):
    """Radii of a polydisc that holds {G < t/2}: the domain's bounding balls
    split into discs, the pole block shrunk to e^(t/2)."""
    radii = _disc_radii(model.domain().bounding_balls())
    cap = math.exp(0.5 * t)
    radii[: model.pole_dim] = np.minimum(radii[: model.pole_dim], cap)
    return radii


def sublevel_scaling(model, chi, t, samples: int, seed: int):
    """Rescaled sublevel integral e^(-k t) * integral_{G < t/2} chi.

    Samples the moduli of the sublevel set's own bounding polydisc (the
    domain's would almost never hit {G < t/2} for very negative t).  The
    proposal stays a product of discs even where the domain's is a ball: at
    the ball point the set is a ball, and its own proposal would give every
    level a half-width of 0.  ``chi``
    is a vectorized nonnegative integrand of the (N, ambient_dim) squared
    moduli; a non-finite value of it counts as zero and is
    reported in ``rejected_infinite``.  A ``chi`` of None is the constant 1,
    so the result is e^(-k t) vol{G < t/2}; the hits are counted without
    evaluating anything, with the bits of a ``chi`` of ones.  A level whose
    polydisc draws no hit at all raises DegenerateDomainError naming it; there is
    no hit-rate floor beyond that.

    ``t`` is one level, which returns one QuadratureResult, or a sequence of
    levels, which returns one result per level.  Every level must be finite
    and negative, and e^(-k t) must not overflow; a ValueError names the
    first level that fails.  The levels of a sequence share one pass of
    draws: each block is drawn once and scaled to each level's polydisc in turn,
    so every result has the bits of a call at its level alone, for the draws
    of one call.
    """
    single = np.ndim(t) == 0
    ladder = [t] if single else list(t)
    if not ladder:
        raise ValueError("t must hold at least one level")
    k = model.pole_dim
    growth = []
    for level in ladder:
        if not (math.isfinite(level) and level < 0.0):
            raise ValueError(f"every level t must be finite and negative, got t = {level!r}")
        try:
            growth.append(math.exp(-k * level))
        except OverflowError:
            raise ValueError(f"e^(-k t) overflows at t = {level!r} (k = {k})") from None
    discs = [[(1, r) for r in _sublevel_radii(model, level)] for level in ladder]
    levels = [(d, partial(model.sublevel_batch, t=level)) for d, level in zip(discs, ladder)]
    moments = _box_moments(levels, chi, samples, seed)
    results = []
    for level, grow, d, (mean, stderr, n_hit, n_bad) in zip(ladder, growth, discs, moments):
        if n_hit == 0:
            raise DegenerateDomainError(
                f"0 of {samples} samples hit the sublevel set at t = {level!r}; "
                "its bounding polydisc does not resolve it"
            )
        scale = grow * _ball_volume(d)
        results.append(
            QuadratureResult(
                value=scale * mean,
                error_estimate=_Z99 * scale * stderr,
                samples_or_nodes=samples,
                method="monte-carlo",
                rejected_infinite=n_bad,
            )
        )
    return results[0] if single else results
