"""Closed-form pluricomplex Green function models for catalog pairs.

A model pairs a domain with the linear subvariety V = {z' = 0} and writes
two batch formulas, ``green_batch`` for the Green function G with
logarithmic poles along V and ``gap_batch`` for the gap function B, defined
by the exact rearrangement B(p) = log |psi(p)| - G(p) with psi the
generator tuple (so the defining inequality log |psi| - B <= G holds with
equality).  Everything else is derived from these once, in ``_GreenModel``:

  * the scalar ``green`` and ``gap``, which check the domain and run the
    batch formula on one row,
  * the Azukawa directional form A(X) = lim_(a -> 0) G(aX, v) - log |a| at a
    point v of V, which is log |X| - B(0, v); its sublevel set {A < 0}, the
    indicatrix I_v, is the ball of radius e^(B(0, v)) in C^k, so
    vol(I_v) = sigma_k e^(2k B(0, v)).

Each model also integrates that quantity over V: ``indicatrix_integral(f)``
is integral_V |f|^2 e^(2k B) for polynomial data f on V (None is f = 1), so
sigma_k times it is the paper's integral_V vol(I_v) |f|^2.  The bounds and
the sublevel scaling limit are this one integral for different models and
data.

Only models with elementary closed forms are shipped; pairs without one raise
UnsupportedModelError upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Ball, HartogsLift, as_point, sq_norm
from .integrate import (
    QuadratureResult,
    _box_moments,
    _box_volume,
    _data_moment,
    _Z99,
    radial_integrate,
    sigma_mu,
)
from .weights import RadialProfile, RadialWeight, _psi_batch

__all__ = [
    "BallPointModel",
    "BallPairModel",
    "RadialLiftModel",
    "AzukawaForm",
    "azukawa",
    "indicatrix_volume",
    "sublevel_scaling",
]

_LIMIT_LADDER = (1e-2, 1e-3, 1e-4)
_LIMIT_TOL = 1e-6  # largest drift from the form that azukawa(verify=True) accepts


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


class _GreenModel:
    """Scalar Green and gap functions and the Azukawa form, from the batch formulas."""

    def _row(self, p):
        """One point of the domain as a (1, ambient_dim) array; DomainError if outside."""
        p = as_point(p, self.ambient_dim)
        if not self.domain().contains(p):
            raise DomainError("point lies outside the model domain")
        return p[None, :]

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

    def green_batch(self, pts):
        with np.errstate(divide="ignore"):
            return 0.5 * np.log(sq_norm(pts))

    def gap_batch(self, pts):
        return np.zeros(len(pts))

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

    def green_batch(self, pts):
        r2 = sq_norm(pts[:, : self.pole_dim])
        w2 = sq_norm(pts[:, self.pole_dim :])
        with np.errstate(divide="ignore"):
            return 0.5 * (np.log(r2) - np.log1p(-w2))

    def gap_batch(self, pts):
        return 0.5 * np.log1p(-sq_norm(pts[:, self.pole_dim :]))

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

    def green_batch(self, pts):
        r2 = sq_norm(pts[:, : self.pole_dim])
        w2 = sq_norm(pts[:, self.base_dim :])
        with np.errstate(divide="ignore"):
            return 0.5 * np.log(r2) + _psi_batch(self.profile, w2)

    def _fiber_gap(self, w2):
        """B = -psi(w) as a function of |w|^2."""
        return -_psi_batch(self.profile, w2)

    def gap_batch(self, pts):
        return self._fiber_gap(sq_norm(pts[:, self.base_dim :]))

    def indicatrix_integral(self, f_coeffs=None):
        """The data moment over B^(n-k) times integral_(B^k) e^(2k B(w)) dV(w).

        B depends on w alone, so the integral over V = {(z'', w)} splits; the
        fiber factor is one radial quadrature.
        """
        k = self.pole_dim
        fiber = radial_integrate(lambda r: np.exp(2.0 * k * self._fiber_gap(r * r)), k)
        return _data_moment(self.base_dim - k, f_coeffs, 0) * fiber.value


def azukawa(model, base_point, direction, verify=False) -> float:
    """Directional limit A(X) of G along the pole block at a point of V.

    With ``verify=True`` the closed form is checked against the finite-scale
    quotient G(a X, w) - log a on a fixed ladder a in {1e-2, 1e-3, 1e-4}; a
    mismatch beyond ``_LIMIT_TOL`` signals model drift and raises.
    """
    form = model.azukawa_form(base_point)
    value = form.evaluate(direction)
    if verify:
        x = np.asarray(direction, dtype=complex).ravel()
        unit = x / float(np.linalg.norm(x))
        target = value - math.log(float(np.linalg.norm(x)))  # A at the unit direction
        for lam in _LIMIT_LADDER:
            probe = model.green(model.embed(lam * unit, base_point)) - math.log(lam)
            if abs(probe - target) > _LIMIT_TOL:
                raise RuntimeError(
                    f"directional limit at scale {lam} drifted from the closed "
                    f"form by {abs(probe - target):.3e}"
                )
    return value


def indicatrix_volume(form: AzukawaForm) -> QuadratureResult:
    """Euclidean volume sigma_k e^(-2k log_shift) of the indicatrix {X : A(X) < 0}."""
    if form.log_shift + math.log(1e3) < 0.0:
        raise ValueError("indicatrix is unbounded: A < 0 at |X| = 1e3")
    k = form.pole_dim
    exact = sigma_mu(k)[0] * math.exp(-2.0 * k * form.log_shift)
    return QuadratureResult(value=exact, error_estimate=0.0, samples_or_nodes=0)


def _sublevel_radii(model, t):
    """Bounding radii of {G < t/2}: the pole block shrinks to e^(t/2)."""
    radii = model.domain().bounding_radii().copy()
    cap = math.exp(0.5 * t)
    radii[: model.pole_dim] = np.minimum(radii[: model.pole_dim], cap)
    return radii


def _sublevel_test(model, t):
    """Membership mask of {G < t/2} inside the model domain."""
    domain = model.domain()

    def inside(pts):
        mask = domain.contains_batch(pts)
        if mask.all():  # every point is inside: test the block itself, no copy
            return model.green_batch(pts) < 0.5 * t
        if mask.any():
            mask[mask] = model.green_batch(np.compress(mask, pts, axis=0)) < 0.5 * t
        return mask

    return inside


def sublevel_scaling(model, chi, t, samples: int, seed: int):
    """Rescaled sublevel integral e^(-k t) * integral_{G < t/2} chi.

    Samples the sublevel set's own bounding box (the domain box would almost
    never hit {G < t/2} for very negative t).  ``chi`` is a vectorized
    nonnegative integrand; a non-finite value of it counts as zero and is
    reported in ``rejected_infinite``.  A ``chi`` of None is the constant 1,
    so the result is e^(-k t) vol{G < t/2}; the hits are counted without
    evaluating anything, with the bits of a ``chi`` of ones.  An empty
    sublevel set at the given resolution yields a zero-valued result with a
    warning note rather than an error.

    ``t`` is one level, which returns one QuadratureResult, or a sequence of
    levels, which returns one result per level.  Every level must be finite
    and negative, and e^(-k t) must not overflow; a ValueError names the
    first level that fails.  The levels of a sequence share one pass of
    draws: each block is drawn once and scaled to each level's box in turn,
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
    radii = [_sublevel_radii(model, level) for level in ladder]
    levels = [(r, _sublevel_test(model, level)) for r, level in zip(radii, ladder)]
    moments = _box_moments(levels, chi, samples, seed)
    results = []
    for grow, r, (mean, stderr, n_hit, n_bad) in zip(growth, radii, moments):
        if n_hit == 0:
            results.append(
                QuadratureResult(
                    value=0.0,
                    error_estimate=0.0,
                    samples_or_nodes=samples,
                    seed=seed,
                    converged=False,
                    note="sublevel set not resolved at this sample count",
                )
            )
        else:
            scale = grow * _box_volume(r)
            results.append(
                QuadratureResult(
                    value=scale * mean,
                    error_estimate=_Z99 * scale * stderr,
                    samples_or_nodes=samples,
                    seed=seed,
                    rejected_infinite=n_bad,
                )
            )
    return results[0] if single else results
