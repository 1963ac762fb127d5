"""Closed-form pluricomplex Green function models for catalog pairs.

A model pairs a domain with the linear subvariety V = {z' = 0} and exposes

  * the Green function G with logarithmic poles along V,
  * the gap function B, defined by the exact rearrangement
    B(p) = log |psi(p)| - G(p) with psi the generator tuple (so the defining
    inequality log |psi| - B <= G holds with equality),
  * the Azukawa directional form A(X) = lim_(a -> 0) G(aX, w) - log |a|,
    whose sublevel set {A < 0} is the indicatrix.

Only models with elementary closed forms are shipped; pairs without one raise
UnsupportedModelError upstream.  Every catalog form has the shape
A(X) = log |X| + c with c >= 0 depending on the base point, so indicatrices
are balls of radius e^(-c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Ball, HartogsLift, as_point, sq_norm
from .integrate import QuadratureResult, _box_moments, _box_volume, _Z99, sigma_mu, volume
from .weights import RadialProfile, RadialWeight, _fiber_psi_batch, fiber_psi

__all__ = [
    "BallPointModel",
    "BallPairModel",
    "RadialLiftModel",
    "AzukawaForm",
    "eval_green",
    "gap_B",
    "azukawa",
    "indicatrix_volume",
    "sublevel_scaling",
]

_LIMIT_LADDER = (1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class AzukawaForm:
    """Directional form A(X) = log |X| + log_shift for X in C^pole_dim."""

    pole_dim: int
    log_shift: float

    def evaluate(self, direction):
        x = np.asarray(direction, dtype=complex).ravel()
        if x.size != self.pole_dim:
            raise ValueError(f"direction must have {self.pole_dim} coordinates")
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        return math.log(norm) + self.log_shift

    @property
    def indicatrix_radius(self):
        return math.exp(-self.log_shift)


class _GreenModel:
    """Scalar Green function and point embedding shared by the catalog models."""

    def green(self, p):
        """G at one point, through the batch formula; -inf on the pole set."""
        return float(self.green_batch(as_point(p, self.ambient_dim)[None, :])[0])

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
    """Unit ball of C^n with V = {0}: G(z) = log |z|."""

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

    def gap(self, p):
        return 0.0

    def azukawa_form(self, base_point=()):
        base = np.asarray(base_point, dtype=complex).ravel()
        if base.size != 0:
            raise ValueError("the pole is a single point; base_point must be empty")
        return AzukawaForm(pole_dim=self.n, log_shift=0.0)


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

    def gap(self, p):
        zpp = as_point(p, self.ambient_dim)[self.pole_dim :]
        return 0.5 * math.log1p(-float(np.sum(np.abs(zpp) ** 2)))

    def azukawa_form(self, base_point):
        w = np.asarray(base_point, dtype=complex).ravel()
        if w.size != self.base_dim:
            raise ValueError(f"base point must have {self.base_dim} coordinates")
        w2 = float(np.sum(np.abs(w) ** 2))
        if w2 >= 1.0:
            raise DomainError("base point must lie inside the unit ball of V")
        return AzukawaForm(pole_dim=self.pole_dim, log_shift=-0.5 * math.log1p(-w2))


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
            return 0.5 * np.log(r2) + _fiber_psi_batch(self.profile, w2)

    def gap(self, p):
        return -fiber_psi(self.profile, as_point(p, self.ambient_dim)[self.base_dim :])

    def azukawa_form(self, base_point):
        v = np.asarray(base_point, dtype=complex).ravel()
        if v.size != self.base_dim:
            raise ValueError(
                f"base point must have {self.base_dim} coordinates (z'' then w)"
            )
        w = v[self.base_dim - self.pole_dim :]
        return AzukawaForm(pole_dim=self.pole_dim, log_shift=fiber_psi(self.profile, w))


def eval_green(model, p) -> float:
    """Green function value at an interior point; -inf on the pole set."""
    p = as_point(p, model.ambient_dim)
    if not model.domain().contains(p):
        raise DomainError("point lies outside the model domain")
    return model.green(p)


def gap_B(model, p) -> float:
    """Gap function B(p) = log |psi(p)| - G(p), continuous across V."""
    p = as_point(p, model.ambient_dim)
    if not model.domain().contains(p):
        raise DomainError("point lies outside the model domain")
    return model.gap(p)


def azukawa(model, base_point, direction, verify=False, tol=1e-6) -> float:
    """Directional limit A(X) of G along the pole block at a point of V.

    With ``verify=True`` the closed form is checked against the finite-scale
    quotient G(a X, w) - log a on a fixed ladder a in {1e-2, 1e-3, 1e-4}; a
    mismatch beyond ``tol`` signals model drift and raises.
    """
    form = model.azukawa_form(base_point)
    value = form.evaluate(direction)
    if verify:
        x = np.asarray(direction, dtype=complex).ravel()
        unit = x / float(np.linalg.norm(x))
        target = value - math.log(float(np.linalg.norm(x)))  # A at the unit direction
        for lam in _LIMIT_LADDER:
            probe = eval_green(model, model.embed(lam * unit, base_point)) - math.log(lam)
            if abs(probe - target) > tol:
                raise RuntimeError(
                    f"directional limit at scale {lam} drifted from the closed "
                    f"form by {abs(probe - target):.3e}"
                )
    return value


def indicatrix_volume(
    form: AzukawaForm, method="closed_form", samples=200_000, seed=0
) -> QuadratureResult:
    """Euclidean volume of the indicatrix {X : A(X) < 0} in C^pole_dim."""
    probe = form.log_shift + math.log(1e3)
    if probe < 0.0:
        raise ValueError("indicatrix is unbounded: A < 0 at |X| = 1e3")
    k = form.pole_dim
    exact = sigma_mu(k)[0] * math.exp(-2.0 * k * form.log_shift)
    if method == "closed_form":
        return QuadratureResult(value=exact, error_estimate=0.0, samples_or_nodes=0)
    if method != "monte_carlo":
        raise ValueError("method must be 'closed_form' or 'monte_carlo'")
    return volume(Ball(radius=form.indicatrix_radius, dim=k), samples, seed)


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
