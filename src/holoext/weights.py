"""Radial convex profiles and the plurisubharmonic weights built from them.

A profile is a convex increasing function u on (-inf, 0) with u(t) -> 0 as
t -> -inf and u(t) -> +inf at the upper end of its interval of definition.
A radial weight evaluates as phi(z) = k * u(log |z'|^2) where z' is the
leading coordinate block of length k.  Profiles carry exact inverses so that
the fiber function psi(w) = -u^{-1}(-log |w|^2) / 2 and the change-of-variable
identities downstream can be evaluated to near machine accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import as_point

__all__ = [
    "RadialProfile",
    "LogSingularProfile",
    "ScaledLogProfile",
    "EpsilonRegularizedProfile",
    "ShiftedProfile",
    "fiber_psi",
    "TrivialWeight",
    "BallStandardWeight",
    "RadialWeight",
    "EpsilonRegularizedWeight",
    "make_profile",
]


class RadialProfile:
    """Base class for the closed-form profile catalog.

    Subclasses implement ``value``, ``derivative`` and ``inverse``; all three
    accept floats or numpy arrays.  ``upper_limit`` is the t at which the
    profile diverges (0.0 for the base catalog entries).
    """

    upper_limit = 0.0

    def value(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def inverse(self, s):
        raise NotImplementedError

    def _check_scalar_t(self, t):
        if np.isscalar(t) and t >= self.upper_limit:
            raise DomainError(
                f"profile defined for t < {self.upper_limit}, got t = {t}"
            )

    @staticmethod
    def _check_scalar_s(s):
        if np.isscalar(s) and s < 0:
            raise ValueError(f"inverse defined for s >= 0, got s = {s}")


@dataclass(frozen=True)
class LogSingularProfile(RadialProfile):
    """u(t) = -log(1 - e^t), the profile of the standard ball weight."""

    def value(self, t):
        self._check_scalar_t(t)
        # -log(1 - e^t) via expm1 to keep full precision as t -> 0-
        with np.errstate(divide="ignore"):
            return -np.log(-np.expm1(np.asarray(t, dtype=float)))

    def derivative(self, t):
        self._check_scalar_t(t)
        # u'(t) = e^t / (1 - e^t)
        return 1.0 / np.expm1(-np.asarray(t, dtype=float))

    def inverse(self, s):
        self._check_scalar_s(s)
        # log(1 - e^-s) via log1p to keep full precision for large s
        with np.errstate(divide="ignore"):
            return np.log1p(-np.exp(-np.asarray(s, dtype=float)))


@dataclass(frozen=True)
class ScaledLogProfile(RadialProfile):
    """u(t) = -a * log(1 - e^(t/a)) for a scale parameter a > 0."""

    a: float

    def __post_init__(self):
        if not 0 < self.a < np.inf:
            raise ValueError(f"scale parameter a must be positive and finite, got {self.a!r}")

    def value(self, t):
        self._check_scalar_t(t)
        with np.errstate(divide="ignore"):
            return -self.a * np.log(-np.expm1(np.asarray(t, dtype=float) / self.a))

    def derivative(self, t):
        self._check_scalar_t(t)
        return 1.0 / np.expm1(-np.asarray(t, dtype=float) / self.a)

    def inverse(self, s):
        self._check_scalar_s(s)
        with np.errstate(divide="ignore"):
            return self.a * np.log1p(-np.exp(-np.asarray(s, dtype=float) / self.a))


@dataclass(frozen=True)
class EpsilonRegularizedProfile(RadialProfile):
    """inner(t) - eps * log(1 - e^t): the inner profile plus a diverging term.

    For a log-singular inner profile the sum collapses to a coefficient
    rescaling and the inverse stays in closed form.  Mixed-scale combinations
    have no elementary inverse; those fall back to a safeguarded bisection
    polished by Newton steps, converging to machine accuracy because the sum
    is strictly increasing.
    """

    inner: RadialProfile
    eps: float

    def __post_init__(self):
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps!r}")

    def value(self, t):
        self._check_scalar_t(t)
        return self.inner.value(t) - self.eps * np.log(
            -np.expm1(np.asarray(t, dtype=float))
        )

    def derivative(self, t):
        self._check_scalar_t(t)
        return self.inner.derivative(t) + self.eps / np.expm1(-np.asarray(t, dtype=float))

    def inverse(self, s):
        self._check_scalar_s(s)
        if isinstance(self.inner, LogSingularProfile):
            # u(t) = -(1 + eps) log(1 - e^t)
            with np.errstate(divide="ignore"):
                return np.log1p(-np.exp(-np.asarray(s, dtype=float) / (1.0 + self.eps)))
        return self._inverse_numeric(s)

    def _inverse_numeric(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s_arr)
        out[s_arr == 0.0] = -np.inf
        out[np.isinf(s_arr)] = 0.0
        work = np.isfinite(s_arr) & (s_arr > 0.0)
        if work.any():
            sv = s_arr[work]
            # value(t) >= inner(t), so the root sits at or below inner's inverse
            hi = np.minimum(self.inner.inverse(sv), -1e-300)
            lo = hi - 1.0
            for _ in range(90):
                low_mask = self.value(lo) > sv
                if not low_mask.any():
                    break
                lo[low_mask] -= 2.0 * (hi[low_mask] - lo[low_mask])
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                high_side = self.value(mid) >= sv
                hi = np.where(high_side, mid, hi)
                lo = np.where(high_side, lo, mid)
            t = 0.5 * (lo + hi)
            for _ in range(3):
                t = t - (self.value(t) - sv) / self.derivative(t)
                t = np.clip(t, lo, hi)
            out[work] = t
        if np.isscalar(s):
            return float(out[0])
        return out.reshape(np.shape(s))


@dataclass(frozen=True)
class ShiftedProfile(RadialProfile):
    """inner translated so its blow-up sits at ``shift`` instead of 0.

    Used to build profiles that diverge at the boundary of an off-center
    slice: u_T(t) = inner(t - T) diverges as t -> T.  Internal plumbing: the
    subtraction t - shift cancels near the blow-up, so unlike the catalog
    entries this wrapper cannot resolve values above roughly -log(ulp(shift)).
    """

    inner: RadialProfile
    shift: float

    def __post_init__(self):
        if not self.shift <= 0:
            raise ValueError("shift must be <= 0")

    @property
    def upper_limit(self):
        return self.shift

    def value(self, t):
        self._check_scalar_t(t)
        return self.inner.value(np.asarray(t, dtype=float) - self.shift)

    def derivative(self, t):
        self._check_scalar_t(t)
        return self.inner.derivative(np.asarray(t, dtype=float) - self.shift)

    def inverse(self, s):
        self._check_scalar_s(s)
        return self.inner.inverse(s) + self.shift


def fiber_psi(profile: RadialProfile, w):
    """Fiber function psi(w) = -u^{-1}(-log |w|^2) / 2 for w in the unit ball.

    psi vanishes at w = 0 (the limit value) and increases to +inf as
    |w| -> 1.  Outside the open ball the function is undefined.
    """
    r2 = float(np.sum(np.abs(as_point(w)) ** 2))
    if r2 >= 1.0:
        raise DomainError(f"fiber point must satisfy |w| < 1, got |w|^2 = {r2}")
    return float(_fiber_psi_batch(profile, [r2])[0]) + 0.0


def _fiber_psi_batch(profile: RadialProfile, r2):
    """Vectorized psi as a function of |w|^2; trusted in-range input."""
    r2 = np.asarray(r2, dtype=float)
    with np.errstate(divide="ignore"):
        s = -np.log(r2)
    return -0.5 * np.where(r2 == 0.0, profile.upper_limit, profile.inverse(s))


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


class _Weight:
    """Scalar evaluation through the batch formula of the concrete weight.

    The batch formula returns +inf outside the weight's domain; the scalar
    entry point raises DomainError there.
    """

    def value(self, p):
        p = as_point(p)
        out = float(self.value_batch(p[None, :])[0])
        if out == np.inf:
            raise DomainError(f"the weight is +inf at {p}: outside its domain")
        return out


@dataclass(frozen=True)
class TrivialWeight(_Weight):
    """phi identically 0."""

    pole_dim = None

    def value_batch(self, pts):
        return np.zeros(len(pts))


@dataclass(frozen=True)
class BallStandardWeight(_Weight):
    """phi(z) = -n * log(1 - |z|^2) on the unit ball."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @property
    def pole_dim(self):
        return self.n

    def value_batch(self, pts):
        r2 = np.sum(np.abs(pts) ** 2, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -self.n * np.log1p(-r2)
        return np.where(r2 < 1.0, out, np.inf)


@dataclass(frozen=True)
class RadialWeight(_Weight):
    """phi(z) = k * u(log |z'|^2) with z' the first k coordinates."""

    profile: RadialProfile
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")

    @property
    def pole_dim(self):
        return self.k

    def value_batch(self, pts):
        r2 = np.sum(np.abs(pts[:, : self.k]) ** 2, axis=1)
        out = np.full(len(pts), np.inf)
        zero = r2 == 0.0
        out[zero] = 0.0
        ok = (~zero) & (np.log(np.where(zero, 1.0, r2)) < self.profile.upper_limit)
        if ok.any():
            out[ok] = self.k * self.profile.value(np.log(r2[ok]))
        return out


@dataclass(frozen=True)
class EpsilonRegularizedWeight(_Weight):
    """inner weight plus -eps * log(1 - |z|^2) on the unit ball.

    The added term vanishes as eps -> 0 at interior points and forces the
    weight to diverge at the boundary sphere.
    """

    inner: TrivialWeight | BallStandardWeight | RadialWeight
    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    @property
    def pole_dim(self):
        return self.inner.pole_dim

    def value_batch(self, pts):
        r2 = np.sum(np.abs(pts) ** 2, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            extra = -self.eps * np.log1p(-r2)
        return np.where(r2 < 1.0, self.inner.value_batch(pts) + extra, np.inf)


_PROFILE_PARAMS = {  # kind -> the parameters its config mapping may carry
    "log_singular": (),
    "scaled_log": ("a",),
    "epsilon_regularized": ("inner", "eps"),
}


def make_profile(spec) -> RadialProfile:
    """Build a catalog profile from a name or a mapping of a kind and its parameters."""
    if isinstance(spec, RadialProfile):
        return spec
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind")
    if kind not in _PROFILE_PARAMS:
        raise ValueError(f"unknown profile kind {kind!r}; expected one of {tuple(_PROFILE_PARAMS)}")
    unknown = set(spec) - {"kind", *_PROFILE_PARAMS[kind]}
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)} for profile kind {kind!r}")
    if kind == "log_singular":
        return LogSingularProfile()
    if kind == "scaled_log":
        return ScaledLogProfile(a=float(spec.get("a", 1.0)))
    inner = make_profile(spec.get("inner", "log_singular"))
    return EpsilonRegularizedProfile(inner=inner, eps=float(spec.get("eps", 0.1)))
