"""Radial convex profiles and the plurisubharmonic weights built from them.

A profile is a convex increasing function u on (-inf, 0) with u(t) -> 0 as
t -> -inf and u(t) -> +inf at the upper end of its interval of definition.
A radial weight evaluates as phi(z) = k * u(log |z'|^2) where z' is the
leading coordinate block of length k.  Profiles carry exact inverses so that
the fiber function psi(w) = -u^{-1}(-log |w|^2) / 2 and the change-of-variable
identities downstream can be evaluated to near machine accuracy.
"""

from __future__ import annotations

import math
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
    "TrivialWeight",
    "BallStandardWeight",
    "RadialWeight",
    "EpsilonRegularizedWeight",
    "make_profile",
]


def _log1mexp(x):
    """log(1 - e^(-x)) for x >= 0, to full relative precision at both ends.

    log(-expm1(-x)) below log 2 and log1p(-exp(-x)) above it (Maechler,
    "Accurately computing log(1 - exp(-|a|))", 2012).
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x < math.log(2.0), np.log(-np.expm1(-x)), np.log1p(-np.exp(-x)))[()]


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
        return _log1mexp(s)


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
        return self.a * _log1mexp(np.asarray(s, dtype=float) / self.a)


@dataclass(frozen=True)
class EpsilonRegularizedProfile(RadialProfile):
    """inner(t) - eps * log(1 - e^t): the inner profile plus a diverging term.

    For a log-singular inner profile the sum collapses to a coefficient
    rescaling and the inverse stays in closed form.  Mixed-scale combinations
    have no elementary inverse; those run Newton steps from the lower of the
    two summands' closed-form inverses, which bounds the root from above.  The
    sum is convex and increasing, so the iterates fall monotonically to the
    root, and each node stops once its iterate stops moving.
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
            return _log1mexp(np.asarray(s, dtype=float) / (1.0 + self.eps))
        return self._inverse_numeric(s)

    def _inverse_numeric(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        # value >= inner and value >= -eps log(1 - e^t): both inverses bound the root
        t = np.minimum(self.inner.inverse(s_arr), _log1mexp(s_arr / self.eps))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while True:
                nxt = t - (self.value(t) - s_arr) / self.derivative(t)
                moving = nxt < t
                if not moving.any():
                    break
                t = np.where(moving, nxt, t)
        if np.isscalar(s):
            return float(t[0])
        return t.reshape(np.shape(s))


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


def _psi_batch(profile: RadialProfile, r2):
    """psi(w) = -u^{-1}(-log |w|^2) / 2 as a function of |w|^2 < 1, with its
    limit value at w = 0; trusted in-range input."""
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
# Upper bounds on the real parameters a config may give: radial_minimal and
# bound_comparison pass at 10, while at a = 100 the degree-0 radial Gram
# entry is already lost.
PROFILE_PARAM_MAX = {"a": 10.0, "eps": 10.0}


def _real_param(spec, name, default):
    value = spec.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0 < value <= PROFILE_PARAM_MAX[name]:
        raise ValueError(f"{name} must lie in (0, {PROFILE_PARAM_MAX[name]:g}], got {value!r}")
    return float(value)


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
        return ScaledLogProfile(a=_real_param(spec, "a", 1.0))
    inner = make_profile(spec.get("inner", "log_singular"))
    return EpsilonRegularizedProfile(inner=inner, eps=_real_param(spec, "eps", 0.1))
