"""Extension-norm bounds for radial scenarios on the unit ball.

A scenario fixes the pair (unit ball of C^n, V = {z' = 0}), a radial weight
phi = k u(log |z'|^2) built from a catalog profile (or the trivial weight),
and polynomial boundary data f on V.  Three numbers are computed for it, each
by one function; the ``bound_comparison`` scenario reports them side by side:

  * ``minimal_norm_squared``: the weighted norm of the least-norm extension
    in the truncated Bergman space,
  * ``lift_route_rhs``: the bound integral_V vol(I_v) |f|^2 on the Hartogs
    lift with the trivial weight, descended by the mean value inequality,
    i.e. divided by sigma_k,
  * ``indicatrix_bound_rhs``: integral_V vol(I_v) |f|^2 e^(-phi) for the
    direct pair; on V the weight is e^(-phi) = 1.

Both bounds are sigma_k times a Green model's ``indicatrix_integral`` of f:
the lift route that of ``RadialLiftModel``, the direct bound that of
``BallPointModel`` (V a point) or ``BallPairModel``.  For radial weights with
V a point the first two numbers are equal.  All closed-form constants come
from exact integer factorials times powers of pi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bergman import MultiIndexBasis, gram_matrix, min_norm_extension
from .errors import UnsupportedModelError
from .geometry import Ball
from .green import BallPairModel, BallPointModel, RadialLiftModel
from .integrate import QuadratureResult, mc_integrate, radial_integrate, sigma_mu
from .weights import RadialProfile, RadialWeight, TrivialWeight

__all__ = [
    "ExtensionScenario",
    "lift_route_rhs",
    "indicatrix_bound_rhs",
    "ball_bound_ratio",
    "ball_bound_integral",
    "ball_bound_integral_mc",
    "minimal_norm_squared",
]


@dataclass
class ExtensionScenario:
    """Unit-ball pair with a radial (or trivial) weight and polynomial data.

    ``f_coeffs`` maps z''-multi-indices (length n - k) to finite
    coefficients; the default extends the constant function 1.
    """

    ambient_dim: int
    codim: int
    profile: RadialProfile | None
    f_coeffs: dict | None = None
    degree: int = 8

    def __post_init__(self):
        n, k = self.ambient_dim, self.codim
        if not 1 <= k <= n:
            raise ValueError("need 1 <= codim <= ambient_dim")
        if self.f_coeffs is None:
            self.f_coeffs = {(0,) * (n - k): 1.0}  # the constant function 1
        self.f_coeffs = {tuple(key): complex(val) for key, val in self.f_coeffs.items()}
        for key, val in self.f_coeffs.items():
            if len(key) != n - k:
                raise ValueError(f"f index {key} must have length {n - k}")
            if not cmath.isfinite(val):
                raise ValueError(f"f coefficient at {key} must be finite, got {val}")

    def domain(self) -> Ball:
        return Ball(radius=1.0, dim=self.ambient_dim)

    def weight(self):
        if self.profile is None:
            return TrivialWeight()
        return RadialWeight(self.profile, self.codim)


def lift_route_rhs(scenario: ExtensionScenario) -> float:
    """Lift-route bound on the weighted extension norm.

    sigma_k times the lift model's indicatrix integral, descended through the
    mean value inequality, i.e. divided by sigma_k: the integral itself.
    """
    if scenario.profile is None:
        raise UnsupportedModelError(
            "the lift of the trivially weighted ball is a ball-times-ball "
            "product with no catalog Green model"
        )
    model = RadialLiftModel(scenario.profile, scenario.codim, scenario.ambient_dim)
    return model.indicatrix_integral(scenario.f_coeffs)


def indicatrix_bound_rhs(scenario: ExtensionScenario) -> float:
    """Indicatrix bound integral_V vol(I_v) |f|^2 e^(-phi) for the direct pair.

    sigma_k times the indicatrix integral of the direct model: the ball with
    a point pole when V is a point, else the ball pair, whose indicatrix at
    z'' is the ball of radius sqrt(1 - |z''|^2) in C^k.
    """
    n, k = scenario.ambient_dim, scenario.codim
    model = BallPointModel(n) if k == n else BallPairModel(k, n - k)
    return sigma_mu(k)[0] * model.indicatrix_integral(scenario.f_coeffs)


def ball_bound_ratio(n: int) -> float:
    """Lift-to-direct bound ratio for the standard weight on the ball:
    (mu_n / 2) (n-1)! n! / (2n)! = pi^n n! / (2n)!.

    Below 1 for every n >= 2; equals pi/2 at n = 1, which is why the
    comparison there carries no improvement.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return math.pi**n * math.factorial(n) / math.factorial(2 * n)


def ball_bound_integral(n: int) -> QuadratureResult:
    """integral_(B^n) (1 - |w|^2)^n dV by radial quadrature; equals the ratio."""
    return radial_integrate(lambda r: (1.0 - r * r) ** n, n)


def ball_bound_integral_mc(n: int, samples: int, seed: int) -> QuadratureResult:
    """Monte Carlo cross-check of integral_(B^n) (1 - |w|^2)^n dV."""
    return mc_integrate(
        Ball(radius=1.0, dim=n),
        lambda pts: (1.0 - np.sum(np.abs(pts) ** 2, axis=1)) ** n,
        samples,
        seed,
    )


def minimal_norm_squared(scenario: ExtensionScenario, degree: int | None = None):
    """Least norm-squared of an extension of f in the truncated space."""
    d = scenario.degree if degree is None else degree
    basis = MultiIndexBasis(scenario.ambient_dim, d, scenario.codim)
    gram = gram_matrix(scenario.domain(), scenario.weight(), basis)
    return min_norm_extension(scenario.f_coeffs, gram)
