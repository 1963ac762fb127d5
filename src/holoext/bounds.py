"""Extension-norm bounds for radial scenarios on the unit ball.

A scenario fixes the pair (unit ball of C^n, V = {z' = 0}), a radial weight
phi = k u(log |z'|^2) built from a catalog profile, and polynomial boundary
data f on V.  Three numbers are computed for it, each by one function; the
``bound_comparison`` scenario reports them side by side:

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
V a point the first two numbers are equal; for f = 1 they are the two sides
of the slice/fiber identity (``fubini_sides``).  All closed-form constants
come from exact integer factorials times powers of pi.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bergman import (
    MultiIndexBasis, _check_data, _radial_reduction, gram_matrix, min_norm_extension
)
from .geometry import Ball
from .green import BallPairModel, BallPointModel, RadialLiftModel
from .integrate import (
    QuadratureResult,
    _ball_moment,
    _data_moment,
    mc_integrate,
    radial_integrate,
    sigma_mu,
)
from .weights import RadialProfile, RadialWeight

__all__ = [
    "ExtensionScenario",
    "lift_route_rhs",
    "fubini_sides",
    "indicatrix_bound_rhs",
    "ball_bound_ratio",
    "ball_bound_integral",
    "ball_bound_integral_mc",
    "minimal_norm_squared",
]


@dataclass
class ExtensionScenario:
    """Unit-ball pair with a radial weight and polynomial data.

    ``f_coeffs`` maps z''-multi-indices (length n - k) to finite
    coefficients; the default extends the constant function 1.
    """

    ambient_dim: int
    codim: int
    profile: RadialProfile
    f_coeffs: dict | None = None
    degree: int = 8

    def __post_init__(self):
        n, k = self.ambient_dim, self.codim
        if not 1 <= k <= n:
            raise ValueError("need 1 <= codim <= ambient_dim")
        if not isinstance(self.profile, RadialProfile):
            raise ValueError(f"profile must be a RadialProfile, got {self.profile!r}")
        if self.f_coeffs is None:
            self.f_coeffs = {(0,) * (n - k): 1.0}  # the constant function 1
        _check_data(self.f_coeffs, n - k)
        self.f_coeffs = {tuple(key): complex(val) for key, val in self.f_coeffs.items()}


def lift_route_rhs(scenario: ExtensionScenario) -> QuadratureResult:
    """Lift-route bound on the weighted extension norm.

    sigma_k times the lift model's indicatrix integral, descended through the
    mean value inequality, i.e. divided by sigma_k: the integral itself, the
    data moment times the fiber quadrature, whose residual and rule it keeps.
    """
    model = RadialLiftModel(scenario.profile, scenario.codim, scenario.ambient_dim)
    fiber = model.fiber_integral()
    moment = _data_moment(scenario.ambient_dim - scenario.codim, scenario.f_coeffs, 0)
    return replace(fiber, value=moment * fiber.value, error_estimate=moment * fiber.error_estimate)


def fubini_sides(profile: RadialProfile, k: int, z2_norm: float = 0.0):
    """The slice integral of e^(-phi) and the fiber integral of e^(-2k psi)
    on a slice at |z''| = z2_norm, with V a point of B^k.

    The slice's profile blows up at T = log(1 - z2_norm^2), and substituting
    t - T takes T out of both t-integrals as the factor s = (1 - z2_norm^2)^k.
    So the sides are s times the degree-0 radial Gram entry of
    RadialWeight(profile, k), the least norm of f = 1, and s times the lift
    model's ``fiber_integral``, the lift route; each keeps its quadrature.
    """
    if not 0.0 <= z2_norm < 1.0:
        raise ValueError("z2_norm must lie in [0, 1)")
    s = (1.0 - z2_norm**2) ** k
    factor, exponents = _radial_reduction(RadialWeight(profile, k))
    slice_side = radial_integrate(factor, k, exponents=exponents)
    sides = slice_side, RadialLiftModel(profile, k, k).fiber_integral()
    return tuple(replace(q, value=s * q.value, error_estimate=s * q.error_estimate) for q in sides)


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
    return _ball_moment(n, (0,) * n, n)


def ball_bound_integral(n: int) -> QuadratureResult:
    """integral_(B^n) (1 - |w|^2)^n dV by radial quadrature; equals the ratio.

    (1 - r^2)^n = (1 - r)^n (1 + r)^n, so the rule carries the edge n."""
    return radial_integrate(lambda r: (1.0 - r * r) ** n, n, exponents=(n, 1))


def ball_bound_integral_mc(n: int, samples: int, seed: int) -> QuadratureResult:
    """Monte Carlo cross-check of integral_(B^n) (1 - |w|^2)^n dV, the
    integrand on the ball's squared radius."""
    return mc_integrate(Ball(radius=1.0, dim=n), lambda t: (1.0 - t[:, 0]) ** n, samples, seed)


def minimal_norm_squared(scenario: ExtensionScenario, degree: int | None = None):
    """Least norm-squared of an extension of f in the truncated space."""
    d = scenario.degree if degree is None else degree
    basis = MultiIndexBasis(scenario.ambient_dim, d, scenario.codim)
    weight = RadialWeight(scenario.profile, scenario.codim)
    gram = gram_matrix(Ball(radius=1.0, dim=scenario.ambient_dim), weight, basis)
    return min_norm_extension(scenario.f_coeffs, gram)
