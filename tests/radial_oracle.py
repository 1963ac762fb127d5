"""30-digit references for the radial Gram diagonal and the lift-route fiber
integral, written from their formulas with mpmath and no import from holoext.

A profile is given by (a, eps): u(t) = -a log(1 - e^(t/a)) - eps log(1 - e^t),
so (1, 0) is the log-singular profile, (a, 0) the scaled one and (a, eps) its
eps-regularization.  mu_k = 2 pi^k / (k-1)! is the area of the unit sphere of
C^k.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath

DPS = 30

# the five profiles of the benchmark's radial grid, as (a, eps)
PROFILES = {
    "log_singular": (1.0, 0.0),
    "scaled_log_a0.5": (0.5, 0.0),
    "scaled_log_a2": (2.0, 0.0),
    "eps0.1": (1.0, 0.1),
    "eps0.1_over_scaled_log_a0.5": (0.5, 0.1),
}


def _mu(k):
    return 2 * mpmath.pi**k / mpmath.factorial(k - 1)


@lru_cache(maxsize=None)
def gram_diagonal(k: int, m1: int, a: float, eps: float) -> float:
    """<z^alpha, z^alpha> on the unit ball of C^k under phi = k u(log |z|^2),
    for alpha = (m1, 0, ..., 0):

        (k-1)! m1! / (k-1+m1)! * mu_k/2 int_0^1 x^(m1+k-1) (1 - x^(1/a))^(k a) (1 - x)^(k eps) dx,

    the angular moment times the radial integral with x = |z|^2.
    """
    with mpmath.workdps(DPS + 10):
        a_m, eps_m = mpmath.mpf(a), mpmath.mpf(eps)

        def integrand(x):
            return x ** (m1 + k - 1) * (1 - x ** (1 / a_m)) ** (k * a_m) * (1 - x) ** (k * eps_m)

        radial = mpmath.quad(integrand, [0, mpmath.mpf(1) / 2, 1])
        angular = mpmath.mpf(math.factorial(k - 1) * math.factorial(m1))
        angular /= math.factorial(k - 1 + m1)
        return float(angular * _mu(k) / 2 * radial)


@lru_cache(maxsize=None)
def lift_fiber(k: int, a: float, eps: float) -> float:
    """int_(B^k) e^(k u^(-1)(-log |w|^2)) dV(w), the lift route with V a point.

    With t = u^(-1)(-log |w|^2) as the variable, |w|^2 = e^(-u(t)), so the
    integral is mu_k/2 int_(-inf)^0 e^(k t) e^(-k u(t)) u'(t) dt and needs no
    inverse of u.
    """
    with mpmath.workdps(DPS + 10):
        a_m, eps_m = mpmath.mpf(a), mpmath.mpf(eps)

        def integrand(t):
            ea, e1 = mpmath.exp(t / a_m), mpmath.exp(t)
            u = -a_m * mpmath.log(1 - ea) - eps_m * mpmath.log(1 - e1)
            du = ea / (1 - ea) + eps_m * e1 / (1 - e1)
            return mpmath.exp(k * (t - u)) * du

        return float(_mu(k) / 2 * mpmath.quad(integrand, [-mpmath.inf, -8, -1, 0]))


def beta(x: float, y: float) -> float:
    return math.gamma(x) * math.gamma(y) / math.gamma(x + y)
