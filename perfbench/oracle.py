"""Reference values the benchmark checks holoext against.

Every value here is written from its formula, with no import from holoext:
exact factorials and powers of pi, the Beta function through ``math.lgamma``,
and, where no closed form exists, a 30-digit mpmath quadrature.  The tests in
``test_oracle.py`` check each closed form against its defining integral.

Notation: sigma_k = pi^k / k! is the volume of the unit ball of C^k and
mu_k = 2 pi^k / (k-1)! the area of its boundary sphere.
"""

from __future__ import annotations

import math

import mpmath


def sigma(k: int) -> float:
    return math.pi**k / math.factorial(k)


def mu(k: int) -> float:
    return 2.0 * math.pi**k / math.factorial(k - 1)


def beta(x: float, y: float) -> float:
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def ball_point_level(n: int) -> float:
    """e^(-nt) vol{log|z| < t/2} in the unit ball of C^n, at every level t < 0."""
    return sigma(n)


def ball_pair_level(n: int, k: int) -> float:
    """e^(-kt) vol{G < t/2} for the ball of C^(k+n) with pole block C^k.

    The sublevel set is {|z'|^2 < e^t (1 - |z''|^2)}, so the rescaled volume
    is sigma_k * integral_(B^n) (1 - |z''|^2)^k = sigma_k pi^n k! / (n+k)! at
    every level, not only in the limit.
    """
    return sigma(k) * math.pi**n * math.factorial(k) / math.factorial(n + k)


def scaled_log_slice(k: int, a: float, z2: float = 0.0) -> float:
    """Slice integral of e^(-phi) for u(t) = -a log(1 - e^(t/a)) on the slice
    at |z''| = z2: (mu_k / 2) (1 - z2^2)^k a B(ka, ka + 1).

    With a = 1 this is the log-singular profile, and the value reduces to
    pi^k k! / (2k)! (1 - z2^2)^k.  It is also the lifted volume over sigma_k.
    """
    return 0.5 * mu(k) * (1.0 - z2 * z2) ** k * a * beta(k * a, k * a + 1.0)


def ball_weight_integral(n: int) -> float:
    """integral_(B^n) (1 - |w|^2)^n dV = pi^n n! / (2n)!."""
    return math.pi**n * math.factorial(n) / math.factorial(2 * n)


def epsilon_minimal_norm(n: int, eps: float) -> float:
    """integral_(B^n) e^(-phi) for u(t) = -(1 + eps) log(1 - e^t):
    (mu_n / 2) B(n, n(1 + eps) + 1)."""
    return 0.5 * mu(n) * beta(n, n * (1.0 + eps) + 1.0)


def mixed_minimal_norm(n: int, a: float, eps: float, dps: int = 30) -> float:
    """integral_(B^n) e^(-phi) for u(t) = -a log(1 - e^(t/a)) - eps log(1 - e^t).

    No closed form: (mu_n / 2) int_0^1 (1 - x^(1/a))^(na) (1 - x)^(n eps)
    x^(n-1) dx by mpmath quadrature at ``dps`` digits.
    """
    with mpmath.workdps(dps):
        a_m, eps_m = mpmath.mpf(a), mpmath.mpf(eps)
        integral = mpmath.quad(
            lambda x: (1 - x ** (1 / a_m)) ** (n * a_m) * (1 - x) ** (n * eps_m) * x ** (n - 1),
            [0, 1],
        )
        return float(mpmath.pi**n / mpmath.factorial(n - 1) * integral)


def gram_diagonal(alpha: tuple) -> float:
    """<z^alpha, z^alpha> on the unit ball of C^n with e^(-phi) = (1 - |z|^2)^n:
    pi^n alpha! n! / (2n + |alpha|)!.  Off-diagonal entries vanish."""
    n = len(alpha)
    return (
        math.pi**n
        * math.prod(math.factorial(a) for a in alpha)
        * math.factorial(n)
        / math.factorial(2 * n + sum(alpha))
    )
