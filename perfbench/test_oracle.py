"""Each closed form of oracle.py against a 30-digit mpmath quadrature of its
defining integral.  Run with ``python3 -m pytest perfbench``."""

import math

import mpmath
import pytest

import oracle

DPS = 30


def radial(n, g):
    """mu_n * int_0^1 g(r) r^(2n-1) dr at DPS digits."""
    with mpmath.workdps(DPS):
        mu_n = 2 * mpmath.pi**n / mpmath.factorial(n - 1)
        return float(mu_n * mpmath.quad(lambda r: g(r) * r ** (2 * n - 1), [0, 1]))


def slice_integral(k, u, upper=0):
    """(mu_k / 2) int_(-inf)^upper e^(-k u(t)) e^(k t) dt at DPS digits."""
    with mpmath.workdps(DPS):
        mu_k = 2 * mpmath.pi**k / mpmath.factorial(k - 1)
        value = mpmath.quad(lambda t: mpmath.exp(-k * u(t) + k * t), [-mpmath.inf, upper])
        return float(mu_k / 2 * value)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_point_level(n):
    assert oracle.ball_point_level(n) == pytest.approx(radial(n, lambda r: 1), rel=1e-14)


@pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (2, 1), (3, 2)])
def test_ball_pair_level(n, k):
    expected = oracle.sigma(k) * radial(n, lambda r: (1 - r * r) ** k)
    assert oracle.ball_pair_level(n, k) == pytest.approx(expected, rel=1e-14)


def test_ball_pair_level_headline():
    assert oracle.ball_pair_level(2, 2) == pytest.approx(math.pi**4 / 24, rel=1e-15)


@pytest.mark.parametrize("k,a,z2", [(1, 1.0, 0.0), (2, 1.0, 0.0), (3, 1.0, 0.0), (2, 0.5, 0.3), (1, 2.0, 0.0)])
def test_scaled_log_slice(k, a, z2):
    big_t = mpmath.log(1 - mpmath.mpf(z2) ** 2)

    def u(t):
        return -a * mpmath.log(1 - mpmath.exp((t - big_t) / a))

    assert oracle.scaled_log_slice(k, a, z2) == pytest.approx(
        slice_integral(k, u, big_t), rel=1e-13
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_log_singular_slice_is_factorial_ratio(k):
    expected = math.pi**k * math.factorial(k) / math.factorial(2 * k)
    assert oracle.scaled_log_slice(k, 1.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_weight_integral(n):
    expected = radial(n, lambda r: (1 - r * r) ** n)
    assert oracle.ball_weight_integral(n) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n,a", [(1, 0.5), (2, 0.5), (3, 2.0)])
def test_scaled_log_minimal_norm(n, a):
    """The minimal norm for V a point is the ball integral of e^(-phi)."""
    expected = radial(n, lambda r: (1 - r ** (mpmath.mpf(2) / a)) ** (n * a))
    assert oracle.scaled_log_slice(n, a) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_epsilon_minimal_norm(n):
    eps = mpmath.mpf("0.1")
    expected = radial(n, lambda r: (1 - r * r) ** (n * (1 + eps)))
    assert oracle.epsilon_minimal_norm(n, 0.1) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mixed_minimal_norm_in_log_coordinates(n):
    """The x-space quadrature against the slice integral in t = log|z|^2."""
    a, eps = mpmath.mpf("0.5"), mpmath.mpf("0.1")

    def u(t):
        return -a * mpmath.log(1 - mpmath.exp(t / a)) - eps * mpmath.log(1 - mpmath.exp(t))

    assert oracle.mixed_minimal_norm(n, 0.5, 0.1) == pytest.approx(
        slice_integral(n, u), rel=1e-13
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mixed_minimal_norm_reduces_to_epsilon_case(n):
    assert oracle.mixed_minimal_norm(n, 1.0, 0.1) == pytest.approx(
        oracle.epsilon_minimal_norm(n, 0.1), rel=1e-14
    )


@pytest.mark.parametrize("n,ratio", [(1, 2), (2, 6), (3, 20)])
def test_indicatrix_to_lift_ratio(n, ratio):
    assert oracle.sigma(n) / oracle.scaled_log_slice(n, 1.0) == pytest.approx(ratio, rel=1e-14)


@pytest.mark.parametrize("alpha", [(0, 0), (1, 0), (2, 3), (0, 8), (4, 4)])
def test_gram_diagonal(alpha):
    """pi^2 int_(s1 + s2 < 1) s1^a1 s2^a2 (1 - s1 - s2)^2 ds with s_i = |z_i|^2."""
    a1, a2 = alpha
    with mpmath.workdps(DPS):
        value = mpmath.pi**2 * mpmath.quad(
            lambda s1: mpmath.quad(
                lambda s2: s1**a1 * s2**a2 * (1 - s1 - s2) ** 2, [0, 1 - s1]
            ),
            [0, 1],
        )
    assert oracle.gram_diagonal(alpha) == pytest.approx(float(value), rel=1e-14)
