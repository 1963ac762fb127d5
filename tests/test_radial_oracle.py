"""The radial Gram diagonal and the lift-route fiber integral against 30-digit
references (``radial_oracle``), by the Gauss–Jacobi ladder and by the
adaptive rule, and the two sides of the slice/fiber identity, which are these
two integrals on B^k."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import radial_oracle as ro

from holoext import integrate
from holoext.bergman import MultiIndexBasis, gram_matrix
from holoext.bounds import ExtensionScenario, fubini_sides, lift_route_rhs, minimal_norm_squared
from holoext.geometry import Ball
from holoext.green import RadialLiftModel
from holoext.integrate import radial_integrate
from holoext.weights import (
    EpsilonRegularizedProfile,
    LogSingularProfile,
    RadialProfile,
    RadialWeight,
    ScaledLogProfile,
)

RTOL = 1e-12
CATALOG = {
    "log_singular": LogSingularProfile(),
    "scaled_log_a0.5": ScaledLogProfile(0.5),
    "scaled_log_a2": ScaledLogProfile(2.0),
    "eps0.1": EpsilonRegularizedProfile(LogSingularProfile(), 0.1),
    "eps0.1_over_scaled_log_a0.5": EpsilonRegularizedProfile(ScaledLogProfile(0.5), 0.1),
}
CASES = [(label, k) for label in CATALOG for k in (1, 2, 3)]


@dataclass(frozen=True)
class _Undeclared(RadialProfile):
    """A catalog profile that declares no exponents, so its radial integrals
    run the adaptive rule on the same values."""

    inner: RadialProfile

    def value(self, t):
        return self.inner.value(t)

    def derivative(self, t):
        return self.inner.derivative(t)

    def inverse(self, s):
        return self.inner.inverse(s)


def test_oracle_matches_the_closed_forms():
    # eps = 0: both are mu_k/2 a B(ka, ka + 1); a = 1: the Gram entry is
    # mu_k/2 B(k, k(1 + eps) + 1) and the fiber mu_k/2 (1 + eps) B(k + 1, k(1 + eps))
    for label, (a, eps) in ro.PROFILES.items():
        for k in (1, 2, 3):
            half_mu = math.pi**k / math.factorial(k - 1)
            if eps == 0.0:
                gram = fiber = half_mu * a * ro.beta(k * a, k * a + 1)
            elif a == 1.0:
                gram = half_mu * ro.beta(k, k * (1 + eps) + 1)
                fiber = half_mu * (1 + eps) * ro.beta(k + 1, k * (1 + eps))
            else:
                continue
            assert ro.gram_diagonal(k, 0, a, eps) == pytest.approx(gram, rel=1e-14), (label, k)
            assert ro.lift_fiber(k, a, eps) == pytest.approx(fiber, rel=1e-14), (label, k)


@pytest.mark.parametrize("label, k", CASES)
def test_radial_gram_diagonal_matches_the_oracle(monkeypatch, label, k):
    bisected = []
    adaptive = integrate.adaptive_gauss

    def counted(*args, **kwargs):
        bisected.append(kwargs.get("rules") is None)
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(integrate, "adaptive_gauss", counted)
    basis = MultiIndexBasis(k, 6, k)
    for profile, rule_is_adaptive in ((CATALOG[label], False), (_Undeclared(CATALOG[label]), True)):
        bisected.clear()
        gram = gram_matrix(Ball(1.0, k), RadialWeight(profile, k), basis)
        # every quadrature bisects, or none does
        assert set(bisected) == {rule_is_adaptive}
        for m1 in (0, 6):
            i = basis.indices.index((m1,) + (0,) * (k - 1))
            exact = ro.gram_diagonal(k, m1, *ro.PROFILES[label])
            assert gram.matrix[i, i].real == pytest.approx(exact, rel=RTOL), (rule_is_adaptive, m1)


@pytest.mark.parametrize("label, k", CASES)
def test_lift_fiber_integral_matches_the_oracle(label, k):
    exact = ro.lift_fiber(k, *ro.PROFILES[label])
    rule = RadialLiftModel(CATALOG[label], k, k).fiber_integral()
    assert (rule.method, rule.converged) == ("gauss-jacobi", True)
    assert rule.value == pytest.approx(exact, rel=RTOL)
    # the adaptive rule misses 1e-12 at eps = 0.1, k = 1 (2.2e-12), inside its own residual
    adaptive = RadialLiftModel(_Undeclared(CATALOG[label]), k, k).fiber_integral()
    assert adaptive.method == "adaptive-quadrature"
    assert abs(adaptive.value - exact) <= max(RTOL * exact, adaptive.error_estimate)


@pytest.mark.parametrize("z2_norm", [0.0, 0.3])
@pytest.mark.parametrize("label, k", [(label, k) for label in CATALOG for k in (1, 2)])
def test_fubini_sides_are_the_extension_pair(label, k, z2_norm):
    # the slice side is the least norm of f = 1 and the fiber side the lift
    # route, with V a point, both times (1 - z2^2)^k
    lhs, rhs = fubini_sides(CATALOG[label], k, z2_norm)
    s = (1.0 - z2_norm**2) ** k
    assert lhs.value == pytest.approx(s * ro.gram_diagonal(k, 0, *ro.PROFILES[label]), rel=RTOL)
    assert rhs.value == pytest.approx(s * ro.lift_fiber(k, *ro.PROFILES[label]), rel=RTOL)
    if z2_norm == 0.0:
        scenario = ExtensionScenario(k, k, CATALOG[label], degree=0)
        assert lhs.value == minimal_norm_squared(scenario).norm_squared
        assert rhs.value == lift_route_rhs(scenario).value


def test_non_integrable_exponent_evaluates_nothing():
    def g(r):
        raise AssertionError("evaluated")

    quad = radial_integrate(g, 1, exponents=(-1.0, 1.0))
    assert (quad.value, quad.converged, quad.samples_or_nodes) == (math.inf, False, 0)
    assert "non-integrable" in quad.note


def test_tiny_weights_keep_their_relative_precision():
    # at a = eps = 10 the entries with |alpha'| = 7 are 1e-15 of the first and
    # sit where the Jacobi weights are below 1e-100; squared eigenvector
    # components would carry them to only 3e-10
    profile = EpsilonRegularizedProfile(ScaledLogProfile(10.0), 10.0)
    basis = MultiIndexBasis(2, 8, 1)
    rule = gram_matrix(Ball(1.0, 2), RadialWeight(profile, 1), basis)
    adaptive = gram_matrix(Ball(1.0, 2), RadialWeight(_Undeclared(profile), 1), basis)
    np.testing.assert_allclose(rule.matrix.diagonal(), adaptive.matrix.diagonal(), rtol=1e-12)


def test_a_tiny_power_runs_the_adaptive_rule():
    # at a = 1e-10 every node y^a rounds to within about 1e-6 relative of
    # 1 - r, so the ladder would settle 8e-8 low; u vanishes but near t = 0,
    # so the fiber integral is the area of the unit disc
    fiber = RadialLiftModel(ScaledLogProfile(1e-10), 1, 1).fiber_integral()
    assert fiber.method == "adaptive-quadrature"
    assert fiber.value == pytest.approx(math.pi, rel=1e-12)


def _scaled_log_gram_entry(k, alpha, a):
    """<z^alpha, z^alpha> on B^k for the weight k u(log |z|^2), u scaled_log a:
    (k-1)! alpha! / (k-1+|alpha|)! * pi^k/(k-1)! * a B(a(|alpha| + k), ka + 1).
    math.gamma is finite on this test's arguments (below 141) and within 1e-15
    there, where exp of lgamma differences loses up to 9e-14."""
    x, y = a * (sum(alpha) + k), k * a + 1.0
    moment = math.prod(math.factorial(v) for v in alpha) / math.factorial(k - 1 + sum(alpha))
    return moment * math.pi**k * a * math.gamma(x) * math.gamma(y) / math.gamma(x + y)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("a", [0.05, 0.1, 0.3, 0.5, 2.0, 5.0, 10.0])
def test_scaled_log_gram_never_bisects(monkeypatch, a, k):
    # power max(a, 1) keeps r^(2 |alpha|) a polynomial in the rule's variable
    bisected = []
    adaptive = integrate.adaptive_gauss

    def counted(*args, **kwargs):
        bisected.append(kwargs.get("rules") is None)
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(integrate, "adaptive_gauss", counted)
    basis = MultiIndexBasis(k, 8, k)
    gram = gram_matrix(Ball(1.0, k), RadialWeight(ScaledLogProfile(a), k), basis)
    assert bisected and not any(bisected)
    assert gram.basis.indices == basis.indices
    for i, alpha in enumerate(basis.indices):
        exact = _scaled_log_gram_entry(k, alpha, a)
        assert gram.matrix[i, i].real == pytest.approx(exact, rel=1e-13, abs=0.0), alpha
