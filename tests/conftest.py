import math

import numpy as np

from holoext.weights import RadialProfile

ACCEPTANCE_LINES = []


class ZeroProfile(RadialProfile):
    """u = 0, a test-only profile: RadialWeight(ZeroProfile(), n) is the
    trivial weight on the unit ball of C^n, whose radial factor 1 has the
    exponents (0, 1)."""

    exponents = (0.0, 1.0)

    def value(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)


def checked_azukawa(model, base_point, direction) -> float:
    """A(X) from ``model.azukawa_form``, checked against the finite-scale
    quotients G(a X/|X|, v) - log a at a in {1e-2, 1e-3, 1e-4}: each must lie
    within 1e-6 of A at the unit direction."""
    value = model.azukawa_form(base_point).evaluate(direction)
    x = np.asarray(direction, dtype=complex).ravel()
    unit = x / float(np.linalg.norm(x))
    target = value - math.log(float(np.linalg.norm(x)))  # A at the unit direction
    for lam in (1e-2, 1e-3, 1e-4):
        probe = model.green(model.embed(lam * unit, base_point)) - math.log(lam)
        assert abs(probe - target) <= 1e-6, (
            f"directional limit at scale {lam} drifted from the closed form "
            f"by {abs(probe - target):.3e}"
        )
    return value


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
