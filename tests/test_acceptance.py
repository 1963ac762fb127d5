"""Acceptance suite: every criterion at its stated tolerance.

Each test evaluates one criterion end to end, asserts the pinned tolerances
and runtime budget, and records a one-line PASS/FAIL summary that is printed
in the terminal summary block at the end of the session.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import record_acceptance
from holoext.bergman import MultiIndexBasis, gram_matrix
from holoext.bounds import (
    ExtensionScenario,
    ball_bound_integral_mc,
    ball_bound_integral,
    ball_bound_ratio,
    indicatrix_bound_rhs,
    lift_route_rhs,
    minimal_norm_squared,
    sigma_mu,
)
from holoext.geometry import Ball
from holoext.green import (
    BallPairModel,
    BallPointModel,
    RadialLiftModel,
    azukawa,
    sublevel_scaling,
)
from holoext.integrate import fubini_mc_oracle, fubini_sides, volume
from holoext.weights import (
    BallStandardWeight,
    LogSingularProfile,
    RadialWeight,
    ScaledLogProfile,
    TrivialWeight,
)

PI = math.pi
SEED = 2026


def _point_scenario(n):
    """Unit ball of C^n, V = {0}, phi = n u(log |z|^2) with u log-singular, f = 1."""
    return ExtensionScenario(ambient_dim=n, codim=n, profile=LogSingularProfile())


@contextmanager
def criterion(num, label):
    detail = {}
    start = time.perf_counter()
    try:
        yield detail
    except BaseException:
        record_acceptance(f"criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    extra = detail.get("summary", "")
    record_acceptance(
        f"criterion {num} ({label}): PASS  [{elapsed:.1f} s]" + (f"  {extra}" if extra else "")
    )


def test_criterion_1_fubini_identity():
    with criterion(1, "slice/fiber integral identity") as detail:
        start = time.perf_counter()
        targets = {1: PI / 2, 2: PI**2 / 12}
        samples = {1: 2_000_000, 2: 8_000_000}
        for k, target in targets.items():
            lhs, rhs = fubini_sides(LogSingularProfile(), k, 0.0)
            assert abs(lhs.value - target) <= 1e-6 * target
            assert abs(rhs.value - target) <= 1e-6 * target
            oracle = fubini_mc_oracle(LogSingularProfile(), k, 0.0, samples[k], SEED)
            assert abs(oracle.value - target) <= 0.01 * target
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        detail["summary"] = "pi/2 and pi^2/12 to 1e-6; MC oracle within 1%"


def test_criterion_2_example_constants():
    with criterion(2, "ball example constants") as detail:
        start = time.perf_counter()
        exact = PI**2 / 12
        assert abs(ball_bound_ratio(2) - exact) <= 1e-12
        ratios = [ball_bound_ratio(n) for n in range(2, 7)]
        assert all(r < 1.0 for r in ratios)
        assert ball_bound_ratio(1) >= 1.0
        quad = ball_bound_integral(2)
        mc = ball_bound_integral_mc(2, 1_000_000, SEED)
        assert abs(mc.value - quad.value) <= 0.01 * quad.value
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        detail["summary"] = "ratio(2) = pi^2/12 to 1e-12; MC within 1% of quadrature"


def test_criterion_3_radial_minimal_extension():
    with criterion(3, "radial least-norm extension") as detail:
        start = time.perf_counter()
        for n, target in ((1, PI / 2), (2, PI**2 / 12)):
            result = minimal_norm_squared(_point_scenario(n), degree=8)
            assert result.max_pole_coefficient < 1e-8
            assert abs(result.norm_squared - target) <= 1e-6 * target
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        detail["summary"] = "flat extensions; norms pi/2 and pi^2/12 to 1e-6"


def test_criterion_4_sharpness_chain():
    with criterion(4, "strict bound improvement") as detail:
        for n, factor in ((1, 2.0), (2, 6.0)):
            scenario = _point_scenario(n)
            lift = lift_route_rhs(scenario)
            minimal = minimal_norm_squared(scenario, degree=8).norm_squared
            assert abs(minimal - lift) <= 1e-6 * lift
            ratio = indicatrix_bound_rhs(scenario) / lift
            assert abs(ratio - factor) <= 1e-9 * factor
        detail["summary"] = "lift bound attained; direct bound exceeds by 2 and 6"


def test_criterion_5_sublevel_scaling():
    with criterion(5, "sublevel volume scaling") as detail:
        start = time.perf_counter()
        ones = lambda pts: np.ones(len(pts))
        point_model = BallPointModel(2)
        sigma_2, _ = sigma_mu(2)
        for t in (-4.0, -8.0, -12.0):
            res = sublevel_scaling(point_model, ones, t, 10_000_000, SEED)
            assert abs(res.value - sigma_2) <= 0.01 * sigma_2
        pair_model = BallPairModel(pole_dim=2, base_dim=2)
        limit = PI**4 / 24
        res = sublevel_scaling(pair_model, ones, -8.0, 10_000_000, SEED)
        assert abs(res.value - limit) <= 0.05 * limit
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        detail["summary"] = "sigma_2 within 1% at t = -4, -8, -12; pi^4/24 within 5%"


def test_criterion_6_property_suites():
    with criterion(6, "model property suites") as detail:
        models = [
            BallPointModel(2),
            BallPairModel(1, 1),
            BallPairModel(2, 2),
            RadialLiftModel(LogSingularProfile(), 1, 1),
            RadialLiftModel(ScaledLogProfile(a=0.5), 1, 1),
        ]
        rng = np.random.default_rng(SEED)

        # Green negativity on 1e5 interior samples per model
        for model in models:
            domain = model.domain()
            radii = domain.bounding_radii()
            pts = []
            while sum(len(p) for p in pts) < 100_000:
                block = rng.uniform(-1, 1, (200_000, 2 * len(radii)))
                cand = (block[:, : len(radii)] + 1j * block[:, len(radii) :]) * radii
                pts.append(cand[domain.contains_batch(cand)])
            sample = np.concatenate(pts)[:100_000]
            assert np.all(model.green_batch(sample) < 0.0)

        # circle sub-mean property
        theta = 2 * PI * np.arange(64) / 64
        for model in models:
            domain = model.domain()
            checked = 0
            while checked < 20:
                radii = domain.bounding_radii()
                block = rng.uniform(-1, 1, (500, 2 * len(radii)))
                cand = (block[:, : len(radii)] + 1j * block[:, len(radii) :]) * radii
                cand = cand[domain.contains_batch(cand)]
                for p in cand:
                    if checked >= 20:
                        break
                    v = rng.normal(size=len(p)) + 1j * rng.normal(size=len(p))
                    v /= np.linalg.norm(v)
                    circle = p[None, :] + 0.02 * np.outer(np.exp(1j * theta), v)
                    if not domain.contains_batch(circle).all():
                        continue
                    center = model.green(p)
                    if not np.isfinite(center):
                        continue
                    assert center <= np.mean(model.green_batch(circle)) + 1e-6
                    checked += 1

        # Azukawa homogeneity and finite-scale limit agreement at 1e-4
        for model in models:
            base_len = model.ambient_dim - model.pole_dim
            base = 0.3 * np.ones(base_len, dtype=complex) if base_len else ()
            x = rng.normal(size=model.pole_dim) + 1j * rng.normal(size=model.pole_dim)
            value = azukawa(model, base, x, verify=True)
            doubled = azukawa(model, base, 2.0 * x)
            assert abs(doubled - value - math.log(2)) < 1e-12

        # Gram matrices: Hermitian positive definite, radial ones diagonal
        for weight in (TrivialWeight(), RadialWeight(LogSingularProfile(), 1), BallStandardWeight(2)):
            dim = 2
            basis = MultiIndexBasis(dim, 5, min(getattr(weight, "pole_dim", 1) or 1, dim))
            gram = gram_matrix(Ball(1.0, dim), weight, basis)
            assert np.allclose(gram.matrix, gram.matrix.conj().T)
            assert np.all(np.linalg.eigvalsh(gram.matrix) > 0.0)
            off_diagonal = gram.matrix - np.diag(np.diag(gram.matrix))
            assert np.all(off_diagonal == 0.0)

        # Monte Carlo determinism per seed
        a = volume(Ball(1.0, 2), 200_000, seed=7)
        b = volume(Ball(1.0, 2), 200_000, seed=7)
        assert a.value == b.value and a.error_estimate == b.error_estimate

        detail["summary"] = "negativity, sub-mean, homogeneity, Gram, determinism"
