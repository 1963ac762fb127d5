"""The benchmark's workloads: inputs made from a seed, the operations timed,
and the checks every output must pass.

A workload runs in whole rounds of the same operations, each taking about
ROUND_SECONDS on the reference machine of the README.  ``round_ops(r)``
returns round r's operations as (label, run, check) triples: ``run()`` is the
timed call into holoext and ``check(result, outcome)`` compares its output
with values computed apart from holoext (``oracle``).  holoext is always
called through its module attributes, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

import oracle
from holoext import bergman, geometry, scenarios, weights

# A Monte Carlo estimate passes when it lies within HW_MULTIPLE of its 99%
# half-width (2.58 sigma) of the exact value: 7.7 sigma, so a correct program
# fails a check about once in 10^14.
HW_MULTIPLE = 3.0
# Quadrature values against closed forms; they agree to 3e-12 or better on
# every input here.
QUAD_RTOL = 1e-9


@dataclass
class Outcome:
    """Failed checks of one operation and its Monte Carlo error terms."""

    failures: list = field(default_factory=list)
    mc_rel_hw2: list = field(default_factory=list)  # (half-width / exact)^2

    def require(self, label, ok):
        if not ok:
            self.failures.append(label)

    def close(self, label, value, target, rtol):
        self.require(
            f"{label}: {value!r} vs {target!r} (rtol {rtol:g})",
            abs(value - target) <= rtol * abs(target),
        )

    def within_half_width(self, label, value, half_width, target):
        self.require(
            f"{label}: {value!r} vs {target!r} (99% half-width {half_width:.3g})",
            abs(value - target) <= HW_MULTIPLE * half_width,
        )
        self.mc_rel_hw2.append((half_width / target) ** 2)


def _scenario(name, params, samples=None, seed=None):
    return scenarios.ScenarioConfig(scenario=name, params=params, samples=samples, seed=seed)


def _values(report):
    return {v.name: v for v in report.values}


# ---------------------------------------------------------------------------
# mc_scenarios: the Monte Carlo scenarios of the verification battery
# ---------------------------------------------------------------------------

# (label, scenario, params, samples, exact value) at the battery's budgets.
MC_SCENARIOS = (
    ("scaling_ball_pair", "scaling_limit",
     {"model": "ball_pair", "n": 2, "k": 2, "t_ladder": [-4, -8, -12]},
     10_000_000, oracle.ball_pair_level(2, 2)),
    ("scaling_ball_point", "scaling_limit",
     {"model": "ball_point", "n": 2, "t_ladder": [-4, -8, -12]},
     10_000_000, oracle.ball_point_level(2)),
    ("fubini_k1", "fubini_identity",
     {"profile": "log_singular", "k": 1, "z2_norm": 0.0},
     2_000_000, oracle.scaled_log_slice(1, 1.0)),
    ("fubini_k2", "fubini_identity",
     {"profile": "log_singular", "k": 2, "z2_norm": 0.0},
     8_000_000, oracle.scaled_log_slice(2, 1.0)),
    ("fubini_scaled_offcenter", "fubini_identity",
     {"profile": {"kind": "scaled_log", "a": 0.5}, "k": 2, "z2_norm": 0.3},
     4_000_000, oracle.scaled_log_slice(2, 0.5, 0.3)),
    ("bound_ratio", "bound_ratio", {"n": 2}, 1_000_000, oracle.ball_weight_integral(2)),
)
WARMUP_SAMPLES = 20_000


def _check_mc(kind, exact):
    def check(report, out):
        out.require("report passes", report.passed)
        vals = _values(report)
        if kind == "scaling_limit":
            for name, v in vals.items():
                if name.startswith("scaled_volume_t="):
                    out.within_half_width(name, v.value, v.error, exact)
        elif kind == "fubini_identity":
            out.close("slice_integral", vals["slice_integral"].value, exact, QUAD_RTOL)
            out.close("fiber_integral", vals["fiber_integral"].value, exact, QUAD_RTOL)
            v = vals["lift_volume_over_sigma_k"]
            out.within_half_width(v.name, v.value, v.error, exact)
        else:
            out.close("bound_ratio", vals["bound_ratio"].value, exact, 1e-12)
            out.close("ball_weight_integral", vals["ball_weight_integral"].value, exact, QUAD_RTOL)
            v = vals["ball_weight_integral_mc"]
            out.within_half_width(v.name, v.value, v.error, exact)

    return check


class McScenarios:
    """Round r runs every battery Monte Carlo scenario with seed ``seed + r``."""

    ROUND_SECONDS = 21.0  # typical round wall on the reference machine (README)

    def __init__(self, seed):
        self.seed = seed

    def warm_up(self):
        for _, kind, params, _, _ in MC_SCENARIOS:
            scenarios.run_scenario(_scenario(kind, params, WARMUP_SAMPLES, self.seed - 1))

    def round_ops(self, r):
        return [
            (
                label,
                lambda c=_scenario(kind, params, samples, self.seed + r): scenarios.run_scenario(c),
                _check_mc(kind, exact),
            )
            for label, kind, params, samples, exact in MC_SCENARIOS
        ]


# ---------------------------------------------------------------------------
# radial_grid: radial least-norm extensions and bound comparisons, V a point
# ---------------------------------------------------------------------------

# (label, profile spec, exact minimal norm^2 on the ball of C^n as f(n))
RADIAL_PROFILES = (
    ("log_singular", "log_singular", lambda n: oracle.scaled_log_slice(n, 1.0)),
    ("scaled_log_a0.5", {"kind": "scaled_log", "a": 0.5}, lambda n: oracle.scaled_log_slice(n, 0.5)),
    ("scaled_log_a2", {"kind": "scaled_log", "a": 2.0}, lambda n: oracle.scaled_log_slice(n, 2.0)),
    ("eps0.1", {"kind": "epsilon_regularized", "eps": 0.1},
     lambda n: oracle.epsilon_minimal_norm(n, 0.1)),
    ("eps0.1_over_scaled_log_a0.5",
     {"kind": "epsilon_regularized", "eps": 0.1, "inner": {"kind": "scaled_log", "a": 0.5}},
     lambda n: oracle.mixed_minimal_norm(n, 0.5, 0.1)),
)
# Degree 12 for n <= 2 takes the grid past 100 runs, so op_p90_s has at
# least ten runs beyond it.
RADIAL_DEGREES = {1: (6, 8, 10, 12), 2: (6, 8, 10, 12), 3: (6, 8, 10)}
RADIAL_GRID = tuple(
    (kind, n, degree, label)
    for kind in ("radial_minimal", "bound_comparison")
    for n in (1, 2, 3)
    for degree in RADIAL_DEGREES[n]
    for label, _, _ in RADIAL_PROFILES
)


def _check_radial(kind, n, label, exact):
    def check(report, out):
        out.require("report passes", report.passed)
        vals = _values(report)
        out.close("minimal_norm_squared", vals["minimal_norm_squared"].value, exact, QUAD_RTOL)
        out.close("lift_route_bound", vals["lift_route_bound"].value, exact, QUAD_RTOL)
        if kind == "radial_minimal":
            coarse = vals["minimal_norm_squared_coarser"].value
            out.close("minimal_norm_squared_coarser", coarse, exact, QUAD_RTOL)
        else:
            direct = vals["indicatrix_bound"].value
            out.close("indicatrix_bound", direct, oracle.sigma(n), 1e-12)
            if label == "log_singular":
                ratio = direct / vals["lift_route_bound"].value
                out.close("indicatrix_over_lift", ratio, math.comb(2 * n, n), QUAD_RTOL)

    return check


class RadialGrid:
    """Every round runs the whole grid in an order drawn from the seed."""

    ROUND_SECONDS = 15.0

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.specs = {label: spec for label, spec, _ in RADIAL_PROFILES}
        self.exact = {
            (label, n): exact(n) for label, _, exact in RADIAL_PROFILES for n in (1, 2, 3)
        }

    def _config(self, kind, n, degree, label):
        params = {"n": n, "k": n, "profile": self.specs[label], "degree": degree}
        return _scenario(kind, params)

    def warm_up(self):
        for label in self.specs:
            for kind in ("radial_minimal", "bound_comparison"):
                scenarios.run_scenario(self._config(kind, 1, 2, label))

    def round_ops(self, r):
        order = self.rng.sample(RADIAL_GRID, len(RADIAL_GRID))
        return [
            (
                f"{kind}_n{n}_d{degree}_{label}",
                lambda c=self._config(kind, n, degree, label): scenarios.run_scenario(c),
                _check_radial(kind, n, label, self.exact[(label, n)]),
            )
            for kind, n, degree, label in order
        ]


# ---------------------------------------------------------------------------
# mc_gram: Monte Carlo Gram assembly, least-norm solve and kernel diagonal
# ---------------------------------------------------------------------------

GRAM_DEGREE = 8
GRAM_SAMPLES = 500_000
GRAM_LADDER = 4  # assemblies per round


class McGram:
    """Round r assembles the C^2 ball Gram matrix under phi = 2u(log|z|^2),
    u log-singular, at seeds seed + 4r .. seed + 4r + 3."""

    ROUND_SECONDS = 4.2

    def __init__(self, seed):
        self.seed = seed
        self.domain = geometry.Ball(radius=1.0, dim=2)
        self.weight = weights.RadialWeight(weights.LogSingularProfile(), 2)
        self.basis = bergman.MultiIndexBasis(2, GRAM_DEGREE, 2)
        self.exact = np.diag([oracle.gram_diagonal(a) for a in self.basis.indices])

    def _op(self, samples, seed):
        gram = bergman.gram_matrix(
            self.domain, self.weight, self.basis, method="monte_carlo", samples=samples, seed=seed
        )
        extension = bergman.min_norm_extension({(): 1.0}, gram)
        kernel = bergman.kernel_diag_at(gram, np.zeros(2))
        return gram, extension, kernel

    def _check(self, result, out):
        gram, extension, kernel = result
        half = gram.half_widths
        off = np.abs(gram.matrix - self.exact) > HW_MULTIPLE * half
        out.require(f"{int(off.sum())} Gram entries outside {HW_MULTIPLE:g} half-widths", not off.any())
        diag = np.diag(self.exact)
        out.mc_rel_hw2.extend((np.diag(half) / diag) ** 2)
        out.require(
            f"constraint residual {extension.constraint_residual!r}",
            extension.constraint_residual <= 1e-10,
        )
        g00 = float(gram.matrix[0, 0].real)
        out.require(
            f"minimal norm^2 {extension.norm_squared!r} above G_00 {g00!r}",
            extension.norm_squared <= g00 * (1.0 + 1e-12),
        )
        out.close("1/K(0,0)", 1.0 / kernel, extension.norm_squared, 1e-9)

    def warm_up(self):
        self._op(WARMUP_SAMPLES, self.seed - 1)

    def round_ops(self, r):
        seeds = range(self.seed + GRAM_LADDER * r, self.seed + GRAM_LADDER * (r + 1))
        return [
            (f"gram_seed{s}", lambda s=s: self._op(GRAM_SAMPLES, s), self._check)
            for s in seeds
        ]


WORKLOADS = {"mc_scenarios": McScenarios, "radial_grid": RadialGrid, "mc_gram": McGram}
