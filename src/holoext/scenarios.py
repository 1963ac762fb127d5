"""Named verification scenarios with reproducible pass/fail reports.

Each scenario evaluates a family of quantities (quadratures, Monte Carlo
estimates, solver outputs, closed forms) and checks a fixed set of assertions
at pinned tolerances.  Reports are deterministic: re-running a configuration
with the same seed reproduces every numeric field bit for bit; only the wall
clock differs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._version import __version__
from .bounds import (
    ExtensionScenario,
    _fiber_integral,
    build_bound_report,
    ball_bound_integral_mc,
    ball_bound_integral,
    ball_bound_ratio,
    lift_route_rhs,
    minimal_norm_squared,
)
from .errors import ConfigError
from .green import BallPairModel, BallPointModel, RadialLiftModel, sublevel_scaling
from .integrate import fubini_mc_oracle, fubini_sides, sigma_mu
from .weights import LogSingularProfile, RadialProfile, make_profile

__all__ = [
    "ScenarioConfig",
    "Report",
    "ValueRecord",
    "AssertionRecord",
    "SCENARIO_SPECS",
    "run_scenario",
    "catalog_text",
]


@dataclass(frozen=True)
class ValueRecord:
    name: str
    value: float
    error: float
    provenance: str


@dataclass(frozen=True)
class AssertionRecord:
    name: str
    passed: bool
    lhs: float
    rhs: float
    tol: float


@dataclass
class ScenarioConfig:
    """One scenario invocation: name, parameters, sampling budget, seed."""

    scenario: str
    params: dict = field(default_factory=dict)
    samples: int | None = None
    seed: int | None = None
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, data) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {"scenario", "params", "samples", "seed", "tolerances"}
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        if not isinstance(data.get("scenario"), str):
            raise ConfigError("config field 'scenario' is required and must be a name")
        for name in ("params", "tolerances"):
            if not isinstance(data.get(name, {}), dict):
                raise ConfigError(f"config field {name!r} must be a mapping")
        return cls(
            scenario=data["scenario"],
            params=dict(data.get("params", {})),
            samples=data.get("samples"),
            seed=data.get("seed"),
            tolerances=dict(data.get("tolerances", {})),
        )


@dataclass
class Report:
    """Computed values, assertion outcomes, and reproducibility metadata."""

    scenario: str
    params: dict
    values: list
    assertions: list
    seed: int | None
    version: str
    wall_clock_s: float

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def body_dict(self) -> dict:
        """Deterministic report body; excludes the wall clock."""
        return {
            "scenario": self.scenario,
            "params": self.params,
            "values": [
                {
                    "name": v.name,
                    "value": v.value,
                    "error": v.error,
                    "provenance": v.provenance,
                }
                for v in self.values
            ],
            "assertions": [
                {
                    "name": a.name,
                    "pass": a.passed,
                    "lhs": a.lhs,
                    "rhs": a.rhs,
                    "tol": a.tol,
                }
                for a in self.assertions
            ],
            "seed": self.seed,
            "version": self.version,
        }

    def to_json(self) -> str:
        payload = self.body_dict()
        payload["wall_clock_s"] = self.wall_clock_s
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_table(self) -> str:
        lines = [
            f"scenario: {self.scenario}   seed: {self.seed}   version: {self.version}",
            "params:   " + ", ".join(f"{k}={v}" for k, v in sorted(self.params.items())),
            "",
            f"{'value':34s} {'estimate':>22s} {'error':>12s}  provenance",
        ]
        for v in self.values:
            lines.append(
                f"{v.name:34s} {v.value:>22.15g} {v.error:>12.3e}  {v.provenance}"
            )
        lines.append("")
        lines.append(f"{'assertion':34s} {'pass':>5s} {'lhs':>22s} {'rhs':>22s} {'tol':>10s}")
        for a in self.assertions:
            lines.append(
                f"{a.name:34s} {'yes' if a.passed else 'NO':>5s} "
                f"{a.lhs:>22.15g} {a.rhs:>22.15g} {a.tol:>10.1e}"
            )
        lines.append("")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        lines.append(f"wall clock: {self.wall_clock_s:.3f} s")
        return "\n".join(lines)


def _close(name, value, target, rtol) -> AssertionRecord:
    scale = max(abs(target), 1e-300)
    return AssertionRecord(
        name=name,
        passed=bool(abs(value - target) <= rtol * scale),
        lhs=float(value),
        rhs=float(target),
        tol=float(rtol),
    )


def _below(name, value, limit, slack=0.0) -> AssertionRecord:
    return AssertionRecord(
        name=name,
        passed=bool(value <= limit + slack),
        lhs=float(value),
        rhs=float(limit),
        tol=float(slack),
    )


def _resolve(config: ScenarioConfig):
    if config.scenario not in SCENARIO_SPECS:
        raise ConfigError(
            f"unknown scenario {config.scenario!r}; choose one of "
            f"{sorted(SCENARIO_SPECS)}"
        )
    entry = SCENARIO_SPECS[config.scenario]
    params = dict(entry["defaults"])
    unknown = set(config.params) - set(entry["params"])
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {sorted(unknown)} for scenario "
            f"{config.scenario!r}; supported: {sorted(entry['params'])}"
        )
    params.update(config.params)
    samples = config.samples if config.samples is not None else entry["default_samples"]
    seed = config.seed
    if seed is None and entry["needs_seed"]:
        raise ConfigError(f"scenario {config.scenario!r} samples; field 'seed' is required")
    if seed is not None and not _is_int(seed):
        raise ConfigError(f"field 'seed' must be an integer, got {seed!r}")
    least = 1 if entry["needs_seed"] else 0
    if not (_is_int(samples) and samples >= least):
        raise ConfigError(f"field 'samples' must be an integer >= {least}, got {samples!r}")
    tol = dict(entry["tolerances"])
    for name, value in config.tolerances.items():
        if name not in tol:
            raise ConfigError(f"unknown tolerance {name!r}; supported: {sorted(tol)}")
        if not (_is_finite_real(value) and value >= 0):
            raise ConfigError(f"tolerance {name!r} must be a finite real >= 0, got {value!r}")
        tol[name] = float(value)
    return params, samples, seed, tol


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_finite_real(x) -> bool:
    return _is_int(x) or (isinstance(x, (float, np.floating)) and math.isfinite(x))


def _positive_int(params, name: str, default=None) -> int:
    value = params.get(name, default)
    if not (_is_int(value) and value >= 1):
        raise ConfigError(f"parameter {name!r} must be an integer >= 1, got {value!r}")
    return int(value)


def _profile(spec):
    if not isinstance(spec, (str, dict, RadialProfile)):
        raise ConfigError(f"parameter 'profile' must be a name or a mapping, got {spec!r}")
    try:
        return make_profile(spec)
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"parameter 'profile': {exc}")


# ---------------------------------------------------------------------------
# Scenario bodies
# ---------------------------------------------------------------------------


def _run_fubini(params, samples, seed, tol):
    profile = _profile(params["profile"])
    k = _positive_int(params, "k")
    z2 = params["z2_norm"]
    if not (_is_finite_real(z2) and 0 <= z2 < 1):
        raise ConfigError(f"parameter 'z2_norm' must be a finite real in [0, 1), got {z2!r}")
    z2 = float(z2)
    lhs, rhs = fubini_sides(profile, k, z2)
    oracle = fubini_mc_oracle(profile, k, z2, samples, seed)
    values = [
        ValueRecord("slice_integral", lhs.value, lhs.error_estimate, "adaptive-quadrature"),
        ValueRecord("fiber_integral", rhs.value, rhs.error_estimate, "adaptive-quadrature"),
        ValueRecord("lift_volume_over_sigma_k", oracle.value, oracle.error_estimate, "monte-carlo"),
    ]
    assertions = [
        _close("identity_relative", rhs.value, lhs.value, tol["identity"]),
        _close("mc_oracle_relative", oracle.value, lhs.value, tol["mc"]),
    ]
    if isinstance(profile, LogSingularProfile):
        closed = (1.0 - z2**2) ** k * math.pi**k * math.factorial(k) / math.factorial(2 * k)
        values.append(ValueRecord("closed_form", closed, 0.0, "closed-form"))
        assertions.insert(
            1, _close("closed_form_relative", lhs.value, closed, tol["closed_form"])
        )
    return values, assertions


def _run_bound_ratio(params, samples, seed, tol):
    n = _positive_int(params, "n")
    ratio = ball_bound_ratio(n)
    exact = float(Fraction(math.factorial(n), math.factorial(2 * n))) * math.pi**n
    quad = ball_bound_integral(n)
    mc = ball_bound_integral_mc(n, samples, seed)
    values = [
        ValueRecord("bound_ratio", ratio, 0.0, "closed-form"),
        ValueRecord("ball_weight_integral", quad.value, quad.error_estimate, "adaptive-quadrature"),
        ValueRecord("ball_weight_integral_mc", mc.value, mc.error_estimate, "monte-carlo"),
    ]
    assertions = [
        _close("ratio_exact_arithmetic", ratio, exact, tol["exact"]),
        _close("ratio_equals_integral", quad.value, ratio, tol["quadrature"]),
        _close("mc_vs_quadrature", mc.value, quad.value, tol["mc"]),
    ]
    if n >= 2:
        assertions.append(_below("ratio_below_one", ratio, 1.0))
    else:
        assertions.append(_below("ratio_at_least_one", 1.0, ratio))
    return values, assertions


def _scenario_from_params(params) -> ExtensionScenario:
    n, k, degree = params["n"], params["k"], params["degree"]
    if not (_is_int(n) and _is_int(k) and 1 <= k <= n):
        raise ConfigError(
            f"parameters 'n' and 'k' must be integers with 1 <= k <= n, got n={n!r}, k={k!r}"
        )
    if not (_is_int(degree) and degree >= 0):
        raise ConfigError(f"parameter 'degree' must be an integer >= 0, got {degree!r}")
    return ExtensionScenario(
        name=f"ball{n}_codim{k}",
        ambient_dim=int(n),
        codim=int(k),
        profile=_profile(params["profile"]),
        degree=int(degree),
    )


_CLOSED_MINIMAL = {
    # (n, k) with the log-singular profile and f = 1
    (1, 1): math.pi / 2.0,
    (2, 2): math.pi**2 / 12.0,
}


def _run_radial_minimal(params, samples, seed, tol):
    scenario = _scenario_from_params(params)
    d = scenario.degree
    result = minimal_norm_squared(scenario)
    coarse = minimal_norm_squared(scenario, max(d - 2, 0))
    lift = lift_route_rhs(scenario)
    values = [
        ValueRecord("minimal_norm_squared", result.norm_squared, 0.0, "cholesky-elimination"),
        ValueRecord("minimal_norm_squared_coarser", coarse.norm_squared, 0.0, "cholesky-elimination"),
        ValueRecord("lift_route_bound", lift, 0.0, "adaptive-quadrature"),
        ValueRecord("max_pole_coefficient", result.max_pole_coefficient, 0.0, "cholesky-elimination"),
        ValueRecord("constraint_residual", result.constraint_residual, 0.0, "cholesky-elimination"),
    ]
    assertions = [
        _below("flat_extension", result.max_pole_coefficient, tol["pole_coeff"]),
        _below("constraints_satisfied", result.constraint_residual, tol["residual"]),
        _close("truncation_converged", coarse.norm_squared, result.norm_squared, tol["truncation"]),
    ]
    if scenario.codim == scenario.ambient_dim:
        # V is a point: the lift-route bound is attained by the flat extension
        assertions.insert(
            2,
            _close("norm_equals_lift_route", result.norm_squared, lift, tol["lift"]),
        )
    else:
        assertions.insert(
            2,
            _below(
                "norm_below_lift_route",
                result.norm_squared,
                lift,
                slack=tol["lift"] * lift,
            ),
        )
    key = (scenario.ambient_dim, scenario.codim)
    if isinstance(scenario.profile, LogSingularProfile) and key in _CLOSED_MINIMAL:
        target = _CLOSED_MINIMAL[key]
        values.append(ValueRecord("closed_form", target, 0.0, "closed-form"))
        assertions.append(
            _close("norm_closed_form", result.norm_squared, target, tol["closed_form"])
        )
    return values, assertions


def _run_bound_comparison(params, samples, seed, tol):
    scenario = _scenario_from_params(params)
    report = build_bound_report(scenario)
    values = [
        ValueRecord("minimal_norm_squared", report.minimal_norm_squared, 0.0, "cholesky-elimination"),
        ValueRecord("lift_route_bound", report.lift_route_bound, 0.0, "adaptive-quadrature"),
        ValueRecord("indicatrix_bound", report.indicatrix_bound, 0.0, "closed-form"),
        ValueRecord("strictness_margin", report.strictness_margin, 0.0, "closed-form"),
    ]
    rel = tol["ordering"]
    assertions = [
        _below(
            "minimal_below_lift_route",
            report.minimal_norm_squared,
            report.lift_route_bound,
            slack=rel * report.lift_route_bound,
        ),
        _below(
            "lift_route_below_indicatrix",
            report.lift_route_bound,
            report.indicatrix_bound,
            slack=1e-12 * report.indicatrix_bound,
        ),
        _below("strictly_sharper", 0.0, report.strictness_margin),
    ]
    key = (scenario.ambient_dim, scenario.codim)
    if isinstance(scenario.profile, LogSingularProfile) and key in _CLOSED_MINIMAL:
        factor = {(1, 1): 2.0, (2, 2): 6.0}[key]
        assertions.append(
            _close(
                "improvement_factor",
                report.indicatrix_bound / report.lift_route_bound,
                factor,
                tol["factor"],
            )
        )
    return values, assertions


def _scaling_model(params):
    kind = params["model"]
    n = _positive_int(params, "n")
    if kind == "ball_point":
        model = BallPointModel(n)
        return model, sigma_mu(n)[0]
    if kind == "ball_pair":
        k = _positive_int(params, "k", n)
        model = BallPairModel(pole_dim=k, base_dim=n)
        sigma_k, _ = sigma_mu(k)
        limit = (
            sigma_k
            * math.pi**n
            * math.factorial(k)
            / math.factorial(n + k)
        )
        return model, limit
    if kind == "radial_lift":
        k = _positive_int(params, "k", 1)
        profile = _profile(params.get("profile", "log_singular"))
        try:
            model = RadialLiftModel(profile=profile, pole_dim=k, base_dim=n)
        except ValueError as exc:
            raise ConfigError(f"parameters 'n' and 'k' of radial_lift: {exc}")
        sigma_k, _ = sigma_mu(k)
        base_factor = math.pi ** (n - k) / math.factorial(n - k)
        return model, base_factor * sigma_k * _fiber_integral(profile, k)
    raise ConfigError(
        f"unknown model {kind!r}; choose ball_point, ball_pair or radial_lift"
    )


def _run_scaling(params, samples, seed, tol):
    model, limit = _scaling_model(params)
    ladder = params["t_ladder"]
    if not (isinstance(ladder, list) and all(_is_finite_real(t) and t < 0 for t in ladder)):
        raise ConfigError(
            f"parameter 't_ladder' must be a list of finite negative reals, got {ladder!r}"
        )
    if not ladder:
        raise ConfigError("parameter 't_ladder' must not be empty")
    ladder = [float(t) for t in ladder]
    ones = lambda pts: np.ones(len(pts))
    values = [ValueRecord("limit_value", limit, 0.0, "closed-form")]
    results = []
    for t in ladder:
        r = sublevel_scaling(model, ones, t, samples, seed)
        results.append((t, r))
        values.append(
            ValueRecord(f"scaled_volume_t={t:g}", r.value, r.error_estimate, "monte-carlo")
        )
    exact_every_level = isinstance(model, BallPointModel)
    tol_each = tol["each_level"]
    tol_limit = tol["limit"]
    assertions = []
    if exact_every_level:
        for t, r in results:
            assertions.append(_close(f"matches_limit_t={t:g}", r.value, limit, tol_each))
    else:
        t_mid, r_mid = results[len(results) // 2]
        assertions.append(_close(f"matches_limit_t={t_mid:g}", r_mid.value, limit, tol_limit))
        for (t1, r1), (t2, r2) in zip(results, results[1:]):
            assertions.append(
                _close(f"stabilized_t={t1:g}_to_{t2:g}", r2.value, r1.value, tol_limit)
            )
    return values, assertions


SCENARIO_SPECS = {
    "fubini_identity": {
        "run": _run_fubini,
        "description": "slice integral of e^(-phi) vs fiber integral of e^(-2k psi)",
        "params": {
            "profile": "log_singular | {kind: scaled_log, a} | {kind: epsilon_regularized, eps}",
            "k": "codimension, 1..3",
            "z2_norm": "slice offset |z''| in [0, 1)",
        },
        "defaults": {"profile": "log_singular", "k": 1, "z2_norm": 0.0},
        "tolerances": {"identity": 1e-5, "closed_form": 1e-6, "mc": 1e-2},
        "default_samples": 2_000_000,
        "needs_seed": True,
    },
    "bound_ratio": {
        "run": _run_bound_ratio,
        "description": "lift-to-direct bound ratio pi^n n!/(2n)! on the standard ball",
        "params": {"n": "ball dimension, 1..6"},
        "defaults": {"n": 2},
        "tolerances": {"exact": 1e-12, "quadrature": 1e-9, "mc": 1e-2},
        "default_samples": 1_000_000,
        "needs_seed": True,
    },
    "radial_minimal": {
        "run": _run_radial_minimal,
        "description": "least-norm extension equals the flat extension for radial weights",
        "params": {
            "n": "ambient dimension",
            "k": "codimension (k <= n)",
            "profile": "radial profile id",
            "degree": "basis truncation degree",
        },
        "defaults": {"n": 1, "k": 1, "profile": "log_singular", "degree": 8},
        "tolerances": {
            "pole_coeff": 1e-8,
            "residual": 1e-10,
            "lift": 1e-6,
            "truncation": 1e-6,
            "closed_form": 1e-6,
        },
        "default_samples": 0,
        "needs_seed": False,
    },
    "bound_comparison": {
        "run": _run_bound_comparison,
        "description": "minimal norm vs lift-route vs direct indicatrix bound",
        "params": {
            "n": "ambient dimension",
            "k": "codimension (k <= n)",
            "profile": "radial profile id",
            "degree": "basis truncation degree",
        },
        "defaults": {"n": 2, "k": 2, "profile": "log_singular", "degree": 8},
        "tolerances": {"ordering": 1e-6, "factor": 1e-9},
        "default_samples": 0,
        "needs_seed": False,
    },
    "scaling_limit": {
        "run": _run_scaling,
        "description": "e^(-kt) * volume of the Green sublevel set {G < t/2}",
        "params": {
            "model": "ball_point | ball_pair | radial_lift",
            "n": "ball_point: ambient dim; ball_pair/radial_lift: base dim",
            "k": "pole dimension (ball_pair, radial_lift)",
            "profile": "radial profile id (radial_lift)",
            "t_ladder": "negative levels, e.g. [-4, -8, -12]",
        },
        "defaults": {"model": "ball_point", "n": 2, "t_ladder": [-4.0, -8.0, -12.0]},
        "tolerances": {"each_level": 1e-2, "limit": 5e-2},
        "default_samples": 10_000_000,
        "needs_seed": True,
    },
}


def run_scenario(config: ScenarioConfig) -> Report:
    """Execute one scenario and collect its report."""
    params, samples, seed, tol = _resolve(config)
    start = time.perf_counter()
    values, assertions = SCENARIO_SPECS[config.scenario]["run"](params, samples, seed, tol)
    elapsed = time.perf_counter() - start
    return Report(
        scenario=config.scenario,
        params=params,
        values=list(values),
        assertions=list(assertions),
        seed=seed,
        version=__version__,
        wall_clock_s=elapsed,
    )


def catalog_text() -> str:
    """Human-readable scenario catalog for the command line."""
    lines = ["available scenarios:", ""]
    for name, entry in SCENARIO_SPECS.items():
        lines.append(f"  {name}")
        lines.append(f"      {entry['description']}")
        for pname, doc in entry["params"].items():
            default = entry["defaults"].get(pname)
            suffix = f" (default {default})" if default is not None else ""
            lines.append(f"      - {pname}: {doc}{suffix}")
        lines.append(
            f"      samples default: {entry['default_samples']}, "
            f"seed {'required' if entry['needs_seed'] else 'optional'}"
        )
        lines.append("")
    return "\n".join(lines)
