"""The scenario parameter tables: every input in use is admitted, and a config
drawn from a table and then broken in one field stops at that field.

A drawn config runs to a Report, or to the sampler's DegenerateDomainError
when fewer than 0.1% of its draws land inside the domain or none inside a
sublevel level: at these budgets that happens to admitted inputs
(bound_ratio at n = 5 hits 0.25% of its box),
and the command line reports it with exit 2.  A broken config must stop in
``_resolve`` with a ConfigError naming the broken field, never with another
exception.  Budgets stay small (500 to 2000 samples, degree at most 4) so the
draws run in a few seconds.
"""

import importlib
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from holoext.errors import ConfigError, DegenerateDomainError
from holoext.scenarios import SCENARIO_SPECS, Report, ScenarioConfig, _resolve, run_scenario

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = (500, 2000)
MAX_DEGREE = 4
DELETE = object()
NAN, INF = float("nan"), float("inf")

PROFILES = (
    "log_singular",
    {"kind": "scaled_log", "a": 0.5},
    {"kind": "scaled_log", "a": 2.0},
    {"kind": "epsilon_regularized", "eps": 0.1},
    {"kind": "epsilon_regularized", "eps": 0.1, "inner": {"kind": "scaled_log", "a": 0.5}},
)
BAD_PROFILES = (
    5,
    None,
    True,
    ["log_singular"],
    "nope",
    {"kind": "nope"},
    {"a": 1.0},
    {"kind": "scaled_log", "a": NAN},
    {"kind": "scaled_log", "a": INF},
    {"kind": "scaled_log", "a": -1.0},
    {"kind": "scaled_log", "a": 0},
    {"kind": "scaled_log", "a": None},
    {"kind": "scaled_log", "a": "0.5"},
    {"kind": "scaled_log", "a": True},
    {"kind": "scaled_log", "a": 1e8},
    {"kind": "epsilon_regularized", "eps": 1e308},
    {"kind": "scaled_log", "b": 1.0},
    {"kind": "epsilon_regularized", "eps": -INF},
    {"kind": "epsilon_regularized", "inner": 5},
    {"kind": "epsilon_regularized", "inner": "nope"},
)


def test_every_battery_and_benchmark_input_is_admitted(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # workloads imports its sibling oracle
    workloads = importlib.import_module("workloads")
    configs = [
        ScenarioConfig.from_mapping(json.loads(path.read_text()))
        for path in sorted((ROOT / "scripts" / "configs").glob("*.json"))
    ]
    configs += [
        ScenarioConfig(kind, params, samples, 2026)
        for _, kind, params, samples, _ in workloads.MC_SCENARIOS
    ]
    grid = workloads.RadialGrid(0)
    configs += [grid._config(*row) for row in workloads.RADIAL_GRID]
    assert len(configs) == 10 + 6 + 110
    for config in configs:
        _resolve(config)


def _bound(bound, args):
    return args[bound] if isinstance(bound, str) else bound


def _applies(p, args):
    return not p.models or args["model"] in p.models


@st.composite
def drawn_configs(draw):
    """A config admitted by its table, with every parameter given."""
    scenario = draw(st.sampled_from(sorted(SCENARIO_SPECS)))
    entry = SCENARIO_SPECS[scenario]
    params = {}
    for p in entry["params"]:
        if not _applies(p, params):
            continue
        lo, hi = _bound(p.lo, params), _bound(p.hi, params)
        if p.kind == "int":
            value = st.integers(lo, min(hi, MAX_DEGREE) if p.name == "degree" else hi)
        elif p.kind == "real":
            value = st.floats(lo, hi, exclude_max=True)
        elif p.kind == "levels":
            value = st.lists(st.floats(lo, hi, exclude_max=True), min_size=1, max_size=3)
        elif p.kind == "choice":
            value = st.sampled_from(p.choices)
        else:
            value = st.sampled_from(PROFILES)
        params[p.name] = draw(value)
    raw = {"scenario": scenario, "params": params}
    if entry["default_samples"]:
        raw["samples"] = draw(st.integers(*SAMPLES))
        raw["seed"] = draw(st.integers(0, 2**32 - 1))
    return raw


def _bad_values(p, args):
    lo, hi = _bound(p.lo, args), _bound(p.hi, args)
    wrong_type = ["abc", None, True, [1], {"x": 1}]
    if p.kind == "int":
        return wrong_type + [lo - 1, hi + 1, 10**30, -(10**30), 2.5, float(lo), NAN, INF]
    if p.kind == "real":
        return wrong_type + [lo - 0.5, hi, hi + 1e300, -1e300, NAN, INF, -INF, "0.5"]
    if p.kind == "levels":
        bad = [[], [hi], [lo - 1], [-1e308], [NAN], [INF], [-INF], [-4, "x"], [-4, None], [True]]
        return wrong_type[:3] + [{"x": 1}, -4] + bad
    if p.kind == "choice":
        return wrong_type + ["nope", "", p.choices[0].upper()]
    return list(BAD_PROFILES)


def _mutations(raw):
    """(path, value, field) triples that each break ``raw`` in one field; a
    deleted parameter (field None) falls back to its default."""
    entry = SCENARIO_SPECS[raw["scenario"]]
    out = [(("params", "bogus"), 1, "bogus"), (("extra",), 1, "extra")]
    for p in entry["params"]:
        if _applies(p, raw["params"]):
            out += [(("params", p.name), v, p.name) for v in _bad_values(p, raw["params"])]
            out.append((("params", p.name), DELETE, None))
    out += [(("samples",), v, "samples") for v in (-1, 2.5, "10", True, NAN)]
    out += [(("seed",), v, "seed") for v in ("abc", 1.5, True, NAN)]
    if entry["default_samples"]:
        out += [(("samples",), 0, "samples"), (("seed",), DELETE, "seed")]
    # tolerances are pinned in the table: a config that sets any is refused
    out.append((("tolerances",), {name: 0.1 for name in entry["tolerances"]}, "tolerances"))
    return out


def _apply(raw, path, value):
    broken = {**raw, "params": dict(raw["params"])}
    target = broken
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return broken


def _outcome(raw):
    try:
        return run_scenario(ScenarioConfig.from_mapping(raw))
    except (ConfigError, DegenerateDomainError) as exc:
        return exc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_drawn_configs_run_and_broken_ones_name_their_field(data):
    raw = data.draw(drawn_configs())
    report = _outcome(raw)
    if not isinstance(report, DegenerateDomainError):
        assert isinstance(report, Report), report
        # params are reported as given: nothing coerced, nothing model-dependent filled in
        assert report.params == raw["params"]
        assert all(report.params[name] is value for name, value in raw["params"].items())

    path, value, field = data.draw(st.sampled_from(_mutations(raw)))
    out = _outcome(_apply(raw, path, value))
    if field is None:
        # a deleted parameter takes its default, which may break a bound naming it
        names = [f"'{name}'" for name in raw["params"]]
        ran = isinstance(out, (Report, DegenerateDomainError))
        assert ran or any(name in str(out) for name in names), out
    else:
        assert isinstance(out, ConfigError), (path, value, out)
        assert f"'{field}'" in str(out)
