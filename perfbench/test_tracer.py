"""Self times and layer wrapping of tracer.py.  Run with
``python3 -m pytest perfbench``."""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer, install_layer_spans  # noqa: E402


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tracer.call("inner", inner)
        tracer.call("inner", inner)

    tracer.call("outer", outer)
    self_times = tracer.self_times()
    duration = tracer.end[0] - tracer.start[0]
    assert self_times["inner"] == pytest.approx(0.04, abs=0.01)
    assert self_times["outer"] == pytest.approx(duration - self_times["inner"], abs=1e-9)
    assert list(tracer.parent) == [-1, 0, 0]


@pytest.fixture
def installed():
    tracer = Tracer()
    install_layer_spans(tracer)
    yield tracer
    tracer.uninstall()


def test_imported_names_are_wrapped_everywhere(installed):
    from holoext import bergman, bounds, green, scenarios

    assert bounds.gram_matrix is bergman.gram_matrix
    assert bounds.min_norm_extension is bergman.min_norm_extension
    assert scenarios.sublevel_scaling is green.sublevel_scaling
    assert hasattr(bergman.gram_matrix, "__wrapped__")


def test_uninstall_restores_originals():
    from holoext import bergman, bounds, geometry

    before = (bounds.gram_matrix, geometry.Ball.__dict__["contains_batch"])
    tracer = Tracer()
    install_layer_spans(tracer)
    tracer.uninstall()
    assert (bounds.gram_matrix, geometry.Ball.__dict__["contains_batch"]) == before
    assert not hasattr(bergman.gram_matrix, "__wrapped__")


def test_counters_of_a_radial_scenario(installed):
    from holoext import scenarios

    config = scenarios.ScenarioConfig(
        scenario="radial_minimal", params={"n": 1, "k": 1, "profile": "log_singular", "degree": 4}
    )
    assert scenarios.run_scenario(config).passed
    c = installed.counters
    assert c["bergman.solve_calls"] == 2  # degree 4 and degree 2
    assert c["bergman.gram_entries"] == 5 + 3
    assert c["integrate.quad_calls"] >= 8
    self_times = installed.self_times()
    assert {"scenarios.run", "bergman.gram_radial", "integrate.quad", "weights.profile_value"} <= set(self_times)


def test_outermost_membership_counts_once(installed):
    from holoext import integrate, weights

    res = integrate.fubini_mc_oracle(weights.LogSingularProfile(), 1, 0.0, 20_000, 1)
    c = installed.counters
    assert c["integrate.mc_draws"] == 20_000
    assert c["geometry.points_tested"] == 20_000  # the lift, not its base ball again
    assert 0 < c["geometry.points_inside"] < 20_000
    assert res.value > 0
