import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import holoext

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(holoext.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"holoext.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"holoext.{name}.__all__ lists missing {export!r}"
    exec(f"from holoext.{name} import *", {})


def test_star_import_of_the_package():
    namespace = {}
    exec("from holoext import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == {"__version__", "Report", "ScenarioConfig", "run_scenario"}


def _layer_namespaces():
    """Every holoext module namespace and every holoext class dict, by identity."""
    spaces = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("holoext"):
            spaces[name] = dict(vars(module))
            for key, value in vars(module).items():
                if isinstance(value, type) and value.__module__.startswith("holoext"):
                    spaces[f"{value.__module__}.{value.__qualname__}"] = dict(vars(value))
    return spaces


def test_benchmark_tracer_wraps_the_layers_and_restores_them(monkeypatch):
    # perfbench/tracer.py names holoext's layer functions and classes; a
    # deletion in src that it still names fails here, not only in the benchmark
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer_module = importlib.import_module("tracer")
    from holoext import bergman, geometry, scenarios

    before = _layer_namespaces()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install_layer_spans(tracer)
        assert hasattr(scenarios.run_scenario, "__wrapped__")
        assert hasattr(geometry.Ball.__dict__["contains_batch"], "__wrapped__")
    finally:
        tracer.uninstall()
    after = _layer_namespaces()
    assert after.keys() == before.keys()
    for space, names in before.items():
        assert after[space].keys() == names.keys(), space
        moved = [key for key, value in names.items() if after[space][key] is not value]
        assert not moved, (space, moved)
    assert not hasattr(bergman.gram_matrix, "__wrapped__")


_NUMPY_ALONE = """
import sys
from holoext.bergman import MultiIndexBasis, gram_matrix, kernel_diag_at, min_norm_extension
from holoext.geometry import Ball
from holoext.scenarios import ScenarioConfig, run_scenario
from holoext.weights import LogSingularProfile, RadialWeight

run_scenario(ScenarioConfig("radial_minimal", {"n": 2, "k": 2, "degree": 6}))
run_scenario(ScenarioConfig("fubini_identity", samples=20_000, seed=1))
run_scenario(ScenarioConfig("bound_ratio", samples=20_000, seed=1))
gram = gram_matrix(
    Ball(1.0, 2), RadialWeight(LogSingularProfile(), 1), MultiIndexBasis(2, 4, 1),
    method="monte_carlo", samples=20_000, seed=1,
)
min_norm_extension({(0,): 1.0, (2,): 0.5}, gram)
kernel_diag_at(gram, [0.1, 0.2])
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_the_package_runs_on_numpy_alone():
    # importing scipy.linalg costs a process about 0.3 s and 26 MB; the
    # quadrature, the scenarios and the Monte Carlo Gram and solves need none of it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ALONE],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=300,
    )
    assert proc.stdout.strip() == "[]"


_RADIAL_PATH = """
import sys
from holoext.scenarios import ScenarioConfig, run_scenario

for kind in ("radial_minimal", "bound_comparison"):
    run_scenario(ScenarioConfig(kind, {"n": 2, "k": 2}))
print("numpy.random" in sys.modules)
"""


def test_the_radial_path_never_loads_numpy_random():
    # numpy loads numpy.random on first use, which costs a process 11-17 ms
    # on 2 vCPUs; only the samplers need it, and the radial scenarios sample nothing
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _RADIAL_PATH],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=300,
    )
    assert proc.stdout.strip() == "False"
