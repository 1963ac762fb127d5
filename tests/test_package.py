import importlib
import pkgutil
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
