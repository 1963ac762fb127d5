import importlib
import pkgutil

import pytest

import holoext

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
