"""The battery script: one report per config, its verdict line and exit code."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from holoext.scenarios import SCENARIO_SPECS, ScenarioConfig, run_scenario

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"
CONFIGS = ("radial_minimal_disc", "bound_comparison_disc")


@pytest.fixture
def battery(tmp_path, monkeypatch):
    """The script's module, reading two copied configs and writing under tmp_path."""
    spec = importlib.util.spec_from_file_location("run_verification", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    for stem in CONFIGS:
        shutil.copy(SCRIPT.parent / "configs" / f"{stem}.json", config_dir)
    monkeypatch.setattr(module, "CONFIG_DIR", config_dir)
    out_dir = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--out", str(out_dir)])
    return module, config_dir, out_dir


def test_battery_writes_one_report_per_config_and_passes(battery, capsys):
    module, config_dir, out_dir = battery
    assert module.main() == 0
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        f"{stem}_report.json" for stem in CONFIGS
    )
    for stem in CONFIGS:
        config = ScenarioConfig.from_mapping(json.loads((config_dir / f"{stem}.json").read_text()))
        written = json.loads((out_dir / f"{stem}_report.json").read_text())
        del written["wall_clock_s"]
        assert written == run_scenario(config).body_dict()
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("overall: PASS")


def test_battery_exits_one_and_names_a_failed_assertion(battery, monkeypatch, capsys):
    # a negative tolerance fails norm_closed_form whatever the norm's rounding
    module, _, _ = battery
    monkeypatch.setitem(SCENARIO_SPECS["radial_minimal"]["tolerances"], "closed_form", -1.0)
    assert module.main() == 1
    out = capsys.readouterr().out
    assert "FAIL  radial_minimal_disc" in out
    assert "failed: norm_closed_form" in out
    assert out.splitlines()[-1].startswith("overall: FAIL")


def test_battery_reports_a_config_that_raises_and_runs_the_rest(battery, capsys):
    # at a = 10 and k = 2 the lifted set is too thin for the sampler's box;
    # it sorts before the radial config, which must still run
    module, config_dir, out_dir = battery
    (config_dir / "bound_comparison_disc.json").unlink()
    thin = {
        "scenario": "fubini_identity",
        "params": {"profile": {"kind": "scaled_log", "a": 10}, "k": 2},
        "samples": 20_000,
        "seed": 2026,
    }
    (config_dir / "fubini_thin.json").write_text(json.dumps(thin))
    assert module.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ERROR fubini_thin") and "0 of 20000" in lines[0]
    assert lines[1].startswith("PASS  radial_minimal_disc")
    assert lines[-1].startswith("overall: FAIL")
    assert [p.name for p in out_dir.iterdir()] == ["radial_minimal_disc_report.json"]
