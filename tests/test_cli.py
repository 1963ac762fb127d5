import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holoext
from holoext.cli import main
from holoext.scenarios import SCENARIO_SPECS, ScenarioConfig, run_scenario

SRC_ROOT = str(Path(holoext.__file__).resolve().parent.parent)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


FAST_FUBINI = {
    "scenario": "fubini_identity",
    "params": {"profile": "log_singular", "k": 1, "z2_norm": 0.0},
    "samples": 150_000,
    "seed": 42,
}


def test_list_prints_catalog():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "holoext.cli", "list"],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    for name, entry in SCENARIO_SPECS.items():
        assert name in proc.stdout
        for p in entry["params"]:
            # the ranges printed are the ones _resolve enforces
            assert f"- {p.name}" in proc.stdout
            assert f": {p.admits()}; default {p.default} ({p.doc})" in proc.stdout


def test_list_into_a_closed_pipe_exits_without_traceback():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the catalog is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "holoext.cli", "list"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_run_writes_report_and_exits_zero(tmp_path, monkeypatch):
    monkeypatch.setenv("HOLOEXT_OUT_DIR", str(tmp_path / "reports"))
    config = write_config(tmp_path, FAST_FUBINI)
    code = main(["run", "--config", str(config), "--format", "json"])
    assert code == 0
    report_path = tmp_path / "reports" / "fubini_identity_report.json"
    assert report_path.exists()
    payload = json.loads(report_path.read_text())
    assert payload["scenario"] == "fubini_identity"
    assert payload["seed"] == 42
    assert payload["version"]
    assert {"name", "value", "error", "provenance"} <= set(payload["values"][0])
    assert {"name", "pass", "lhs", "rhs", "tol"} <= set(payload["assertions"][0])
    assert all(entry["pass"] for entry in payload["assertions"])


def test_reports_are_deterministic(tmp_path):
    config = write_config(tmp_path, FAST_FUBINI)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2)]) == 0
    body1 = json.loads(out1.read_text())
    body2 = json.loads(out2.read_text())
    body1.pop("wall_clock_s")
    body2.pop("wall_clock_s")
    assert json.dumps(body1, sort_keys=True) == json.dumps(body2, sort_keys=True)


def test_cli_seed_and_samples_overrides(tmp_path):
    config = write_config(tmp_path, {**FAST_FUBINI, "seed": 1})
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert (
        main(
            [
                "run",
                "--config",
                str(config),
                "--seed",
                "2",
                "--samples",
                "100000",
                "--out",
                str(out_b),
            ]
        )
        == 0
    )
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["seed"] == 1 and b["seed"] == 2
    mc_a = [v for v in a["values"] if v["provenance"] == "monte-carlo"][0]
    mc_b = [v for v in b["values"] if v["provenance"] == "monte-carlo"][0]
    assert mc_a["value"] != mc_b["value"]


def test_exit_one_on_failed_assertion(tmp_path, monkeypatch):
    # an unreachable Monte Carlo tolerance forces a clean failure
    monkeypatch.setitem(SCENARIO_SPECS["fubini_identity"]["tolerances"], "mc", 1e-12)
    config = write_config(tmp_path, FAST_FUBINI)
    out = tmp_path / "fail.json"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    body = json.loads(out.read_text())
    failed = [a for a in body["assertions"] if not a["pass"]]
    assert failed and failed[0]["name"] == "mc_oracle_relative"


def test_exit_two_when_the_sampler_does_not_resolve_the_domain(tmp_path, capsys):
    # at a = 10 and k = 2 the lifted set is too thin for the sampler's box
    payload = {
        "scenario": "fubini_identity",
        "params": {"profile": {"kind": "scaled_log", "a": 10}, "k": 2},
        "seed": 2026,
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(config), "--samples", "20000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sampler did not resolve the domain:")
    assert "0 of 20000" in err
    assert not out.exists()


def test_exit_two_when_a_sublevel_level_draws_no_hit(tmp_path, capsys):
    # 20 draws at seed 1 all miss the t = -8 set of the n = k = 3 pair model
    payload = {
        "scenario": "scaling_limit",
        "params": {"model": "ball_pair", "n": 3, "k": 3, "t_ladder": [-8]},
        "samples": 20,
        "seed": 1,
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sampler did not resolve the domain:")
    assert "0 of 20" in err and "t = -8" in err
    assert not out.exists()


def test_missing_config_is_usage_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


def test_malformed_json_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2


def test_unknown_scenario_is_usage_error(tmp_path):
    config = write_config(tmp_path, {"scenario": "unknown"})
    assert main(["run", "--config", str(config)]) == 2


def test_unknown_parameter_is_usage_error(tmp_path):
    config = write_config(
        tmp_path,
        {"scenario": "bound_ratio", "params": {"m": 2}, "seed": 1, "samples": 1000},
    )
    assert main(["run", "--config", str(config)]) == 2


def test_missing_seed_is_usage_error(tmp_path):
    config = write_config(tmp_path, {"scenario": "bound_ratio", "samples": 1000})
    assert main(["run", "--config", str(config)]) == 2


def test_unknown_config_field_rejected():
    with pytest.raises(Exception):
        ScenarioConfig.from_mapping({"scenario": "bound_ratio", "extra": 1})


def test_run_scenario_table_rendering():
    config = ScenarioConfig.from_mapping(
        {"scenario": "radial_minimal", "params": {"n": 1, "k": 1}}
    )
    report = run_scenario(config)
    table = report.to_table()
    assert "radial_minimal" in table
    assert "result: PASS" in table
    assert "minimal_norm_squared" in table


def test_report_exit_contract_matches_passed_flag(tmp_path):
    config = write_config(tmp_path, FAST_FUBINI)
    out = tmp_path / "ok.json"
    code = main(["run", "--config", str(config), "--out", str(out)])
    body = json.loads(out.read_text())
    assert (code == 0) == all(a["pass"] for a in body["assertions"])


def test_nonpositive_samples_is_usage_error(tmp_path, capsys):
    config = write_config(tmp_path, FAST_FUBINI)
    assert main(["run", "--config", str(config), "--samples", "0"]) == 2
    assert "'samples'" in capsys.readouterr().err


def test_non_integer_seed_is_usage_error(tmp_path, capsys):
    config = write_config(tmp_path, {**FAST_FUBINI, "seed": "abc"})
    assert main(["run", "--config", str(config)]) == 2
    assert "'seed'" in capsys.readouterr().err


RADIAL_QUICK = {"scenario": "radial_minimal", "params": {"n": 1, "k": 1, "degree": 2}}


def test_out_path_that_cannot_be_written_is_usage_error(tmp_path, capsys):
    config = write_config(tmp_path, RADIAL_QUICK)
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, field",
    [
        ({"seed": "abc", "samples": -5}, "'seed'"),
        ({"seed": 1.5}, "'seed'"),
        ({"seed": True}, "'seed'"),
        ({"samples": -5}, "'samples'"),
        ({"samples": 2.5}, "'samples'"),
        ({"samples": "10"}, "'samples'"),
    ],
    ids=["seed_str", "seed_float", "seed_bool", "samples_negative", "samples_float", "samples_str"],
)
def test_bad_seed_or_samples_of_an_unsampled_scenario_is_usage_error(
    tmp_path, capsys, fields, field
):
    config = write_config(tmp_path, {**RADIAL_QUICK, **fields})
    assert main(["run", "--config", str(config)]) == 2
    assert field in capsys.readouterr().err


def test_unsampled_scenario_accepts_an_integer_seed_and_zero_samples(tmp_path):
    config = write_config(tmp_path, {**RADIAL_QUICK, "seed": 7, "samples": 0})
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert main(["run", "--config", str(config), "--samples", "-1"]) == 2
    assert json.loads(out.read_text())["seed"] == 7


@pytest.mark.parametrize(
    "scenario, params, field",
    [
        ("radial_minimal", {"degree": "abc"}, "'degree'"),
        ("radial_minimal", {"degree": -1}, "'degree'"),
        ("radial_minimal", {"degree": 2.7}, "'degree'"),
        ("bound_comparison", {"n": 2, "k": 3}, "'k'"),
        ("bound_comparison", {"n": 2.0, "k": 1}, "'n'"),
        ("radial_minimal", {"profile": "nope"}, "'profile'"),
        ("bound_comparison", {"profile": 5}, "'profile'"),
        ("radial_minimal", {"profile": {"kind": "scaled_log", "a": None}}, "'profile'"),
        ("radial_minimal", {"profile": {"kind": "epsilon_regularized", "inner": 5}}, "'profile'"),
        ("radial_minimal", {"profile": {"kind": "epsilon_regularized", "esp": 0.5}}, "'esp'"),
        ("radial_minimal", {"profile": {"kind": "log_singular", "a": 2.0}}, "'a'"),
        ("radial_minimal", {"profile": {"kind": "scaled_log", "a": float("inf")}}, "'profile'"),
        ("bound_comparison", {"profile": {"kind": "epsilon_regularized", "eps": "inf"}}, "'profile'"),
        ("radial_minimal", {"degree": 40}, "'degree'"),
        ("radial_minimal", {"n": 4}, "'n'"),
        ("radial_minimal", {"profile": {"kind": "scaled_log", "a": "0.5"}}, "'profile'"),
        ("radial_minimal", {"profile": {"kind": "scaled_log", "a": True}}, "'profile'"),
        ("bound_comparison", {"profile": {"kind": "epsilon_regularized", "eps": "0.1"}}, "'profile'"),
        ("radial_minimal", {"profile": {"kind": "scaled_log", "a": 1e8}}, "'profile'"),
        ("radial_minimal", {"profile": {"kind": "scaled_log", "a": 1e308}}, "'profile'"),
        ("bound_comparison", {"profile": {"kind": "epsilon_regularized", "eps": 1e8}}, "'profile'"),
        ("radial_minimal", {"profile": {"kind": "epsilon_regularized", "eps": 1e308}}, "'profile'"),
    ],
    ids=[
        "degree_str",
        "degree_negative",
        "degree_float",
        "k_above_n",
        "n_float",
        "profile_unknown",
        "profile_not_a_mapping",
        "profile_parameter_none",
        "profile_inner_not_a_mapping",
        "profile_misspelt_key",
        "profile_key_of_another_kind",
        "profile_a_inf",
        "profile_eps_inf",
        "degree_above_20",
        "n_above_3",
        "profile_a_str",
        "profile_a_bool",
        "profile_eps_str",
        "profile_a_1e8",
        "profile_a_1e308",
        "profile_eps_1e8",
        "profile_eps_1e308",
    ],
)
def test_bad_extension_params_are_usage_errors(tmp_path, capsys, scenario, params, field):
    config = write_config(tmp_path, {"scenario": scenario, "params": params})
    assert main(["run", "--config", str(config)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, params, field",
    [
        ("fubini_identity", {"k": 1.7}, "'k'"),
        ("fubini_identity", {"k": 0}, "'k'"),
        ("bound_ratio", {"n": 2.9}, "'n'"),
        ("bound_ratio", {"n": 0}, "'n'"),
        ("scaling_limit", {"model": "ball_pair", "n": 2.5, "k": 1.2}, "'n'"),
        ("scaling_limit", {"model": "ball_pair", "n": 2, "k": 1.2}, "'k'"),
        ("scaling_limit", {"model": "ball_point", "n": True}, "'n'"),
        ("scaling_limit", {"model": "radial_lift", "n": 1, "k": 2}, "'k'"),
        ("fubini_identity", {"z2_norm": 1.5}, "'z2_norm'"),
        ("fubini_identity", {"z2_norm": -0.1}, "'z2_norm'"),
        ("fubini_identity", {"z2_norm": "nan"}, "'z2_norm'"),
        ("fubini_identity", {"z2_norm": float("nan")}, "'z2_norm'"),
        ("fubini_identity", {"z2_norm": "abc"}, "'z2_norm'"),
        ("fubini_identity", {"z2_norm": None}, "'z2_norm'"),
        ("scaling_limit", {"t_ladder": [float("nan")]}, "'t_ladder'"),
        ("scaling_limit", {"t_ladder": [-4, "-inf"]}, "'t_ladder'"),
        ("scaling_limit", {"t_ladder": [-4, float("-inf")]}, "'t_ladder'"),
        ("scaling_limit", {"t_ladder": "abc"}, "'t_ladder'"),
        ("scaling_limit", {"t_ladder": -4}, "'t_ladder'"),
        ("scaling_limit", {"t_ladder": []}, "'t_ladder'"),
        ("scaling_limit", {"t_ladder": [-800]}, "'t_ladder'"),
        ("fubini_identity", {"k": 40}, "'k'"),
        ("fubini_identity", {"k": 3}, "'k'"),
        ("bound_ratio", {"n": 40}, "'n'"),
        ("bound_ratio", {"n": 6}, "'n'"),
        ("scaling_limit", {"model": "ball_point", "n": 2, "profile": "nope"}, "'profile'"),
        ("scaling_limit", {"model": "ball_point", "n": 2, "k": 5}, "'k'"),
        ("scaling_limit", {"model": "ball_pair", "n": 2, "profile": "log_singular"}, "'profile'"),
    ],
    ids=[
        "fubini_k_float",
        "fubini_k_zero",
        "bound_ratio_n_float",
        "bound_ratio_n_zero",
        "ball_pair_n_float",
        "ball_pair_k_float",
        "ball_point_n_bool",
        "radial_lift_k_above_n",
        "z2_norm_above_one",
        "z2_norm_negative",
        "z2_norm_nan_str",
        "z2_norm_nan",
        "z2_norm_str",
        "z2_norm_null",
        "t_ladder_nan",
        "t_ladder_inf_str",
        "t_ladder_inf",
        "t_ladder_str",
        "t_ladder_scalar",
        "t_ladder_empty",
        "t_ladder_overflows",
        "fubini_k_40",
        "fubini_k_3",
        "bound_ratio_n_40",
        "bound_ratio_n_6",
        "ball_point_profile",
        "ball_point_k",
        "ball_pair_profile",
    ],
)
def test_bad_sampled_integer_params_are_usage_errors(tmp_path, capsys, scenario, params, field):
    payload = {"scenario": scenario, "params": params, "seed": 1, "samples": 1000}
    config = write_config(tmp_path, payload)
    assert main(["run", "--config", str(config)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"scenario": 5}, "'scenario'"),
        ({"scenario": ["bound_ratio"]}, "'scenario'"),
        ({"scenario": "bound_ratio", "params": [["n", 2]]}, "'params'"),
        ({"scenario": "bound_ratio", "params": None}, "'params'"),
        ({"scenario": "bound_ratio", "tolerances": 0.5}, "'tolerances'"),
        ({"scenario": "bound_ratio", "tolerances": {"mcc": 0.5}}, "'tolerances'"),
        ({"scenario": "bound_ratio", "tolerances": {"each_level": 0.5}}, "'tolerances'"),
        ({"scenario": "bound_ratio", "tolerances": {"mc": "0.5"}}, "'tolerances'"),
        ({"scenario": "bound_ratio", "tolerances": {"mc": float("nan")}}, "'tolerances'"),
        ({"scenario": "bound_ratio", "tolerances": {"mc": float("inf")}}, "'tolerances'"),
        ({"scenario": "bound_ratio", "tolerances": {"mc": -0.01}}, "'tolerances'"),
        ({"scenario": "bound_ratio", "tolerances": {"mc": True}}, "'tolerances'"),
        ({"scenario": "radial_minimal", "tolerances": {"lift": None}}, "'tolerances'"),
    ],
    ids=[
        "scenario_int",
        "scenario_list",
        "params_list",
        "params_null",
        "tolerances_scalar",
        "tolerance_unknown",
        "tolerance_of_another_scenario",
        "tolerance_str",
        "tolerance_nan",
        "tolerance_inf",
        "tolerance_negative",
        "tolerance_bool",
        "tolerance_null",
    ],
)
def test_malformed_config_is_usage_error(tmp_path, capsys, payload, field):
    config = write_config(tmp_path, {"seed": 1, "samples": 1000, **payload})
    assert main(["run", "--config", str(config)]) == 2
    assert field in capsys.readouterr().err

