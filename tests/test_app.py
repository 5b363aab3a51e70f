"""Configuration handling, scenario runs, artifact schemas, and the CLI."""

import json
import os

import jsonschema
import pytest

from graphflow.app import (BUILTIN_SCENARIOS, CLASSIFICATION_SCHEMA, CSV_COLUMNS,
                           VERIFICATION_SCHEMA, builtin_config, load_config, run_identities,
                           run_scenario)
from graphflow.cli import main as cli_main
from graphflow.errors import ConfigurationError


# -- configuration -----------------------------------------------------------


def test_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "nope.ini"))


def _write(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return str(p)


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, "[scenario]\nname = torus_projection\n[wat]\nx = 1\n")
    with pytest.raises(ConfigurationError, match="unknown config section"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    for text in ("[scenario]\nname = torus_projection\nbogus = 1\n",
                 "[scenario]\nname = torus_projection\n[flow]\ndiam_tol = 1e-3\n"):
        path = _write(tmp_path, text)
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_config(path)


def test_missing_name_rejected(tmp_path):
    path = _write(tmp_path, "[flow]\ncfl = 0.4\n")
    with pytest.raises(ConfigurationError, match="missing required key"):
        load_config(path)


def test_unknown_scenario_rejected(tmp_path):
    path = _write(tmp_path, "[scenario]\nname = not_a_scenario\n")
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        load_config(path)


def test_invalid_value_rejected(tmp_path):
    path = _write(tmp_path, "[scenario]\nname = torus_projection\n[flow]\ncfl = fast\n")
    with pytest.raises(ConfigurationError, match="invalid value"):
        load_config(path)


def test_invalid_integrator_rejected(tmp_path):
    path = _write(tmp_path,
                  "[scenario]\nname = torus_projection\n[flow]\nintegrator = RK9\n")
    with pytest.raises(ConfigurationError, match="integrator"):
        load_config(path)


def test_builtin_defaults():
    cfg = builtin_config("cylinder_waist")
    assert cfg.get("initial", "z0") == 0.5
    assert cfg.get("flow", "t_end") == 30.0
    assert cfg.get("barrier", "kind") == "waist_tube"
    cfg = builtin_config("tsui_wang_s2")
    assert cfg.get("initial", "amplitude") == 0.8
    assert cfg.get("barrier", "kind") == "none"


def test_config_hash_stable_and_sensitive():
    a = builtin_config("torus_projection")
    b = builtin_config("torus_projection")
    assert a.config_hash() == b.config_hash()
    c = builtin_config("torus_projection", {("flow", "cfl"): 0.3})
    assert a.config_hash() != c.config_hash()


# -- scenario runs -----------------------------------------------------------


EXPECTED_FILES = ("config.ini", "time_series.csv", "verification.json",
                  "classification.json", "manifest.json", "run.log")


def _read(out, name):
    with open(os.path.join(out, name)) as fh:
        return fh.read()


def test_torus_projection_run(tmp_path):
    cfg = builtin_config("torus_projection")
    out = str(tmp_path / "run")
    manifest = run_scenario(cfg, out_dir=out)
    assert manifest.status == "Stationary"
    for name in EXPECTED_FILES:
        assert os.path.exists(os.path.join(out, name))
    verification = json.loads(_read(out, "verification.json"))
    jsonschema.validate(verification, VERIFICATION_SCHEMA)
    assert verification["overall_pass"]
    assert verification["stationarity"]["pass"]
    assert verification["residual_p"]["checkpoints"][0]["linf"] <= 1e-10
    classification = json.loads(_read(out, "classification.json"))
    jsonschema.validate(classification, CLASSIFICATION_SCHEMA)
    assert classification["class"] == "Rank2Flat"
    header = _read(out, "time_series.csv").splitlines()[0]
    assert header.split(",") == CSV_COLUMNS
    man = json.loads(_read(out, "manifest.json"))
    assert man["config_hash"] == cfg.config_hash()
    assert sorted(man["files"]) == sorted(EXPECTED_FILES)


def test_runs_byte_reproduce(tmp_path):
    cfg = builtin_config("torus_projection")
    outs = [str(tmp_path / f"run{k}") for k in (1, 2)]
    for out in outs:
        run_scenario(builtin_config("torus_projection"), out_dir=out)
    for name in ("config.ini", "time_series.csv", "verification.json",
                 "classification.json", "manifest.json"):  # run.log holds timestamps
        assert _read(outs[0], name) == _read(outs[1], name)
    assert cfg.config_hash() in _read(outs[0], "manifest.json")


def test_hopf_pointwise_run(tmp_path):
    cfg = builtin_config("hopf_pointwise")
    out = str(tmp_path / "hopf")
    manifest = run_scenario(cfg, out_dir=out)
    assert manifest.status == "Pointwise"
    verification = json.loads(_read(out, "verification.json"))
    assert verification["pointwise"]["samples"] >= 1000
    assert verification["pointwise"]["max_deviation_from_2"] <= 1e-10
    assert verification["overall_pass"]


def test_cylinder_waist_run(tmp_path):
    cfg = builtin_config("cylinder_waist", {("flow", "record_every"): 2000})
    out = str(tmp_path / "waist")
    manifest = run_scenario(cfg, out_dir=out)
    assert manifest.status == "Converged"
    verification = json.loads(_read(out, "verification.json"))
    assert verification["overall_pass"]
    assert verification["barrier"]["certificate"]["verdict"]
    assert verification["barrier"]["containment"]["pass"]
    classification = json.loads(_read(out, "classification.json"))
    assert classification["class"] == "Rank1Geodesic"


def test_tsui_wang_small_run(tmp_path):
    cfg = builtin_config("tsui_wang_s2", {
        ("grid", "nodes"): 48, ("flow", "t_end"): 0.3, ("flow", "record_every"): 120})
    out = str(tmp_path / "tsui")
    manifest = run_scenario(cfg, out_dir=out)
    assert manifest.status == "Finished"
    verification = json.loads(_read(out, "verification.json"))
    assert verification["overall_pass"]
    assert verification["curvature_conditions"]["min_bric"] == 1.0
    assert verification["decay_bounds"]["pass"]
    assert verification["inequalities"]["pass"]
    rows = _read(out, "time_series.csv").splitlines()[1:]
    assert len(rows) >= 2


def test_identity_edge_scenario_rejected(tmp_path):
    cfg = builtin_config("torus_identity_edge")
    with pytest.raises(ConfigurationError, match="not strictly area decreasing"):
        run_scenario(cfg, out_dir=str(tmp_path / "edge"))


def test_builtin_scenarios_listed():
    assert set(BUILTIN_SCENARIOS) == {
        "tsui_wang_s2", "cylinder_drift", "cylinder_waist", "torus_projection",
        "hopf_pointwise", "torus_identity_edge"}


# -- identity suite ----------------------------------------------------------


def test_run_identities_small():
    # seed 34 reaches mu = 2.6e-6 at its last sample: the t oracle must keep
    # 1e-10 for a tiny singular value
    for samples, seed in ((300, 7), (218, 34)):
        report = run_identities(samples=samples, seed=seed)
        assert report["pass"]
        assert report["max_error"] <= 1e-10
        assert set(report["max_errors"]) >= {"s2_plus_t2", "t_oracle", "ric_vw", "w_norm"}


# -- CLI ---------------------------------------------------------------------


def test_cli_identities():
    assert cli_main(["identities", "--samples", "200"]) == 0


def test_cli_run_and_inspect(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.ini")
    with open(cfg_path, "w") as fh:
        fh.write("[scenario]\nname = torus_projection\n")
    out = str(tmp_path / "out")
    assert cli_main(["run", cfg_path, "--out", out]) == 0
    assert cli_main(["verify", out]) == 0
    captured = capsys.readouterr().out
    assert "overall: PASS" in captured
    assert cli_main(["classify", out]) == 0
    assert cli_main(["check-curvature", cfg_path]) == 0


@pytest.mark.parametrize("section,key,value", [
    ("flow", "record_every", "0"),   # was a ZeroDivisionError traceback
    ("grid", "nodes", "2"),          # no interior node: a ValueError traceback
    ("flow", "t_end", "-1"),         # an empty run that printed PASS
    ("flow", "cfl", "5"),            # escaped the equivariant path unchecked
])
def test_cli_rejects_out_of_range_values(tmp_path, capsys, section, key, value):
    cfg_path = _write(tmp_path, f"[scenario]\nname = tsui_wang_s2\n[{section}]\n{key} = {value}\n")
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"[{section}] {key}" in err
    with pytest.raises(ConfigurationError):
        builtin_config("tsui_wang_s2", {(section, key): float(value)})


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = str(tmp_path / "edge.ini")
    with open(cfg_path, "w") as fh:
        fh.write("[scenario]\nname = torus_identity_edge\n")
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert cli_main(["run", str(tmp_path / "missing.ini")]) == 2
    assert cli_main(["verify", str(tmp_path / "not_a_run")]) == 2
