"""Configuration handling, scenario runs, artifact schemas, and the CLI."""

import contextlib
import csv
import glob
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from collections import Counter, OrderedDict
from dataclasses import replace

import hypothesis.extra.numpy as hnp
import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphflow.classify
import graphflow.flow
import graphflow.verify
import reference_artifacts as ref_artifacts
from graphflow import app, cli, errors, immersion
from graphflow.app import (BUILTIN_SCENARIOS, CLASSIFICATION_SCHEMA, CSV_COLUMNS,
                           VERIFICATION_SCHEMA, builtin_config, load_config, run_identities,
                           run_scenario, validate)
from graphflow.cli import main as cli_main
from graphflow.errors import ConfigurationError
from graphflow.flow import h2_field
from graphflow.frames import build_svd_frame
from graphflow.geometry import ChartManifold, curvature_conditions_report
from graphflow.immersion import GraphMapField
from graphflow.verify import compute_bound_constants


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
    cases = [("scenario", "bogus", "1"), ("flow", "diam_tol", "1e-3"), ("grid", "n_phi", "8"),
             # removed keys whose value now has one owner in the code
             ("flow", "integrator", "RK2"), ("flow", "ode_dt", "0.001"), ("initial", "r", "0.5"),
             ("verify", "decay_bounds", "True"), ("verify", "margin", "4"),
             ("barrier", "kind", "waist_tube"), ("barrier", "level", "1.0"),
             # the Courant factor is flow.CFL; the stationary residual always runs
             ("flow", "cfl", "5"), ("flow", "cfl", "0.4"), ("verify", "residuals", "True")]
    for section, key, value in cases:
        header = "" if section == "scenario" else f"[{section}]\n"
        path = _write(tmp_path, f"[scenario]\nname = torus_projection\n{header}{key} = {value}\n")
        says = "unknown config section \\[barrier\\]" if section == "barrier" else "unknown key"
        with pytest.raises(ConfigurationError, match=says):
            load_config(path)
        with pytest.raises(ConfigurationError, match="unknown key"):  # was dropped unread
            builtin_config("torus_projection", {(section, key): value})


def test_missing_name_rejected(tmp_path):
    path = _write(tmp_path, "[flow]\nt_end = 1.0\n")
    with pytest.raises(ConfigurationError, match="missing required key"):
        load_config(path)


def test_unknown_scenario_rejected(tmp_path):
    path = _write(tmp_path, "[scenario]\nname = not_a_scenario\n")
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        load_config(path)


def test_invalid_value_rejected(tmp_path):
    path = _write(tmp_path, "[scenario]\nname = torus_projection\n[flow]\nt_end = fast\n")
    with pytest.raises(ConfigurationError, match="invalid value"):
        load_config(path)


@pytest.mark.parametrize("text, value", [
    ("True", True), ("true", True), ("yes", True), ("1", True), ("On", True),
    ("False", False), ("NO", False), ("0", False), ("off", False),
])
def test_verify_switches_take_every_boolean_spelling(tmp_path, text, value):
    path = _write(tmp_path, "[scenario]\nname = tsui_wang_s2\n"
                            f"[verify]\nresiduals = {text}\ninequalities = {text}\n")
    cfg = load_config(path)
    assert cfg.get("verify", "residuals") is value and cfg.get("verify", "inequalities") is value
    assert f"residuals = {value}\n" in cfg.canonical_text()  # the hash sees True/False only


@pytest.mark.parametrize("key", ["residuals", "inequalities"])
@pytest.mark.parametrize("text", ["maybe", "2", ""])
def test_verify_switch_rejects_non_boolean(tmp_path, capsys, key, text):
    path = _write(tmp_path, f"[scenario]\nname = tsui_wang_s2\n[verify]\n{key} = {text}\n")
    with pytest.raises(ConfigurationError, match=f"invalid value for \\[verify\\] {key}"):
        load_config(path)
    assert cli_main(["check-curvature", path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"invalid value for [verify] {key}" in err


def test_invalid_integrator_rejected(tmp_path):
    path = _write(tmp_path,
                  "[scenario]\nname = torus_projection\n[flow]\nintegrator = RK9\n")
    with pytest.raises(ConfigurationError, match="integrator"):
        load_config(path)


def test_builtin_defaults():
    cfg = builtin_config("cylinder_waist")
    assert cfg.get("initial", "z0") == 0.5
    assert cfg.get("flow", "t_end") == 30.0
    cfg = builtin_config("tsui_wang_s2")
    assert cfg.get("initial", "amplitude") == 0.8
    assert cfg.get("flow", "t_end") == 8.0  # long enough to end Converged/Constant
    assert {section for section, _ in cfg.values} == {
        "scenario", "grid", "flow", "initial", "verify"}  # the waist barrier is no config


@pytest.mark.parametrize("name, section, key, value", [
    ("cylinder_drift", "initial", "amplitude", "5.0"),  # wrote the artifacts of 0.8, new hash
    ("hopf_pointwise", "grid", "nodes", "256"),
    ("torus_projection", "verify", "inequalities", "True"),
    ("tsui_wang_s2", "grid", "shape", "4,4,4"),
])
def test_unread_key_rejected(tmp_path, capsys, name, section, key, value):
    says = f"unknown key '{key}' in section [{section}]: scenario '{name}' does not read it"
    cfg_path = _write(tmp_path, f"[scenario]\nname = {name}\n[{section}]\n{key} = {value}\n")
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and says in err
    with pytest.raises(ConfigurationError, match=re.escape(says)):
        builtin_config(name, {(section, key): value})
    with pytest.raises(KeyError):
        builtin_config(name).get(section, key)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_each_scenario_reads_exactly_its_settings(tmp_path, monkeypatch, name):
    read = set()
    get = app.ScenarioConfig.get

    def recorded(self, section, key):
        read.add((section, key))
        return get(self, section, key)

    monkeypatch.setattr(app.ScenarioConfig, "get", recorded)
    small = {"tsui_wang_s2": {("grid", "nodes"): 32, ("flow", "t_end"): 0.05},
             "torus_projection": {("grid", "shape"): "4,4,4"}}
    cfg = builtin_config(name, small.get(name))
    with contextlib.suppress(ConfigurationError):  # torus_identity_edge is rejected
        run_scenario(cfg, out_dir=str(tmp_path / name))
    assert read == set(app.SCENARIOS[name].settings)
    assert set(cfg.values) == read | {("scenario", "name"), ("scenario", "seed"),
                                      ("scenario", "output_dir")}


def test_config_hash_stable_and_sensitive():
    a = builtin_config("torus_projection")
    b = builtin_config("torus_projection")
    assert a.config_hash() == b.config_hash()
    c = builtin_config("torus_projection", {("flow", "t_end"): 0.03})
    assert a.config_hash() != c.config_hash()


# -- scenario runs -----------------------------------------------------------


EXPECTED_FILES = ("config.ini", "time_series.csv", "verification.json",
                  "classification.json", "manifest.json", "run.log")


def _read(out, name):
    with open(os.path.join(out, name)) as fh:
        return fh.read()


def test_torus_projection_run(tmp_path):
    cfg = builtin_config("torus_projection", {("flow", "t_end"): 0.3, ("flow", "record_every"): 3})
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
    # every third step and the last are recorded
    every_step = str(tmp_path / "every_step")
    run_scenario(builtin_config("torus_projection", {("flow", "t_end"): 0.3}), out_dir=every_step)
    rows = _read(every_step, "time_series.csv").splitlines()[1:]
    assert len(rows) == 9  # steps 0 to 8
    assert _read(out, "time_series.csv").splitlines()[1:] == rows[::3] + rows[-1:]


def test_runs_byte_reproduce(tmp_path):
    cfg = builtin_config("torus_projection")
    outs = [str(tmp_path / f"run{k}") for k in (1, 2)]
    for out in outs:
        run_scenario(builtin_config("torus_projection"), out_dir=out)
    for name in ("config.ini", "time_series.csv", "verification.json",
                 "classification.json", "manifest.json"):  # run.log holds timestamps
        assert _read(outs[0], name) == _read(outs[1], name)
    assert cfg.config_hash() in _read(outs[0], "manifest.json")


@pytest.mark.parametrize("shape", ["3,4,4", "4,3,4"])
def test_torus_projection_odd_grid_is_stationary(tmp_path, shape):
    # a roundoff-sized velocity wraps a node at 0 to 2 pi: that is no drift
    cfg_path = _write(tmp_path, f"[scenario]\nname = torus_projection\n[grid]\nshape = {shape}\n")
    out = str(tmp_path / "run")
    assert cli_main(["run", cfg_path, "--out", out]) == 0
    stationarity = json.loads(_read(out, "verification.json"))["stationarity"]
    assert stationarity["pass"] and stationarity["max_step_drift"] <= 1e-12


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


def test_tsui_wang_run_log_reports_steps_and_dt_range(tmp_path):
    cfg = builtin_config("tsui_wang_s2", {
        ("grid", "nodes"): 32, ("flow", "t_end"): 0.2, ("flow", "record_every"): 80})
    out = str(tmp_path / "tsui")
    run_scenario(cfg, out_dir=out)
    lines = _read(out, "run.log").splitlines()
    keys = [line.split(": ", 1)[0] for line in lines]
    assert keys == ["scenario", "start", "end", "status", "steps", "dt_min", "dt_max"]
    log = dict(line.split(": ", 1) for line in lines)
    assert log["status"] == "Finished" and int(log["steps"]) == 104
    dt_min, dt_max = float(log["dt_min"]), float(log["dt_max"])
    assert 0 < dt_min < dt_max <= 0.4 * (math.pi / 32) ** 2
    # the other scenarios report no step counters
    run_scenario(builtin_config("cylinder_drift"), out_dir=str(tmp_path / "drift"))
    assert _read(str(tmp_path / "drift"), "run.log").splitlines()[-1] == "status: Drifting"


def test_drift_run_ending_a_sample_early_still_drifts(tmp_path):
    # at t_end = 8.002 the sum of the sample spacing reaches t_end a step
    # early; a repeated last sample made z look non-monotone ("Finished")
    cfg_path = _write(tmp_path, "[scenario]\nname = cylinder_drift\n[flow]\nt_end = 8.002\n")
    out = str(tmp_path / "drift")
    assert cli_main(["run", cfg_path, "--out", out]) == 0
    assert json.loads(_read(out, "manifest.json"))["status"] == "Drifting"
    t = [float(row.split(",")[0]) for row in _read(out, "time_series.csv").splitlines()[1:]]
    assert t[-1] == pytest.approx(8.002, abs=1e-12) and t == sorted(set(t))


def test_tsui_wang_classifier_reads_h_tol(tmp_path):
    # converges at max|H| = 6.8e-4: minimal under [flow] h_tol = 1e-3; the rank
    # and totally-geodesic thresholds follow h_tol too (they were fixed at 1e-4,
    # so max|A| = 4.8e-4 made this near-constant limit Inconclusive)
    cfg = builtin_config("tsui_wang_s2", {
        ("grid", "nodes"): 32, ("flow", "t_end"): 20.0, ("flow", "h_tol"): 1e-3,
        ("flow", "record_every"): 5000, ("verify", "residuals"): False,
        ("verify", "inequalities"): False})
    out = str(tmp_path / "tsui")
    assert run_scenario(cfg, out_dir=out).status == "Converged"
    classification = json.loads(_read(out, "classification.json"))
    assert classification["class"] == "Constant"


@pytest.mark.parametrize("name, h_tol, klass", [("torus_projection", 1e-2, "Rank2Flat"),
                                                  ("cylinder_waist", 2e-2, "Rank1Geodesic")])
def test_loose_h_tol_keeps_unit_singular_values_nonzero(tmp_path, name, h_tol, klass):
    # singular values of 0.5 and 1 are O(1) at any h_tol: a threshold of
    # 100 h_tol alone would call them zero here and report Constant
    cfg = builtin_config(name, {("flow", "h_tol"): h_tol, ("flow", "record_every"): 2000})
    out = str(tmp_path / name)
    run_scenario(cfg, out_dir=out)
    assert json.loads(_read(out, "classification.json"))["class"] == klass


@pytest.mark.parametrize("monitored", [True, False])
def test_tsui_wang_lifts_each_record_once(tmp_path, monkeypatch, monitored):
    # a run with R records and S stencils lifts each record once and, with the
    # monitors on, the two stencil neighbours of each stencil.  Each lift is one
    # (J, 1) column of one batch: the run builds no field through __init__ or
    # _set_values, so no (J, PHI_WIDTH) grid, and wraps only the batch's (J, K, 2)
    # values, so no (J, PHI_WIDTH, K, 2) array.  The batch's f derivatives come from
    # the profiles (no unwrap_target), and it builds one SVD frame, whose field
    # geometry serves every record's max |A|^2, the monitors and the classifier,
    # which read only columns.  The M side of the lifts is computed once per run, from
    # one M.rows call on the column's coordinates; the batch reads g_N and Gamma_N from
    # one call of N's chart on its wrapped f (N._rows), checks its induced metric by
    # Cholesky, and nothing reads its eigenvalues
    calls = Counter()
    init, frame, eigvalsh = GraphMapField.__init__, immersion.build_svd_frame, np.linalg.eigvalsh
    set_values, unwrap = GraphMapField._set_values, GraphMapField.unwrap_target
    wrap = ChartManifold.wrap
    geometry = app.field_geometry
    chart = {name: getattr(ChartManifold, name)
             for name in ("rows", "_rows", "metric_many", "inverse_metric", "christoffels_many")}

    def counted_init(self, *args):
        calls["grid"] += 1
        init(self, *args)

    def counted_set_values(self, *args):
        calls["set_values", self.shape] += 1
        set_values(self, *args)

    def counted_unwrap(self, *args):
        calls["unwrap_target", self.shape] += 1
        return unwrap(self, *args)

    def counted_wrap(self, x):
        calls["wrap", np.shape(x)] += 1
        return wrap(self, x)

    def counted_frame(*args):  # one SVD frame per field_geometry evaluation
        calls["field_geometry", args[0].shape[:2]] += 1
        return frame(*args)

    def counted_geometry(field):  # what max |A|^2, the monitors and the classifier read
        calls["geometry read on", field.shape] += 1
        return geometry(field)

    def counted_chart(name):
        def wrapper(self, *args):
            calls[f"{name} in {sys._getframe(1).f_code.co_name}"] += 1
            return chart[name](self, *args)
        return wrapper

    def counted_eigvalsh(a):
        calls["eigvalsh"] += 1
        return eigvalsh(a)

    for name in chart:
        monkeypatch.setattr(ChartManifold, name, counted_chart(name))
    monkeypatch.setattr(GraphMapField, "__init__", counted_init)
    monkeypatch.setattr(GraphMapField, "_set_values", counted_set_values)
    monkeypatch.setattr(GraphMapField, "unwrap_target", counted_unwrap)
    monkeypatch.setattr(ChartManifold, "wrap", counted_wrap)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(immersion, "build_svd_frame", counted_frame)
    for module in (app, graphflow.verify, graphflow.classify):
        monkeypatch.setattr(module, "field_geometry", counted_geometry)
    cfg = builtin_config("tsui_wang_s2", {
        ("grid", "nodes"): 32, ("flow", "t_end"): 0.2, ("flow", "record_every"): 40,
        ("verify", "residuals"): monitored, ("verify", "inequalities"): monitored})
    out = str(tmp_path / "tsui")
    run_scenario(cfg, out_dir=out)
    records = len(_read(out, "time_series.csv").splitlines()) - 1
    verification = json.loads(_read(out, "verification.json"))
    stencils = len(verification["residual_p"]["checkpoints"]) if monitored else 0
    assert records >= 3 and (stencils >= 2 or not monitored)
    profiles = records + 2 * stencils
    assert profiles * 32 <= graphflow.flow.LIFT_BATCH_NODES  # one batch: a column per profile
    assert calls.pop(("wrap", (32, profiles, 2))) == 1  # one per batch
    assert calls.pop(("wrap", (32, 2))) == 1  # the column's coords, in M.rows
    assert calls.pop(("geometry read on", (32, 1))) == records + stencils + 1
    assert calls.pop(("field_geometry", (32, profiles))) == 1
    # and no __init__, _set_values or unwrap_target
    assert calls == {"rows in _m_rows": 1, "_rows in rows": 1,  # M: g_M, g_M^-1 and Gamma_M
                     "_rows in _pointwise": 1}  # N: g_N and Gamma_N; and no eigvalsh


def test_tsui_wang_artifacts_do_not_depend_on_the_lift_batches(tmp_path, monkeypatch):
    # batches of 2 profiles split the stencil triples across batches; a column's
    # values do not depend on the batch it is computed in
    cfg = builtin_config("tsui_wang_s2", {
        ("grid", "nodes"): 32, ("flow", "t_end"): 0.2, ("flow", "record_every"): 40})
    batches, texts = [], []
    expand = graphflow.flow.EquivariantFlow.expand_fields

    def counted(self, profiles):
        batches[-1] += 1
        return expand(self, profiles)

    monkeypatch.setattr(graphflow.flow.EquivariantFlow, "expand_fields", counted)
    for budget in (graphflow.flow.LIFT_BATCH_NODES, 64):
        monkeypatch.setattr(graphflow.flow, "LIFT_BATCH_NODES", budget)
        out = str(tmp_path / str(budget))
        batches.append(0)
        run_scenario(cfg, out_dir=out)
        texts.append([_read(out, name) for name in (
            "time_series.csv", "verification.json", "classification.json")])
    assert batches == [1, 4]  # 8 profiles: 4 records, 2 stencils
    assert texts[0] == texts[1]


def test_torus_projection_reads_max_a2_from_the_second_fundamental_form(tmp_path, monkeypatch):
    # max_A2 is |A|^2, not |H|^2: an |H|^2 read as 1 leaves it at 0 on the
    # totally geodesic projection
    monkeypatch.setattr(app, "h2_field", lambda field: h2_field(field) + 1.0)
    cfg = builtin_config("torus_projection", {("grid", "shape"): "4,4,4"})
    out = str(tmp_path / "torus")
    run_scenario(cfg, out_dir=out)
    rows = list(csv.DictReader(io.StringIO(_read(out, "time_series.csv"))))
    assert rows and all(float(r["max_H2"]) == 1.0 for r in rows)
    assert all(float(r["max_A2"]) == 0.0 for r in rows)


def test_identity_edge_scenario_rejected(tmp_path):
    cfg = builtin_config("torus_identity_edge")
    with pytest.raises(ConfigurationError, match="not strictly area decreasing"):
        run_scenario(cfg, out_dir=str(tmp_path / "edge"))


def test_builtin_scenarios_listed():
    assert set(BUILTIN_SCENARIOS) == {
        "tsui_wang_s2", "cylinder_drift", "cylinder_waist", "torus_projection",
        "hopf_pointwise", "torus_identity_edge"}


def test_validate_raises_what_jsonschema_raises(tmp_path):
    # three defects at one depth: best_match reports the one at the greatest path
    bad = {"schema_version": 2, "scenario": 3, "class": 4}
    best = jsonschema.exceptions.best_match(
        jsonschema.validators.validator_for(CLASSIFICATION_SCHEMA)(CLASSIFICATION_SCHEMA)
        .iter_errors(bad))
    assert (best.json_path, best.message) == ("$.schema_version", "1 was expected")
    with pytest.raises(ValueError) as ours:  # the run's own output
        validate(bad, CLASSIFICATION_SCHEMA)
    assert str(ours.value) == f"{best.json_path}: {best.message}"
    path = str(tmp_path / "classification.json")
    with pytest.raises(ConfigurationError) as ours:  # a file read back
        validate(bad, CLASSIFICATION_SCHEMA, path)
    assert str(ours.value) == f"{path}: {best.json_path}: {best.message}"
    validate(bad | {"schema_version": 1, "scenario": "s", "class": None}, CLASSIFICATION_SCHEMA)


def _schema_parts(schema):
    """Every subschema of ``schema``, itself included."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schema_parts(sub)


@pytest.mark.parametrize("schema", [VERIFICATION_SCHEMA, CLASSIFICATION_SCHEMA],
                         ids=["verification", "classification"])
def test_schemas_use_only_what_validate_checks(schema):
    # validate implements type, const, required and properties, and four type names; a
    # schema that grew an enum or an items would be checked by nothing
    jsonschema.validators.validator_for(schema).check_schema(schema)
    for part in _schema_parts(schema):
        assert set(part) <= {"type", "const", "required", "properties"}, part
        types = part.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(app._JSON_TYPES), part
        # validate writes a JSON path as $.a.b, the form of a plain property name
        for key in part.get("properties", {}):
            assert re.fullmatch("[a-zA-Z][a-zA-Z0-9_]*", key), key


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
ARTIFACT_SCHEMAS = {"verification.json": VERIFICATION_SCHEMA,
                    "classification.json": CLASSIFICATION_SCHEMA}
# each replaces one value of a golden artifact, or the whole document
MUTANT_VALUES = [None, 0, 1, 1.0, True, False, "x", [], {}, math.nan]


def _slots(doc):
    """(container, key) of every value inside ``doc``, outermost first."""
    items = (doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list)
             else ())
    for key, value in items:
        yield doc, key
        yield from _slots(value)


@pytest.mark.parametrize("name", ARTIFACT_SCHEMAS)
@pytest.mark.parametrize("run", sorted(os.listdir(GOLDEN)))
def test_validate_matches_jsonschema_on_every_single_defect(run, name):
    # every value of the artifact deleted, or replaced by each of MUTANT_VALUES, and the
    # whole document replaced: validate raises the path and message of jsonschema's
    # best_match, and nothing when jsonschema finds nothing
    path = os.path.join(GOLDEN, run, name)
    schema = ARTIFACT_SCHEMAS[name]
    oracle = jsonschema.validators.validator_for(schema)(schema)
    with open(path) as fh:
        golden = json.load(fh)

    def agree(doc) -> int:
        best = jsonschema.exceptions.best_match(oracle.iter_errors(doc))
        if best is None:
            validate(doc, schema, path)
            return 0
        with pytest.raises(ConfigurationError) as ours:
            validate(doc, schema, path)
        assert str(ours.value) == f"{path}: {best.json_path}: {best.message}"
        return 1

    assert agree(golden) == 0
    defects = sum(agree(value) for value in MUTANT_VALUES)
    for container, key in list(_slots(golden)):
        kept = list(container.items()) if isinstance(container, dict) else list(container)
        for value in MUTANT_VALUES:
            container[key] = value
            defects += agree(golden)
        del container[key]
        defects += agree(golden)
        container.clear()  # back as it was, in its order
        if isinstance(container, dict):
            container.update(kept)
        else:
            container.extend(kept)
    assert agree(golden) == 0
    assert defects > len(MUTANT_VALUES)


# -- artifact text -----------------------------------------------------------


# escapes, control characters, non-ASCII and a lone surrogate, as values and as keys
JSON_STRINGS = (st.text(alphabet=st.characters(), max_size=8)
                | st.sampled_from(["", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f", "é€😀", "\ud800"]))


class _Int(int):
    pass


class _Str(str):
    pass


class _List(list):
    pass


def _json_values(leaves):
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(_List),
        st.dictionaries(JSON_STRINGS, children, max_size=4),
        st.dictionaries(JSON_STRINGS, children, max_size=4).map(OrderedDict)), max_leaves=24)


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.integers(), st.integers(min_value=2**63 - 2, max_value=2**70) | st.integers(max_value=-2**63),
    JSON_STRINGS,
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.integers().map(_Int), JSON_STRINGS.map(_Str),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)))


@given(payload=_json_values(JSON_LEAVES))
@settings(max_examples=150, deadline=None)
def test_json_text_is_the_indented_stdlib_text(payload):
    # the writer's bytes are json.dumps' with indent=2 and sorted keys, the one
    # call every artifact was written with
    want = json.dumps(payload, indent=2, sort_keys=True, default=app._json_default) + "\n"
    assert app._json_text(payload) == want


@pytest.mark.parametrize("payload", [object(), {"a": [1, {"b": object()}]}, {"a": {1, 2}}])
def test_json_text_refuses_what_json_default_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, sort_keys=True, default=app._json_default)
    with pytest.raises(TypeError):
        app._json_text(payload)


def _default_evolution(name: str, overrides=None):
    """(records, constants, h_grid, condition (A)) of a builtin scenario's run."""
    cfg = builtin_config(name, overrides)
    m_manifold, n_manifold = app.SCENARIOS[name].manifolds()
    report = curvature_conditions_report(m_manifold, n_manifold, seed=cfg.seed)
    ev = app.SCENARIOS[name].evolve(cfg, m_manifold, n_manifold, report)
    rec0 = ev.records[0]
    constants = compute_bound_constants(rec0.min_p, rec0.max_theta, min_ric=report.min_ric,
                                        sup_sigma_n=report.sup_sigma_n)
    return ev.records, constants, ev.h_grid, report.cond_a


def _assert_rows_match_oracles(records, constants, h_grid, condition_a):
    # run_scenario evaluates the curves once and hands them to both row builders
    curves = constants.curves([rec.t for rec in records]).tolist()
    old = ref_artifacts.check_decay_bounds(records, constants, h_grid, condition_a)
    for shared in (None, curves):
        new = graphflow.verify.check_decay_bounds(records, constants, h_grid, condition_a,
                                                  curves=shared)
        assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)
        assert app._json_text(new) == app._json_text(old)
    for bounds, oracle_constants in ((curves, constants), (None, None)):
        assert app._csv_text(records, bounds) == ref_artifacts.csv_text(
            [ref_artifacts.csv_row(rec, oracle_constants) for rec in records])


@pytest.mark.parametrize("name, overrides", [
    ("cylinder_waist", None), ("cylinder_drift", None),
    # the default tsui_wang_s2 run takes seconds; the golden config records three states
    ("tsui_wang_s2", {("grid", "nodes"): 32, ("flow", "t_end"): 0.2,
                      ("flow", "record_every"): 80})])
def test_artifact_rows_match_their_per_record_oracles(name, overrides):
    _assert_rows_match_oracles(*_default_evolution(name, overrides))


_CURVATURE = st.floats(-4.0, 4.0)


@given(times=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12),
       values=st.lists(st.floats(), min_size=11 * 12, max_size=11 * 12),
       initial=st.tuples(st.floats(1e-6, 2.0, exclude_max=True), st.floats(0.0, 1e3),
                         _CURVATURE, _CURVATURE),
       h_grid=st.floats(0.0, 1.0), condition_a=st.booleans())
@settings(deadline=None)
def test_synthetic_rows_match_their_per_record_oracles(times, values, initial, h_grid,
                                                       condition_a):
    # every bound is also evaluated where it overflows: both sides then give the same inf or nan
    records = [graphflow.flow.FlowRecord(t, *values[11 * i:11 * i + 11])
               for i, t in enumerate(times)]
    constants = compute_bound_constants(*initial)
    with np.errstate(all="ignore"):
        _assert_rows_match_oracles(records, constants, h_grid, condition_a)


# -- identity suite ----------------------------------------------------------


def test_run_identities_small():
    # seed 1772 reaches mu = 8.8e-7 among its 300 samples: the t oracle must
    # keep 1e-10 for a tiny singular value
    tiny = min(build_svd_frame(df, g_m, g_n).mu.min()
               for g_m, g_n, df, *_ in app._identity_samples(300, 1772).values())
    assert tiny < 1e-6
    for samples, seed in ((300, 7), (300, 1772)):
        report = run_identities(samples=samples, seed=seed)
        assert report["pass"]
        assert report["max_error"] <= 1e-10
        assert set(report["max_errors"]) >= {"s2_plus_t2", "t_oracle", "ric_vw", "w_norm"}


def test_identity_algebra_batched_per_dimension():
    # the dimensions come first, then one block per quantity for m = 2..5; the
    # metrics and the symmetric Ricci matrix, formed per batch, match forming
    # them per sample from the same draws
    batches = app._identity_samples(200, 5)
    rng = np.random.default_rng(5)
    dims = rng.integers(2, 6, 200)
    assert sorted(batches) == sorted(set(dims.tolist()))
    for m in range(2, 6):
        n = int((dims == m).sum())
        if n == 0:
            continue
        a, b = rng.standard_normal((n, m, m)), rng.standard_normal((n, 2, 2))
        df = rng.standard_normal((n, m, 2)) * rng.uniform(0.0, 1.5, (n, 1, 1))
        h_xi, h_eta = rng.standard_normal((2, n))
        r = rng.standard_normal((n, m, m))
        g_m, g_n, df_b, h_xi_b, h_eta_b, ric = batches[m]
        assert len(g_m) == n
        for k in range(n):
            for got, want in ((g_m[k], a[k] @ a[k].T + m * np.eye(m)),
                              (g_n[k], b[k] @ b[k].T + 2 * np.eye(2)),
                              (ric[k], (r[k] + r[k].T) / 2)):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(df_b, df)
        assert np.array_equal(h_xi_b, h_xi) and np.array_equal(h_eta_b, h_eta)


# -- CLI ---------------------------------------------------------------------


def test_cli_identities(capsys):
    assert cli_main(["identities", "--samples", "200"]) == 0
    # no samples printed PASS; a negative seed was a ValueError traceback
    # --samples is bounded: every sample is allocated up front, 1.3 KB each
    for argv in (["--samples", "0"], ["--samples", "-5"], ["--samples", "3", "--seed", "-1"],
                 ["--samples", "1000001"]):
        assert cli_main(["identities", *argv]) == 2
    assert capsys.readouterr().err.count("config error: identities needs") == 4


def test_cli_keeps_its_exit_codes_with_one_parser(tmp_path, capsys):
    # main builds its argument parser once per process; the parses share it
    cfg_path = _write(tmp_path, "[scenario]\nname = hopf_pointwise\n")
    out = str(tmp_path / "out")
    for _ in range(2):
        assert cli_main(["run", cfg_path, "--out", out]) == 0
        assert cli_main(["verify", out]) == 0
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", cfg_path, "--bogus"])
        assert exc.value.code == 2
        assert cli_main(["verify", str(tmp_path / "missing")]) == 2
    assert cli._build_parser() is cli._build_parser()
    assert "verification: PASS" in capsys.readouterr().out


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


def test_cli_run_does_not_import_scipy_integrate(tmp_path):
    # scipy.integrate pulls in scipy.optimize, sparse, special, spatial and fft:
    # +22 MB peak RSS and about 0.3 s of import per process, which the catalog
    # benchmark's peak_rss_mb and setup_s bounds cannot absorb.  A solver
    # that needs solve_ivp must find a scipy-free route, or fail here first.
    # scipy.linalg alone costs 0.32-0.36 s and 22-28 MB, so the package runs with no
    # scipy at all: any scipy import below raises ImportError.  jsonschema is a test
    # oracle only (validate checks the artifact schemas itself), so it is blocked too.
    # One process runs and verifies every golden config (the profile, its monitors, the
    # grid stepper, the drift, the barrier and the Hopf samples) and reproduces its
    # artifacts.
    golden = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "golden", "*")))
    assert len(golden) == 5
    code = ("import os, sys\n"
            "sys.modules['scipy'] = None\n"
            "sys.modules['jsonschema'] = None\n"
            "from graphflow.cli import main\n"
            f"for run in {golden!r}:\n"
            f"    out = os.path.join({str(tmp_path)!r}, os.path.basename(run))\n"
            "    code = main(['run', os.path.join(run, 'config.ini'), '--out', out])\n"
            "    assert code == 0, (run, code)\n"
            "    code = main(['verify', out])\n"
            "    assert code == 0, (run, code)\n"
            "    for name in ('config.ini', 'time_series.csv', 'verification.json',\n"
            "                 'classification.json', 'manifest.json'):\n"
            "        with open(os.path.join(out, name), 'rb') as a, \\\n"
            "                open(os.path.join(run, name), 'rb') as b:\n"
            "            assert a.read() == b.read(), (run, name)\n"
            "assert 'scipy.integrate' not in sys.modules\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("section,key,value", [
    ("flow", "record_every", "0"),   # was a ZeroDivisionError traceback
    ("grid", "nodes", "2"),          # no interior node: a ValueError traceback
    ("flow", "t_end", "-1"),         # an empty run that printed PASS
    ("flow", "t_end", "inf"),        # the drift's step count: an OverflowError traceback
    ("flow", "t_end", "1e300"),      # the drift's arrays: a ValueError traceback
    ("grid", "nodes", "1000000000"),
    ("grid", "shape", "4,4,1000"),
    ("grid", "shape", "a,4,4"),      # a ValueError traceback
    ("grid", "shape", "0,4,4"),      # a ZeroDivisionError traceback
    ("grid", "shape", "2,4,4"),      # df = 0 along axis 0: it flowed and failed its budget
    ("grid", "shape", "4,4"),        # 'grid shape must match dim M': no key, no axis count
    ("grid", "shape", "4,4,4,4"),
    ("initial", "z0", "711"),        # cosh overflows: an OverflowError traceback
    ("initial", "z0", "nan"),
    ("initial", "amplitude", "inf"),  # RuntimeWarnings, then NaN observables
    ("flow", "h_tol", "1e200"),      # h_tol ** 2 overflows: an OverflowError traceback
    ("flow", "h_tol", "-1"),
    ("flow", "cfl", "5"),            # the Courant factor is flow.CFL: no value of cfl is read
])
def test_cli_rejects_out_of_range_values(tmp_path, capsys, section, key, value):
    # the scenario reading the key
    name = {"shape": "torus_projection", "z0": "cylinder_drift"}.get(key, "tsui_wang_s2")
    cfg_path = _write(tmp_path, f"[scenario]\nname = {name}\n[{section}]\n{key} = {value}\n")
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    known = key in app._SCHEMA[section]
    says = f"[{section}] {key}" if known else f"unknown key '{key}' in section [{section}]"
    assert err.count("\n") == 1 and says in err
    with pytest.raises(ConfigurationError):
        builtin_config(name, {(section, key):
                              app._SCHEMA[section][key][0](value) if known else value})


@pytest.mark.parametrize("text, says", [
    # each was a traceback: ZeroDivisionError in the bound constants at min p = 2,
    # LinAlgError in the frame of a map onto the pole, InterpolationSyntaxError.
    # A map constant to working precision is refused before the first step.
    ("[scenario]\nname = tsui_wang_s2\n[grid]\nnodes = 9\n[flow]\nt_end = 0.01\n"
     "[initial]\namplitude = 1e-30\n", "config error: initial profile has min p = 2.0: "),
    ("[scenario]\nname = tsui_wang_s2\n[grid]\nnodes = 9\n[flow]\nt_end = 0.01\n"
     "[initial]\namplitude = 0\n", "config error: initial profile has min p = 2.0: "),
    ("[scenario]\nname =% cylinder_drift\n", "config error: unknown scenario '% cylinder_drift'"),
    # a Courant factor of 1e-6 took a 0.01 s flow 8.6 s; the factor is no key now
    ("[scenario]\nname = tsui_wang_s2\n[grid]\nnodes = 9\n[flow]\nt_end = 0.01\ncfl = 1e-6\n",
     "config error: unknown key 'cfl' in section [flow]: "),
], ids=["constant", "pole", "percent", "cfl"])
def test_cli_rejects_degenerate_input(tmp_path, capsys, text, says):
    cfg_path = _write(tmp_path, text)
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(says)


@pytest.mark.parametrize("name", ["torus_projection", "tsui_wang_s2"])
def test_cli_refuses_a_flow_that_takes_no_step(tmp_path, capsys, name):
    # at t_end = 1e-15 both flows stop before their first step and wrote one CSV row at
    # t = 0; the torus read its stationarity, decay bounds and volume budget PASS over no step
    text = f"[scenario]\nname = {name}\n[flow]\nt_end = 1e-15\n"
    if name == "tsui_wang_s2":  # with a monitor on, the monitors' refusal comes first
        text += "[verify]\nresiduals = off\ninequalities = off\n"
    out = tmp_path / "o"
    assert cli_main(["run", _write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: [flow] t_end = 1e-15: ")
    assert not out.exists()


@pytest.mark.parametrize("name", ["cylinder_drift", "cylinder_waist"])
def test_cylinder_at_a_tiny_t_end_records_its_start_and_end(tmp_path, name):
    cfg = builtin_config(name, {("flow", "t_end"): 1e-15})
    out = str(tmp_path / name)
    assert run_scenario(cfg, out_dir=out).overall_pass
    t = [float(row.split(",")[0]) for row in _read(out, "time_series.csv").splitlines()[1:]]
    assert t == [0.0, 1e-15]


@pytest.mark.parametrize("residuals, inequalities", [
    ("on", "on"), ("on", "off"), ("off", "on"), ("off", "off")])
def test_tsui_monitors_refused_without_a_checkpoint(tmp_path, capsys, residuals, inequalities):
    # the default grid takes 333 steps to t_end = 0.01, fewer than record_every = 400: no
    # recorded state has a step on both sides, so a monitor that is on is evaluated nowhere
    # (residual_p and inequalities used to go missing from a PASS verification.json)
    out = tmp_path / "o"
    text = ("[scenario]\nname = tsui_wang_s2\n[flow]\nt_end = 0.01\n"
            f"[verify]\nresiduals = {residuals}\ninequalities = {inequalities}\n")
    code = cli_main(["run", _write(tmp_path, text), "--out", str(out)])
    err = capsys.readouterr().err
    if "on" in (residuals, inequalities):
        assert code == 2 and err.count("\n") == 1 and not out.exists()
        assert err.startswith("config error: [verify] residuals and inequalities need ")
        assert "333 steps with [flow] record_every = 400" in err
    else:
        assert code == 0
        assert not {"residual_p", "inequalities"} & set(json.loads(
            _read(str(out), "verification.json")))


@pytest.mark.parametrize("section,key,value,says", [
    # the waist barrier and the integrator are no longer config keys
    ("barrier", "kind", "wasit_tube", "unknown config section [barrier]"),
    ("flow", "integrator", "RK9", "unknown key 'integrator'"),
    ("initial", "z0", "2.0", "not inside the sublevel set"),  # was a ValueError traceback
], ids=["kind", "integrator", "z0"])
def test_cli_rejects_bad_waist_settings(tmp_path, capsys, section, key, value, says):
    cfg_path = _write(tmp_path,
                      f"[scenario]\nname = cylinder_waist\n[{section}]\n{key} = {value}\n")
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and says in err


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = str(tmp_path / "edge.ini")
    with open(cfg_path, "w") as fh:
        fh.write("[scenario]\nname = torus_identity_edge\n")
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert cli_main(["run", str(tmp_path / "missing.ini")]) == 2
    assert cli_main(["verify", str(tmp_path / "not_a_run")]) == 2


@pytest.mark.parametrize("command", ["check-curvature", "run"])
def test_cli_refuses_a_chart_without_closed_form_curvature(tmp_path, capsys, monkeypatch,
                                                           command):
    # hopf_pointwise with its S^3 chart stripped of the constant-curvature flag
    hopf = app.SCENARIOS["hopf_pointwise"]

    def manifolds():
        m_manifold, n_manifold = hopf.manifolds()
        return ChartManifold("s3_unflagged", m_manifold.axes, m_manifold._rows_at), n_manifold

    monkeypatch.setitem(app.SCENARIOS, "hopf_pointwise", replace(hopf, manifolds=manifolds))
    cfg_path = _write(tmp_path, "[scenario]\nname = hopf_pointwise\n")
    out = tmp_path / "out"
    assert cli_main([command, cfg_path, *(["--out", str(out)] if command == "run" else [])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: s3_unflagged: no closed-form curvature conditions")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name, extra", [
    ("torus_identity_edge", ""),                     # not strictly area decreasing
    ("cylinder_waist", "[initial]\nz0 = 1.5\n"),  # outside the waist tube z^2 < 1
], ids=["edge", "outside_tube"])
def test_rejected_run_leaves_no_directory(tmp_path, name, extra):
    # the run directory was made before the scenario ran, and stayed behind empty
    cfg_path = _write(tmp_path, f"[scenario]\nname = {name}\n{extra}")
    out = tmp_path / "out"
    assert cli_main(["run", cfg_path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("error", [errors.GraphflowError, *errors.GraphflowError.__subclasses__()],
                         ids=lambda cls: cls.__name__)
def test_cli_exit_code_of_every_error(monkeypatch, capsys, error):
    want = 2 if error in (errors.ConfigurationError, errors.NotAreaDecreasingError) else 3
    assert error in cli.ERROR_EXITS  # every package error is mapped explicitly

    def handler(args):
        raise error("first line\nsecond line")

    monkeypatch.setattr(cli, "_cmd_classify", handler)
    assert cli.main(["classify", "some_run"]) == want
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("first line second line\n")


def test_aborted_torus_step_exits_as_a_solver_abort(tmp_path, monkeypatch, capsys):
    # a non-finite RHS from the second call on (the first step's midpoint; |H|^2
    # reads V from the field's pointwise pass, not through this function) aborts a
    # step: the run exits 3 with the step's diagnostic in one line and writes no run
    # directory, where it used to report the aborted run as Stationary with a
    # passing stationarity
    rhs, calls = graphflow.flow.nonparametric_rhs, Counter()

    def blown(fld):
        calls["rhs"] += 1
        v = rhs(fld)
        return np.full_like(v, np.inf) if calls["rhs"] >= 2 else v

    monkeypatch.setattr(graphflow.flow, "nonparametric_rhs", blown)
    cfg_path = _write(tmp_path, "[scenario]\nname = torus_projection\n[grid]\nshape = 4,4,4\n")
    out = tmp_path / "out"
    assert cli_main(["run", cfg_path, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "solver abort: non-finite map values (CFL violation or blow-up)\n")
    assert calls["rhs"] >= 2 and not out.exists()


GOLDEN_WAIST = os.path.join(os.path.dirname(__file__), "golden", "cylinder_waist")


@pytest.mark.parametrize("command, name, key, value", [
    ("verify", "verification.json", "overall_pass", "yes"),
    ("classify", "classification.json", "class", 4),
])
def test_cli_reports_schema_invalid_artifact(tmp_path, capsys, command, name, key, value):
    run_dir = shutil.copytree(GOLDEN_WAIST, tmp_path / "run")
    path = run_dir / name
    path.write_text(json.dumps(json.loads(path.read_text()) | {key: value}))
    assert cli_main([command, str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert f"{path}: $.{key}: " in err


@pytest.mark.parametrize("command, name", [
    ("verify", "verification.json"),
    ("classify", "classification.json"),
])
def test_cli_reports_malformed_artifact(tmp_path, capsys, command, name):
    run_dir = shutil.copytree(GOLDEN_WAIST, tmp_path / "run")
    path = run_dir / name
    path.write_text('{"schema_version": 1,\n')
    assert cli_main([command, str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert f"{path}: invalid JSON: " in err and "line 2 column 1" in err


def test_verify_prints_the_barrier_verdict(capsys):
    # the barrier section has no top-level pass; its verdict is the convexity
    # certificate and the containment, the two halves that feed overall_pass
    assert cli_main(["verify", GOLDEN_WAIST]) == 0
    assert "barrier: PASS\n" in capsys.readouterr().out


@pytest.mark.parametrize("part, key", [("certificate", "verdict"), ("containment", "pass")])
def test_verify_prints_a_failed_barrier_half(tmp_path, capsys, part, key):
    run_dir = shutil.copytree(GOLDEN_WAIST, tmp_path / "run")
    path = run_dir / "verification.json"
    verification = json.loads(path.read_text())
    verification["barrier"][part][key] = False
    verification["overall_pass"] = False
    path.write_text(json.dumps(verification))
    assert cli_main(["verify", str(run_dir)]) == 1
    out = capsys.readouterr().out
    assert "barrier: FAIL\n" in out and "overall: FAIL\n" in out


@pytest.mark.parametrize("keys, where", [
    (("certificate",), "$.barrier"),
    (("containment",), "$.barrier"),
    (("certificate", "verdict"), "$.barrier.certificate"),
    (("containment", "pass"), "$.barrier.containment"),
])
def test_verify_rejects_a_barrier_without_its_verdict(tmp_path, capsys, keys, where):
    # a barrier that lacks a half has no verdict; it used to print no barrier
    # line and `overall: PASS`
    run_dir = shutil.copytree(GOLDEN_WAIST, tmp_path / "run")
    path = run_dir / "verification.json"
    verification = json.loads(path.read_text())
    section = verification["barrier"]
    for key in keys[:-1]:
        section = section[key]
    del section[keys[-1]]
    path.write_text(json.dumps(verification))
    assert cli_main(["verify", str(run_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert f"{path}: {where}: '{keys[-1]}' is a required property" in err


def test_verify_fails_a_file_whose_verdict_line_fails(tmp_path, capsys):
    # overall_pass still reads true, but a FAIL line fails the run (verify used to exit 0)
    run_dir = shutil.copytree(GOLDEN_WAIST, tmp_path / "run")
    path = run_dir / "verification.json"
    verification = json.loads(path.read_text())
    verification["volume_budget"]["pass"] = False
    assert verification["overall_pass"] is True
    path.write_text(json.dumps(verification))
    assert cli_main(["verify", str(run_dir)]) == 1
    out = capsys.readouterr().out
    assert "volume_budget: FAIL\n" in out and "overall: FAIL\n" in out


def test_verify_rejects_a_barrier_verdict_that_is_not_boolean(tmp_path, capsys):
    run_dir = shutil.copytree(GOLDEN_WAIST, tmp_path / "run")
    path = run_dir / "verification.json"
    verification = json.loads(path.read_text())
    verification["barrier"]["certificate"] = "PASS"
    path.write_text(json.dumps(verification))
    assert cli_main(["verify", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{path}: $.barrier.certificate: " in err
