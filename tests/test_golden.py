"""Golden artifacts: every builtin scenario that writes a run re-runs at a
small size and must reproduce its committed copy under ``tests/golden/``
byte for byte (``run.log`` holds timestamps and is not kept).

After a change that is meant to move the artifacts, regenerate them with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict

import numpy as np
import pytest

from graphflow.app import SCENARIOS, builtin_config, load_config, run_scenario
from graphflow.cli import main as cli_main
from graphflow.geometry import curvature_conditions_report

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CONFIGS = {
    "tsui_wang_s2": {("grid", "nodes"): 32, ("flow", "t_end"): 0.2,
                     ("flow", "record_every"): 80},
    "cylinder_drift": {},
    "cylinder_waist": {("flow", "record_every"): 2000},
    "torus_projection": {("grid", "shape"): "4,4,4"},
    "hopf_pointwise": {},
}

FILES = ("config.ini", "time_series.csv", "verification.json", "classification.json",
         "manifest.json")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden(name, tmp_path):
    out = str(tmp_path / name)
    run_scenario(builtin_config(name, CONFIGS[name]), out_dir=out)
    for fname in FILES:
        assert _read(os.path.join(out, fname)) == \
            _read(os.path.join(GOLDEN_DIR, name, fname)), f"{name}/{fname}"


def test_rerun_into_a_run_directory_gives_golden_bytes(tmp_path):
    # a rerun replaces every artifact, and a file hard-linked to an artifact
    # of the earlier run keeps that run's bytes
    golden = os.path.join(GOLDEN_DIR, "cylinder_waist")
    out, snapshot = str(tmp_path / "run"), tmp_path / "snapshot"
    short = str(tmp_path / "short.ini")
    with open(short, "w") as fh:
        fh.write("[scenario]\nname = cylinder_waist\n[flow]\nt_end = 1.0\n")
    assert cli_main(["run", short, "--out", out]) == 0
    snapshot.mkdir()
    old = {}
    for fname in FILES:
        os.link(os.path.join(out, fname), snapshot / fname)
        old[fname] = _read(snapshot / fname)
    for _ in range(2):
        assert cli_main(["run", os.path.join(golden, "config.ini"), "--out", out]) == 0
        for fname in FILES:
            assert _read(os.path.join(out, fname)) == _read(os.path.join(golden, fname)), fname
    for fname in FILES:
        assert _read(snapshot / fname) == old[fname], fname
    assert old["time_series.csv"] != _read(os.path.join(golden, "time_series.csv"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_config_reproduces_its_run(name):
    # a run's config.ini loads as a config, lists only the scenario's settings
    # and carries the hash of the run's manifest
    path = os.path.join(GOLDEN_DIR, name, "config.ini")
    cfg = load_config(path)
    assert cfg.canonical_text().encode() == _read(path)
    with open(os.path.join(GOLDEN_DIR, name, "manifest.json")) as fh:
        assert cfg.config_hash() == json.load(fh)["config_hash"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_prints_the_bytes_json_dumps_printed(name, capsys):
    # classify and check-curvature print through the artifacts' writer; their stdout
    # is what json.dumps(indent=2, sort_keys=True) printed
    golden = os.path.join(GOLDEN_DIR, name)
    with open(os.path.join(golden, "classification.json")) as fh:
        classification = json.load(fh)
    assert cli_main(["classify", golden]) == 0
    assert capsys.readouterr().out == json.dumps(classification, indent=2, sort_keys=True) + "\n"
    cfg = load_config(os.path.join(golden, "config.ini"))
    report = asdict(curvature_conditions_report(*SCENARIOS[cfg.name].manifolds(), seed=cfg.seed))
    cli_main(["check-curvature", os.path.join(golden, "config.ini")])
    assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_tsui_golden_holds_on_another_blas_kernel(tmp_path):
    # the tsui golden's bytes do not depend on the BLAS kernel: a run on OpenBLAS's
    # Prescott kernels (SSE3, no FMA; any x86-64 CPU runs them) writes them too.
    # OpenBLAS reads OPENBLAS_CORETYPE when it loads, so the run is a child process
    golden, out = os.path.join(GOLDEN_DIR, "tsui_wang_s2"), str(tmp_path / "run")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys\nfrom graphflow.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    proc = subprocess.run([sys.executable, "-c", code, "run", os.path.join(golden, "config.ini"),
                           "--out", out], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for fname in FILES:
        assert _read(os.path.join(out, fname)) == _read(os.path.join(golden, fname)), fname


def test_curvature_reports_draw_no_random_number(monkeypatch):
    # every builtin pair (M, N) has a closed form, so its report draws nothing,
    # and it is the curvature_conditions section of the scenario's golden run
    def no_rng(*args, **kwargs):
        raise AssertionError("the curvature report drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for name, scenario in SCENARIOS.items():
        golden = os.path.join(GOLDEN_DIR, name)
        # torus_identity_edge is rejected before it writes a run, so it has no golden
        seed = load_config(os.path.join(golden, "config.ini")).seed if name in CONFIGS else 0
        report = asdict(curvature_conditions_report(*scenario.manifolds(), seed=seed))
        if name in CONFIGS:
            with open(os.path.join(golden, "verification.json")) as fh:
                assert report == json.load(fh)["curvature_conditions"], name


if __name__ == "__main__":
    for name, overrides in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            run_scenario(builtin_config(name, overrides), out_dir=tmp)
            dest = os.path.join(GOLDEN_DIR, name)
            os.makedirs(dest, exist_ok=True)
            for fname in FILES:
                shutil.copyfile(os.path.join(tmp, fname), os.path.join(dest, fname))
        print(f"wrote {dest}")
