"""Smoke runs of the command-line scripts under scripts/ at tiny sizes."""

import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# tiny arguments per case; a case is named by its script, then an optional
# "-label"; None stands for the test's temporary directory
ARGV = {
    "drift_vs_waist": ["--t-end", "0.01"],
    "refinement_study": ["--levels", "16", "32"],
    "run_scenarios": ["cylinder_drift", "--out-root", None],
    # each override reaches only the scenarios that read its key
    "run_scenarios-overrides": ["tsui_wang_s2", "cylinder_drift", "hopf_pointwise",
                                "--nodes", "32", "--t-end", "1.0", "--out-root", None],
}


@pytest.mark.parametrize("name", sorted(ARGV))
def test_script_runs(tmp_path, capsys, name):
    argv = [str(tmp_path) if a is None else a for a in ARGV[name]]
    assert _load(name.split("-")[0]).main(argv) == 0
    assert capsys.readouterr().out
