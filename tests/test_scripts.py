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


# tiny arguments per script; None stands for the test's temporary directory
ARGV = {
    "drift_vs_waist": ["--t-end", "0.01"],
    "refinement_study": ["--levels", "16", "32"],
    "run_scenarios": ["cylinder_drift", "--out-root", None],
}


@pytest.mark.parametrize("name", sorted(ARGV))
def test_script_runs(tmp_path, capsys, name):
    argv = [str(tmp_path) if a is None else a for a in ARGV[name]]
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out
