"""Fuzz of ``graphflow.cli.main`` on outside input.

Whatever the config text, run directory or argument list, ``main`` returns an
exit code in {0, 1, 2, 3} and raises nothing; argparse's ``SystemExit(2)``
counts as exit 2.  Valid configs are kept to short runs (t_end <= 0.05, at
most 16 profile nodes, at most 4 grid nodes per axis), so the fuzz stays a few
seconds of the suite.  A mangled config, or a short one with
any number in one value, is run when it loads as a short run, must exit 2 from
``run`` when it does not load or loads with t_end above the bound, and is
only checked with ``check-curvature`` when it loads as a longer run.
"""

import configparser
import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from graphflow import cli
from graphflow.app import SCENARIOS, T_END_MAX, load_config
from graphflow.errors import GraphflowError
from graphflow.geometry import WARP_Z_MAX

EXIT_CODES = {0, 1, 2, 3}
SHORT_T_END = 0.05
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _main(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    return code


# -- valid short configs -----------------------------------------------------

_boolean = st.sampled_from(sorted(configparser.ConfigParser.BOOLEAN_STATES)).flatmap(
    lambda s: st.sampled_from([s, s.upper(), s.capitalize()]))
VALUES = {  # (section, key) -> values inside the schema, kept to short runs
    ("grid", "nodes"): st.integers(9, 16).map(str),
    ("grid", "shape"): st.lists(st.integers(3, 4), min_size=3, max_size=3).map(
        lambda v: ",".join(map(str, v))),
    ("flow", "t_end"): st.floats(0.0, SHORT_T_END, exclude_min=True).map(repr),
    ("flow", "record_every"): st.integers(1, 1000).map(str),
    ("flow", "h_tol"): st.floats(0.0, 1.0, exclude_min=True).map(repr),
    ("initial", "amplitude"): st.floats(-math.pi, math.pi).map(repr),
    ("initial", "z0"): st.floats(-WARP_Z_MAX, WARP_Z_MAX).map(repr),
    ("verify", "residuals"): _boolean,
    ("verify", "inequalities"): _boolean,
}
ALWAYS = {("grid", "nodes"), ("grid", "shape"), ("flow", "t_end")}  # defaults are long runs
NUMBERS = (st.sampled_from(["inf", "-inf", "nan", "1e300", "-1e300"]) | st.floats().map(repr)
           | st.integers().map(str))


@st.composite
def short_configs(draw, wild=False) -> str:
    """A valid short config; with ``wild``, one of its values is any number."""
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    keys = [k for k in SCENARIOS[name].settings if k in ALWAYS or draw(st.booleans())]
    values = {k: draw(VALUES[k]) for k in keys}
    if wild and keys:
        values[draw(st.sampled_from(keys))] = draw(NUMBERS)
    sections = {"scenario": [f"name = {name}", f"seed = {draw(st.integers())}"]}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "".join(f"{line}\n" for line in lines)
                   for s, lines in sections.items())


@st.composite
def mangled_configs(draw) -> bytes:
    data = draw(short_configs()).encode()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 12)))
        patch = draw(st.text(max_size=8).map(str.encode) | st.binary(max_size=4))
        data = data[:i] + patch + data[j:]
    return data


def _run_codes(path: str) -> Optional[set]:
    """The exit codes ``run`` may give on the config file, or None where it
    loads as a longer run inside the bounds, which the fuzz does not run."""
    try:
        cfg = load_config(path)
    except GraphflowError:
        return {2}  # rejected before any flow runs
    t_end = cfg.values.get(("flow", "t_end"), 0.0)
    if not t_end <= T_END_MAX:  # loaded beyond the bound: run must still refuse it
        return {2}
    shape = cfg.values.get(("grid", "shape"), "4")
    if (t_end <= SHORT_T_END and cfg.values.get(("grid", "nodes"), 0) <= 16
            and max(int(n) for n in shape.split(",")) <= 4):
        return EXIT_CODES
    return None


@FUZZ
@given(text=short_configs())
def test_cli_on_valid_short_configs(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.ini")
        with open(path, "w") as fh:
            fh.write(text)
        assert _main(["check-curvature", path]) in {0, 1}
        out = os.path.join(tmp, "out")
        code = _main(["run", path, "--out", out])
        if code in {0, 1}:  # a run that wrote its artifacts reads back with the same verdict
            assert _main(["verify", out]) == code
            assert _main(["classify", out]) == 0


@FUZZ
@given(data=mangled_configs() | st.binary(max_size=64))
def test_cli_on_mangled_config_text(data):
    _check_config_file(data)


@FUZZ
@given(text=short_configs(wild=True))
def test_cli_on_any_number_in_a_value(text):
    _check_config_file(text.encode())


def _check_config_file(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.ini")
        with open(path, "wb") as fh:
            fh.write(data)
        _main(["check-curvature", path])
        codes = _run_codes(path)
        if codes is not None:
            assert _main(["run", path, "--out", os.path.join(tmp, "out")]) in codes


# -- mangled run directories -------------------------------------------------

ARTIFACTS = ("config.ini", "time_series.csv", "verification.json", "classification.json",
             "manifest.json", "run.log")
RUN_CONFIGS = {
    "torus_projection": "[grid]\nshape = 3,3,3\n",
    "cylinder_waist": "[flow]\nt_end = 0.05\n",
    "hopf_pointwise": "",
}
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def recorded_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    for name, extra in RUN_CONFIGS.items():
        path = root / f"{name}.ini"
        path.write_text(f"[scenario]\nname = {name}\n{extra}")
        assert _main(["run", str(path), "--out", str(root / name)]) == 0
    return root


def _slots(value, out):
    """Every (container, key) slot inside a JSON value, outermost first."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        out.append((value, key))
        _slots(item, out)
    return out


@FUZZ
@given(name=st.sampled_from(sorted(RUN_CONFIGS)), target=st.sampled_from(ARTIFACTS),
       how=st.sampled_from(["delete", "bytes", "splice", "json_value", "json_whole",
                            "directory"]),
       data=st.data())
def test_cli_on_mangled_run_directories(recorded_runs, name, target, how, data):
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = os.path.join(tmp, "run")
        shutil.copytree(recorded_runs / name, run_dir)
        path = os.path.join(run_dir, target)
        with open(path, "rb") as fh:
            old = fh.read()
        if how == "delete":
            os.unlink(path)
        elif how == "directory":
            os.unlink(path)
            os.mkdir(path)
        else:
            if how == "bytes":
                new = data.draw(st.binary(max_size=64))
            elif how == "splice":
                i = data.draw(st.integers(0, len(old)))
                j = data.draw(st.integers(i, min(len(old), i + 16)))
                new = old[:i] + data.draw(st.binary(max_size=8)) + old[j:]
            elif how == "json_whole" or not target.endswith(".json"):
                new = json.dumps(data.draw(_json)).encode()
            else:
                doc = json.loads(old)
                slots = _slots(doc, [])  # a top-level section, or any value inside one
                container, key = data.draw(st.sampled_from([(doc, k) for k in doc])
                                           | st.sampled_from(slots))
                container[key] = data.draw(_json)
                new = json.dumps(doc).encode()
            with open(path, "wb") as fh:
                fh.write(new)
        _main(["verify", run_dir])
        _main(["classify", run_dir])
        cfg = os.path.join(tmp, "cfg.ini")  # a rerun replaces whatever the directory holds
        with open(cfg, "w") as fh:
            fh.write(f"[scenario]\nname = {name}\n{RUN_CONFIGS[name]}")
        assert _main(["run", cfg, "--out", run_dir]) in {0, 2}


# -- argument lists ----------------------------------------------------------


@FUZZ
@given(command=st.sampled_from(["run", "verify", "classify", "check-curvature", "identities",
                                ""]),
       tokens=st.lists(st.one_of(
           st.sampled_from(["--out", "--samples", "--seed", "-h", "--", "=", "CFG", "RUN", "DIR",
                            "FILE", "MISSING"]),
           st.integers(-3, 40).map(str), st.text(max_size=6)), max_size=4))
def test_cli_on_argument_lists(recorded_runs, command, tokens):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.ini")
        with open(cfg, "w") as fh:
            fh.write("[scenario]\nname = hopf_pointwise\n")
        paths = {"CFG": cfg, "RUN": str(recorded_runs / "hopf_pointwise"), "DIR": tmp,
                 "FILE": str(recorded_runs / "hopf_pointwise" / "run.log"),
                 "MISSING": os.path.join(tmp, "missing")}
        argv = [paths.get(t, t) for t in [command, *tokens] if t]
        if "run" in argv and "--out" not in argv:  # keep the default runs/ out of the tree
            argv += ["--out", os.path.join(tmp, "out")]
        if "identities" in argv and "--samples" not in argv:  # not the default 10,000
            argv += ["--samples", "20"]
        _main(argv)
