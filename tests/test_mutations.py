"""Each verdict that feeds ``overall_pass`` can fail: one injected defect per verdict.

A test runs a small scenario twice, as it is and with one known defect
monkeypatched into the program, and asserts that the clean run passes while
the defect turns its section, and so ``overall_pass``, to FAIL.  It reads each
run back through ``graphflow verify`` too, which must exit 1 on the broken run
and print FAIL on the line of the broken section.  The
inequality slacks and the diameter fit are left out: the former's tolerance
(6-25 on these grids) cannot fail, and the latter does not feed
``overall_pass``.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from graphflow import app, verify
from graphflow.app import builtin_config, run_identities, run_scenario, verdicts
from graphflow.cli import main as cli_main


def _scaled_dissipation(monkeypatch):
    # the volume budget must see a dissipation 5 % off
    def drift(*args, **kwargs):
        run = original(*args, **kwargs)
        return dataclasses.replace(run, dissipation=1.05 * run.dissipation)
    original = app.reduce_circle_drift
    monkeypatch.setattr(app, "reduce_circle_drift", drift)


def _tight_p_bound(monkeypatch):
    # c0 1 % high puts the lower bound on min p above its initial value
    def constants(*args, **kwargs):
        c = compute(*args, **kwargs)
        return dataclasses.replace(c, c0=1.01 * c.c0)
    compute = app.compute_bound_constants
    monkeypatch.setattr(app, "compute_bound_constants", constants)


def _hopf_df_off(monkeypatch):
    # d eta of the Hopf map's first component off by 1e-9
    def invariants(g_m_inv, g_n, df):
        return original(g_m_inv, g_n, df + np.array([[1e-9, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    original = app.singular_value_invariants
    monkeypatch.setattr(app, "singular_value_invariants", invariants)


def _torus_node_moves(monkeypatch):
    # one node of the stationary projection moved by 1e-9 per step
    def moving_step(state, params):
        nxt = original(state, params)
        f = nxt.field.f.copy()
        f[0, 0, 0, 0] += 1e-9
        return dataclasses.replace(nxt, field=nxt.field.with_values(f))
    original = app.step
    monkeypatch.setattr(app, "step", moving_step)


def _curvature_source_off(monkeypatch):
    # the curvature source Q of the p evolution off by 1e-9
    original = verify.quantity_Q
    monkeypatch.setattr(verify, "quantity_Q", lambda *args: original(*args) + 1e-9)


def _barrier_hessian_flipped(monkeypatch):
    # the waist barrier with the sign of its chart Hessian flipped is not convex
    def barrier(level):
        bar = original(level)
        return dataclasses.replace(bar, hess=lambda y: -bar.hess(y))
    original = app.waist_tube_barrier
    monkeypatch.setattr(app, "waist_tube_barrier", barrier)


def _circle_leaves_the_tube(monkeypatch):
    # every state after the first 0.6 further from the waist: outside z^2 < 1
    def drift(*args, **kwargs):
        run = original(*args, **kwargs)
        run.z[1:] += 0.6
        return run
    original = app.reduce_circle_drift
    monkeypatch.setattr(app, "reduce_circle_drift", drift)


# (scenario, overrides, defect, whether the verification passes the verdict, the section
# whose `graphflow verify` line the defect turns to FAIL, or None for a verdict with no key)
CASES = {
    "volume_budget": ("cylinder_drift", {("flow", "t_end"): 1.0}, _scaled_dissipation,
                      lambda v: v["volume_budget"]["pass"], "volume_budget"),
    "decay_bounds": ("cylinder_drift", {("flow", "t_end"): 1.0}, _tight_p_bound,
                     lambda v: v["decay_bounds"]["pass"], "decay_bounds"),
    "pointwise": ("hopf_pointwise", {}, _hopf_df_off, lambda v: v["pointwise"]["pass"],
                  "pointwise"),
    "stationarity": ("torus_projection", {("grid", "shape"): "4,4,4"}, _torus_node_moves,
                     lambda v: v["stationarity"]["pass"], "stationarity"),
    # the torus residual feeds overall_pass through its linf, with no pass key
    "torus_residual_p": ("torus_projection", {("grid", "shape"): "4,4,4"},
                         _curvature_source_off,
                         lambda v: v["residual_p"]["checkpoints"][0]["linf"] <= 1e-10, None),
    "barrier_certificate": ("cylinder_waist", {("flow", "t_end"): 2.0}, _barrier_hessian_flipped,
                            lambda v: v["barrier"]["certificate"]["verdict"], "barrier"),
    "barrier_containment": ("cylinder_waist", {("flow", "t_end"): 2.0}, _circle_leaves_the_tube,
                            lambda v: v["barrier"]["containment"]["pass"], "barrier"),
}


def _verification(name, overrides, out):
    manifest = run_scenario(builtin_config(name, overrides), str(out))
    with open(os.path.join(out, "verification.json")) as fh:
        verification = json.load(fh)
    assert verification["overall_pass"] is manifest.overall_pass
    return verification


def _verify_lines(out, capsys):
    """The exit code and printed lines of `graphflow verify` on a run directory."""
    capsys.readouterr()
    code = cli_main(["verify", str(out)])
    return code, capsys.readouterr().out.splitlines()


def _verdict_lines(verification):
    return [f"{key}: {'PASS' if ok else 'FAIL'}" for key, ok in verdicts(verification).items()]


@pytest.mark.parametrize("verdict", sorted(CASES))
def test_injected_defect_fails_its_verdict(tmp_path, monkeypatch, capsys, verdict):
    name, overrides, defect, passes, section = CASES[verdict]
    clean = _verification(name, overrides, tmp_path / "clean")
    assert passes(clean) and clean["overall_pass"]
    assert _verify_lines(tmp_path / "clean", capsys) == (0, [*_verdict_lines(clean),
                                                            "overall: PASS"])
    defect(monkeypatch)
    broken = _verification(name, overrides, tmp_path / "broken")
    assert not passes(broken)
    assert broken["overall_pass"] is False
    code, lines = _verify_lines(tmp_path / "broken", capsys)
    assert code == 1 and lines == [*_verdict_lines(broken), "overall: FAIL"]
    if section is None:  # no line of its own: only overall shows it
        assert all(line.endswith(": PASS") for line in lines[:-1])
    else:
        assert f"{section}: FAIL" in lines


def test_injected_defect_fails_the_identities(monkeypatch, capsys):
    assert run_identities(200, seed=3)["pass"]
    original = app.w_norm_sq
    monkeypatch.setattr(app, "w_norm_sq", lambda *args: original(*args) + 1e-9)
    report = run_identities(200, seed=3)
    assert not report["pass"] and report["max_errors"]["w_norm"] > 1e-10
    assert cli_main(["identities", "--samples", "200", "--seed", "3"]) == 1
    assert "identities: FAIL" in capsys.readouterr().out
