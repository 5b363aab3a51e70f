"""Bound constants, decay checks, evolution residuals, and the volume budget."""

import math

import numpy as np
import pytest

import reference_geometry as ref
from graphflow.errors import ConfigurationError, NotAreaDecreasingError
from graphflow.flow import EquivariantFlow, FlowParams, FlowRecord, FlowState, step
from graphflow.geometry import (Warp, WarpedSurface, builtin_warp, curvature_conditions_report,
                                flat_torus, product_s1_s2)
from graphflow.immersion import GraphMapField, field_geometry
from graphflow.verify import (_checkpoint, _time_derivative, check_H_and_theta_inequalities,
                              check_decay_bounds, check_volume_budget, compute_bound_constants,
                              decay_rates, residual_p_evolution)


def test_bound_constants_formulas():
    c = compute_bound_constants(min_p0=1.0, max_theta0=0.3, min_ric=1.0, sup_sigma_n=1.0)
    assert c.rho0 == 1.0
    assert c.c0 == pytest.approx(1.0 / math.sqrt(3.0))
    assert c.c1 == pytest.approx(2.0 * math.sqrt(3.0))
    assert c.eps0 == 0.25     # quarter of the Ricci minimum when nonnegative
    assert c.eps1 == 0.0
    assert c.a0 == pytest.approx(0.6)
    assert c.a0_reconstructed
    # bounds at t = 0 reproduce the initial data
    assert c.bound_p(0.0) == pytest.approx(1.0)
    assert c.bound_df2(0.0) == pytest.approx(2.0 * math.sqrt(3.0))
    assert c.bound_theta(0.0) == pytest.approx(0.3)
    # p bound is increasing toward 2, |df|^2 bound decreasing
    assert c.bound_p(5.0) > c.bound_p(1.0)
    assert c.bound_df2(5.0) < c.bound_df2(1.0)


def test_negative_ricci_uses_half_rate():
    c = compute_bound_constants(1.0, 0.1, min_ric=-2.0, sup_sigma_n=-1.0)
    assert c.eps0 == -1.0
    assert c.eps1 == 1.0
    assert c.bound_h2(1.0) == pytest.approx(c.a0 * math.exp(2.0))


def test_constants_reject_non_area_decreasing():
    with pytest.raises(NotAreaDecreasingError):
        compute_bound_constants(0.0, 0.1, 1.0, 1.0)


def _series(constants, ts, inflate=0.0):
    return [FlowRecord(t=t, min_p=float(constants.bound_p(t)) - inflate,
                       max_lambda=0.0, max_mu=0.0, max_df2=0.0,  # max_df2 = 0 <= bound
                       max_h2=float(constants.bound_h2(t)),
                       max_theta=float(constants.bound_theta(t)), volume=1.0, diameter=1.0)
            for t in ts]


def test_check_decay_bounds_pass_and_fail():
    c = compute_bound_constants(1.0, 0.3, 1.0, 1.0)
    ts = [0.0, 1.0, 2.0]
    rows = _series(c, ts)
    res = check_decay_bounds(rows, c, h_grid=0.01)
    assert res["applicable"] and res["pass"]
    bad = _series(c, ts, inflate=1.0)  # min_p far below its lower bound
    res = check_decay_bounds(bad, c, h_grid=0.01)
    assert not res["pass"]
    assert res["worst_margins"]["p"] < 0


def test_bound_curves_are_the_per_time_bounds_bit_for_bit():
    # one curves() call on an array of times gives each bound_* at each time; at
    # the first time e = c0 exp(eps0 t) = 22.11..., where a scalar e**2 (pow) is
    # 1 ulp off the array's e * e with glibc
    c = compute_bound_constants(1.0, 0.3, 3.0, 3.0)
    t = np.concatenate([[4.860586537059564], np.random.default_rng(0).uniform(0, 1e3, 2000)])
    with np.errstate(all="ignore"):  # the bounds overflow at large t
        per_time = [[float(bound(x)) for x in t.tolist()]
                    for bound in (c.bound_p, c.bound_df2, c.bound_h2, c.bound_theta)]
        assert np.array_equal(c.curves(t), per_time, equal_nan=True)


def test_check_decay_bounds_not_applicable():
    c = compute_bound_constants(1.0, 0.3, 1.0, 1.0)
    res = check_decay_bounds([], c, h_grid=0.01, condition_a=False)
    assert res["applicable"] is False


def test_time_derivative_exact_on_quadratics():
    f = lambda t: 3.0 * t**2 - 2.0 * t + 1.0
    fp = lambda t: 6.0 * t - 2.0
    t0, dtp, dtn = 1.3, 0.07, 0.011
    val = _time_derivative(f(t0 - dtp), f(t0), f(t0 + dtn), dtp, dtn)
    assert val == pytest.approx(fp(t0), abs=1e-10)


def test_stationary_residual_is_tiny():
    n = 16
    m = flat_torus(2)
    xs = np.arange(n) * 2 * math.pi / n
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    field = GraphMapField(m, flat_torus(2, scale=0.5), (n, n), np.stack([xg, yg], -1))
    rows = residual_p_evolution([(0.0, 1.0, 1.0, field, field, field)])
    assert rows[0]["linf"] <= 1e-10


def test_residual_p_refines_second_order():
    vals = {}
    for J, cadence in ((32, 60), (64, 240)):
        eq = EquivariantFlow(J, lambda th: 0.8 * np.sin(th))
        run = eq.run(t_end=0.25, record_every=cadence)
        triples = [eq.stencil_fields(s) for s in run.states if s.stencil]
        rows = residual_p_evolution(triples)
        vals[J] = rows[0]["l2"]
    assert 3.0 < vals[32] / vals[64] < 5.0


def test_inequalities_hold_on_equivariant_run():
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    run = eq.run(t_end=0.25, record_every=60)
    triples = [eq.stencil_fields(s) for s in run.states if s.stencil]
    res = check_H_and_theta_inequalities(triples, eps1=0.0)
    assert res["pass"]
    assert res["checkpoints"]
    for cp in res["checkpoints"]:
        assert cp["worst_w_excess"] <= 1e-12  # |w|^2 <= |H|^2 pointwise


def _two_steps(field):
    # a time stencil: the field and two RK2 steps of it
    states = [FlowState(field=field, min_p=field.min_p())]
    for _ in range(2):
        states.append(step(states[-1], FlowParams(t_end=1.0)))
    s0, s1, s2 = states
    return (s1.t, s1.t - s0.t, s2.t - s1.t, s0.field, s1.field, s2.field)


def _s1s2_triple(shape):
    # the circle z = 0.5 on the cosh cylinder, then two RK2 steps: one time stencil
    m_manifold, surface = product_s1_s2(), WarpedSurface(builtin_warp("cosh"))
    x = GraphMapField(m_manifold, surface, shape, np.zeros(shape + (2,))).coords()
    return _two_steps(GraphMapField(m_manifold, surface, shape,
                                    np.stack([x[..., 0], np.full(shape, 0.5)], axis=-1)))


def test_monitors_refuse_a_grid_without_interior_nodes():
    # 8 theta nodes are all within SEAM_MARGIN of a pole: no node to check
    triple = _s1s2_triple((4, 8, 4))
    with pytest.raises(ConfigurationError, match=r"grid shape \(4, 8, 4\) has no interior node"):
        triple[4].interior_mask()
    with pytest.raises(ConfigurationError, match=r"grid shape \(4, 8, 4\) has no interior node"):
        residual_p_evolution([triple])
    with pytest.raises(ConfigurationError, match=r"grid shape \(4, 8, 4\) has no interior node"):
        check_H_and_theta_inequalities([triple], eps1=0.0)
    # 10 theta nodes leave two interior rings
    triple = _s1s2_triple((4, 10, 4))
    assert residual_p_evolution([triple])[0]["nodes"] == 4 * 2 * 4
    assert check_H_and_theta_inequalities([triple], eps1=0.0)["checkpoints"][0]["nodes"] > 0


def _bi_ricci_field() -> GraphMapField:
    # N: the warp w = 2 + cos z, whose Gauss curvature cos z / (2 + cos z) peaks
    # at 1/3.  A graph over S^1 x S^2 with no symmetry: every mixed derivative is live
    warp = Warp("two_plus_cos", lambda z: 2 + np.cos(z), lambda z: -np.sin(z),
                lambda z: -np.cos(z))
    m_manifold, surface = product_s1_s2(), WarpedSurface(warp)
    shape = (4, 12, 4)
    x = GraphMapField(m_manifold, surface, shape, np.zeros(shape + (2,))).coords()
    s, th, ph = x[..., 0], x[..., 1], x[..., 2]
    f = np.stack([s + 0.02 * np.sin(th) * np.cos(ph), 0.5 + 0.02 * np.cos(s + ph)], axis=-1)
    return GraphMapField(m_manifold, surface, shape, f)


def test_monitors_in_the_bi_ricci_regime():
    # On S^1 x S^2 -> (w = 2 + cos z), min BRic = 1 >= sup sigma_N = 1/3 > 0 = min Ric:
    # the paper's case, where the area-decreasing property is preserved but
    # convergence is not promised, and sec_M = 0 < sigma_N on the S^1 planes
    field = _bi_ricci_field()
    report = curvature_conditions_report(field.M, field.N)
    assert report.cond_a and report.cond_b and not report.cond_c
    assert report.min_bric == 1.0 and report.min_ric == 0.0
    assert report.sup_sigma_n == pytest.approx(1 / 3)

    states = [FlowState(field=field, min_p=field.min_p())]
    params = FlowParams(t_end=0.05)
    while states[-1].t < params.t_end:
        states.append(step(states[-1], params))
    assert states[-1].status == "Running"
    min_p = np.array([st.min_p for st in states])
    assert min_p[0] > 0 and np.all(np.diff(min_p) >= 0)  # preserved and never falling

    s0, s1, s2 = states[-3:]
    triple = (s1.t, s1.t - s0.t, s2.t - s1.t, s0.field, s1.field, s2.field)
    (res,) = residual_p_evolution([triple])
    assert res["nodes"] == 64 and res["l2"] < 1e-3
    _, eps1 = decay_rates(report.min_ric, report.sup_sigma_n)
    (cp,) = check_H_and_theta_inequalities([triple], eps1=eps1)["checkpoints"]
    # the slacks themselves, not ``pass``: its tolerance here is about 25
    assert cp["nodes"] == 64
    assert cp["worst_slack_h"] >= 0 and cp["worst_slack_theta"] >= 0
    assert cp["worst_w_excess"] <= 1e-12


def _torus3_to_t2_triple():
    # T^3 -> T^2(0.5) on 8^3 nodes, off the stationary projection: a non-constant induced metric
    m_manifold, target, shape = flat_torus(3), flat_torus(2, scale=0.5), (8, 8, 8)
    x = GraphMapField(m_manifold, target, shape, np.zeros(shape + (2,))).coords()
    return _two_steps(GraphMapField(m_manifold, target, shape, x[..., :2] + 0.1 * np.stack(
        [np.sin(x[..., 2]), np.cos(x[..., 0])], axis=-1)))


@pytest.mark.parametrize("make_triple", [
    lambda: _two_steps(_bi_ricci_field()), lambda: _tsui_triple(), _torus3_to_t2_triple],
    ids=["s1xs2_two_plus_cos_4x12x4", "tsui_lift_32", "t3_t2_8"])
def test_monitors_match_the_induced_christoffel_oracle(make_triple):
    # A along xi and eta from the Hessian of f in M's connection, and the lhs from the
    # g-trace of the scalars' Hessians in M's connection, against the formulas over the
    # induced Christoffels they replaced (``reference_geometry``): the two differ by
    # <(D, df D), nu> = 0 and by the advection X . grad u that Gamma_g - Gamma_M cancels
    triple = make_triple()
    field = triple[4]
    mask = field.interior_mask()
    assert np.abs(ref.tangent_field(field)[mask]).max() > 1e-2  # a live advection term
    geo, want = field_geometry(field), ref.christoffel_field_geometry(field)
    # tr A_xi of an equivariant lift is zero up to rounding: xi and eta share their pair's scale
    for pair in (("a_xi", "a_eta"), ("h_xi", "h_eta")):
        scale = max(np.abs(want[key]).max() for key in pair)
        for key in pair:
            assert np.abs(getattr(geo, key) - want[key]).max() <= 1e-12 * scale, key
    lhs, want_lhs = _checkpoint(triple)[1], ref.christoffel_checkpoint_lhs(triple)[:, mask]
    for row, name in enumerate(("p", "|H|^2", "Theta")):
        assert np.abs(want_lhs[row]).max() > 1e-3, name
        assert np.abs(lhs[row] - want_lhs[row]).max() <= 1e-12 * np.abs(want_lhs[row]).max(), name


def _tsui_triple():
    # M = S^2 (k = 1): a checkpoint of the tsui_wang_s2 profile flow
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    run = eq.run(t_end=0.05, record_every=20)
    return next(eq.stencil_fields(s) for s in run.states if s.stencil)


def _torus_triple():
    # M = T^3 (k = 0): the torus_projection stand-in, a stationary projection
    m_manifold, shape = flat_torus(3), (4, 4, 4)
    x = GraphMapField(m_manifold, flat_torus(2), shape, np.zeros(shape + (2,))).coords()
    field = GraphMapField(m_manifold, flat_torus(2, scale=0.5), shape, x[..., :2])
    return (0.0, 1.0, 1.0, field, field, field)


@pytest.mark.parametrize("make_triple, k", [(_tsui_triple, 1.0), (_torus_triple, 0.0)])
def test_monitors_read_every_m_from_its_chart_curvature(monkeypatch, make_triple, k):
    # a constant curvature is one block over all axes, so a space form takes
    # the same path as a product: one ChartManifold.curvature call per checkpoint,
    # which both monitors share
    triple = make_triple()
    m_manifold = triple[4].M
    curvature, seen = m_manifold.curvature, []

    def counted(g, v, w):
        ricci, sig_m = curvature(g, v, w)
        seen.append((ref.quad_form(v, ricci, v), ref.quad_form(w, ricci, w), sig_m))
        return ricci, sig_m

    monkeypatch.setattr(m_manifold, "curvature", counted)
    residual_p_evolution([triple])
    assert len(seen) == 1
    check_H_and_theta_inequalities([triple], eps1=0.0)
    assert len(seen) == 1
    residual_p_evolution([(triple[0], 2 * triple[1]) + triple[2:]])  # another checkpoint
    assert len(seen) == 2
    ric11, ric22, sig_m = seen[0]  # at the residual's nodes
    assert ric11.size == triple[4].interior_mask().sum()
    assert np.abs(ric11 - k).max() <= 1e-15 and np.abs(ric22 - k).max() <= 1e-15
    assert np.all(sig_m == k)


def test_inequalities_pass_where_no_node_is_above_the_h_floor():
    # a linear map between flat tori is minimal: every node is interior, none
    # has |H| above the floor, and the check passes over no node
    n = 8
    xs = np.arange(n) * 2 * math.pi / n
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    field = GraphMapField(flat_torus(2), flat_torus(2, scale=0.5), (n, n), np.stack([xg, yg], -1))
    assert field.interior_mask().all()
    res = check_H_and_theta_inequalities([(0.0, 1.0, 1.0, field, field, field)], eps1=0.0)
    assert res["pass"] and res["checkpoints"][0]["nodes"] == 0


def test_volume_budget():
    assert check_volume_budget(10.0, 9.0, 1.0)["pass"]
    assert not check_volume_budget(10.0, 9.0, 2.0)["pass"]
    trivial = check_volume_budget(10.0, 10.0, 0.0)
    assert trivial["pass"] and trivial["relative_error"] == 0.0
