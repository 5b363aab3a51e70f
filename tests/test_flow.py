"""Time integration: nonparametric velocity, equivariant and drift reductions."""

import functools
import math
import sys
from collections import Counter

import numpy as np
import pytest

from graphflow.classify import classify_limit
from graphflow.errors import NotAreaDecreasingError, SolverAbort
import graphflow.flow
from graphflow.flow import (_AB8, _AM9, ADAMS_STEP, DRIFT_DT, DRIFT_STEP, EquivariantFlow,
                            FlowParams, FlowRecord, FlowState, _adams_dense, _sample_times,
                            cfl_dt, drift_velocity, h2_field, nonparametric_rhs,
                            reduce_circle_drift, step, tangential_vector_field)
from graphflow.geometry import (WarpedSurface, builtin_warp, curvature_conditions_report,
                                flat_torus, product_s1_s2)
from graphflow.immersion import GraphMapField, field_cached, field_geometry
from graphflow.verify import check_decay_bounds, compute_bound_constants


def _stationary_torus_field(n=16, scale=0.5):
    m = flat_torus(2)
    xs = np.arange(n) * 2 * math.pi / n
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    return GraphMapField(m, flat_torus(2, scale=scale), (n, n),
                         np.stack([xg, yg], axis=-1))


def test_flow_params_validation():
    with pytest.raises(ValueError):
        FlowParams(cfl=1.5)
    with pytest.raises(ValueError):
        FlowParams(integrator="RK7")


def test_stationary_map_has_zero_velocity():
    f = _stationary_torus_field()
    assert np.abs(nonparametric_rhs(f)).max() < 1e-12
    assert np.abs(tangential_vector_field(f)).max() < 1e-12
    assert h2_field(f).max() < 1e-24


def test_h2_field_matches_point_geometry():
    # two independent discretizations of |H|^2: the vectorized tangential
    # split and the pointwise second fundamental form; they agree to O(h^2)
    worst = {}
    for n in (32, 64):
        eq = EquivariantFlow(n, lambda th: 0.8 * np.sin(th))
        fld = eq.expand_field(eq.h)
        h2, pointwise = h2_field(fld), field_geometry(fld).h_sq
        worst[n] = max(abs(h2[i, 0] - pointwise[i, 0])
                       for i in (n // 4, n // 2, 3 * n // 4))
    assert worst[32] < 1e-3
    assert worst[64] < worst[32] / 3.0


def test_step_keeps_stationary_map_fixed():
    f = _stationary_torus_field()
    state = FlowState(field=f, min_p=f.min_p())
    params = FlowParams(t_end=1.0)
    assert cfl_dt(f, params) > 0
    nxt = step(state, params)
    assert np.abs(nxt.field.f - f.f).max() < 1e-14
    assert nxt.t > 0 and nxt.step_count == 1
    with pytest.raises(SolverAbort):
        bad = FlowState(field=f, status="Aborted")
        step(bad, params)


def _flow_record(state):
    lam, mu = state.field.singular_value_fields()
    h2, p = h2_field(state.field), state.field.p_field()
    return FlowRecord(t=state.t, min_p=float(p.min()), max_lambda=float(lam.max()),
                      max_mu=float(mu.max()), max_df2=float((lam**2 + mu**2).max()),
                      max_h2=float(h2.max()), max_theta=float((h2 / p).max()),
                      volume=state.field.volume(), diameter=0.0)


def test_grid_flow_converges_to_a_rank2_flat_limit():
    # T^3 -> T^2(scale 0.5) from a moving start: Ric_M = sigma_N = 0, so (A), (B)
    # and (C) hold with eps0 = eps1 = 0, min p cannot fall, and the limit is a
    # totally geodesic rank-2 map onto the flat torus
    m, n, shape = flat_torus(3), flat_torus(2, scale=0.5), (8, 8, 8)
    x = GraphMapField(m, n, shape, np.zeros(shape + (2,))).coords()
    f0 = np.stack([x[..., 0] + 0.1 * np.sin(x[..., 1] + x[..., 2]),
                   x[..., 1] + 0.1 * np.cos(x[..., 0])], axis=-1)
    report = curvature_conditions_report(m, n)
    assert report.cond_a and report.cond_b and report.cond_c
    field = GraphMapField(m, n, shape, f0)
    state, params = FlowState(field=field, min_p=field.min_p()), FlowParams(t_end=100.0)
    records = [_flow_record(state)]
    while state.status == "Running" and state.t < params.t_end:
        state = step(state, params)
        records.append(_flow_record(state))
    assert state.status == "Converged"
    assert np.all(np.diff([r.min_p for r in records]) >= 0)
    constants = compute_bound_constants(records[0].min_p, records[0].max_theta,
                                        report.min_ric, report.sup_sigma_n)
    assert (constants.eps0, constants.eps1) == (0.0, 0.0)
    bounds = check_decay_bounds(records, constants, h_grid=float(field.h.max()))
    assert bounds["pass"]
    # the grid slack tol = 1e-6 + 10 h^2 (6.2 here) is not needed: the bounds
    # hold to roundoff
    assert min(bounds["worst_margins"].values()) >= bounds["tol"] - 1e-12
    klass = classify_limit(state.field, state.status, h_tol=params.h_tol,
                           ricci_positive=report.min_ric > 0)["class"]
    assert klass == "Rank2Flat"


def _s1xs2_to_cosh_field():
    m_manifold, surface, shape = product_s1_s2(), WarpedSurface(builtin_warp("cosh")), (4, 4, 4)
    x = GraphMapField(m_manifold, surface, shape, np.zeros(shape + (2,))).coords()
    return GraphMapField(m_manifold, surface, shape,
                         np.stack([x[..., 0], np.full(shape, 0.5)], axis=-1))


def test_grid_step_does_its_work_once(monkeypatch):
    # k RK2 steps on S^1 x S^2 -> cosh cylinder make 1 + 2k fields (the start,
    # then a midpoint and an end per step)
    k = 3
    field = _s1xs2_to_cosh_field()
    m_manifold, surface = field.M, field.N
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    eigvalsh = np.linalg.eigvalsh

    def eigvalsh_by_caller(a):
        calls["eigvalsh in " + sys._getframe(1).f_code.co_name] += 1
        return eigvalsh(a)

    for name in ("metric_many", "inverse_metric", "christoffels_many"):
        monkeypatch.setattr(m_manifold, name, counted(name, getattr(m_manifold, name)))
    monkeypatch.setattr(surface, "wrap", counted("N wrap", surface.wrap))
    field = GraphMapField(m_manifold, surface, field.shape, field.f)  # counts its own wrap
    # the grid's stencil index is built when the first field gathers neighbours
    monkeypatch.setattr(GraphMapField, "_stencil_index", field_cached(
        counted("_stencil_index", GraphMapField._stencil_index.__wrapped__)))
    monkeypatch.setattr(GraphMapField, "covariant_d2f",
                        counted("covariant_d2f", GraphMapField.covariant_d2f))
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_by_caller)
    monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))
    state = FlowState(field=field, min_p=field.min_p())
    for _ in range(k):
        state = step(state, FlowParams(t_end=1.0))
    assert state.status == "Running" and state.step_count == k
    # p comes from the 2x2 invariants of df^T g_M^{-1} df g_N, and the inverse
    # metrics check positive definiteness by Cholesky: no eigensolve there
    assert calls == {
        "metric_many": 1, "inverse_metric": 1, "christoffels_many": 1,  # M side once per grid
        "_stencil_index": 1,                           # grid bookkeeping once per grid
        "N wrap": 1 + 2 * k,                           # one N-chart wrap per field, of its f
        "covariant_d2f": 1 + 2 * k,                    # RHS: the start, then 2 per step
        "eigvalsh in induced_g_eigvals": k,            # cfl_dt and the volume of each state
    }                                                  # stepped from; none on a half field


NON_FINITE = "non-finite map values (CFL violation or blow-up)"


@pytest.mark.parametrize("target", ["warped_cylinder", "flat_torus"])
@pytest.mark.parametrize("stage", ["midpoint", "end"])
def test_step_aborts_on_non_finite_values(monkeypatch, target, stage):
    # An infinite RHS at the start makes the midpoint infinite, one at the
    # midpoint the end.  The chart refuses an infinite coordinate (the cosh
    # cylinder's bounded z axis raises DomainError, a periodic wrap of inf
    # warns), so step must see it before any field evaluates it.
    if target == "warped_cylinder":
        field = _s1xs2_to_cosh_field()
    else:
        m, shape = flat_torus(3), (4, 4, 4)
        x = GraphMapField(m, flat_torus(2), shape, np.zeros(shape + (2,))).coords()
        field = GraphMapField(m, flat_torus(2, scale=0.5), shape, x[..., :2])
    params = FlowParams(t_end=1.0)
    state = step(FlowState(field=field, min_p=field.min_p()), params)  # caches the RHS and |H|^2
    assert state.status == "Running"
    rhs = graphflow.flow.nonparametric_rhs

    def blown(fld):
        v = rhs(fld)
        return np.full_like(v, np.inf) if (fld is state.field) == (stage == "midpoint") else v

    monkeypatch.setattr(graphflow.flow, "nonparametric_rhs", blown)
    nxt = step(state, params)
    assert (nxt.status, nxt.diagnostic, nxt.step_count) == ("Aborted", NON_FINITE, 2)
    assert nxt.t > state.t and nxt.field is state.field  # the last finite field is kept


# -- equivariant reduction ---------------------------------------------------


def test_equivariant_rejects_non_area_decreasing_profile():
    eq = EquivariantFlow(64, lambda th: th)  # degree-one: lambda mu = 1 somewhere
    with pytest.raises(NotAreaDecreasingError):
        eq.run(t_end=0.1)


def test_equivariant_rhs_matches_generic_operator():
    eq = EquivariantFlow(48, lambda th: 0.8 * np.sin(th))
    fld = eq.expand_field(eq.h)
    v2 = nonparametric_rhs(fld)
    v1 = eq.rhs(eq.h)[0]
    assert np.abs(v2[:, 0, 0] - v1).max() < 1e-10   # colatitude component
    assert np.abs(v2[:, 0, 1]).max() < 1e-10        # azimuthal component vanishes


def test_equivariant_step_evaluates_rhs_once_per_stage(monkeypatch):
    calls = Counter()

    def counted(name):
        fn = getattr(EquivariantFlow, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    kernel = EquivariantFlow._stage_kernel

    def counted_kernel(self, b, ws):
        stage = kernel(self, b, ws)

        def counted_stage():
            calls["stage"] += 1
            return stage()
        return counted_stage

    for name in ("rhs", "observables", "singular_values"):
        monkeypatch.setattr(EquivariantFlow, name, counted(name))
    monkeypatch.setattr(EquivariantFlow, "_stage_kernel", counted_kernel)
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    run = eq.run(t_end=1e-4, record_every=10**6)  # one clamped step
    assert run.states[-1].t == 1e-4 and len(run.records) == 2 and run.steps == 1
    # observables: the start check, step 0 and the end; each reads rhs once
    # and hands it to singular_values, and rhs runs the stage kernel once;
    # the RK2 step runs it once per stage
    assert calls == {"observables": 3, "singular_values": 3, "rhs": 3, "stage": 3 + 2}


def test_equivariant_decay_and_monotonicity():
    eq = EquivariantFlow(64, lambda th: 0.8 * np.sin(th))
    run = eq.run(t_end=1.0, record_every=100)
    assert run.status == "Finished"
    min_p = [r.min_p for r in run.records]
    assert all(b >= a - 1e-12 for a, b in zip(min_p, min_p[1:]))  # p improves
    assert run.records[-1].max_h2 < run.records[0].max_h2
    assert run.records[-1].diameter < run.records[0].diameter
    assert run.dissipation > 0


def test_equivariant_convergence_status():
    eq = EquivariantFlow(48, lambda th: 0.8 * np.sin(th))
    run = eq.run(t_end=20.0, record_every=500)
    assert run.status == "Converged"
    assert run.states[-1].t < 20.0
    assert np.abs(run.states[-1].h).max() < 1e-4


def test_equivariant_triples_are_consistent():
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    run = eq.run(t_end=0.2, record_every=30)
    assert [s.t for s in run.states] == [r.t for r in run.records]
    stencils = [(s.h, s.stencil) for s in run.states if s.stencil]
    assert stencils
    for hc, (dtp, dtn, hp, hn) in stencils:
        assert dtp > 0 and dtn > 0
        assert hp.shape == hc.shape == hn.shape == (32,)
        # one step of the scheme from the captured predecessor reproduces h_now
        k2 = eq.rhs(hp + 0.5 * dtp * eq.rhs(hp)[0])[0]
        assert np.abs(hp + dtp * k2 - hc).max() < 1e-12
        # and one step from h_now reproduces the captured successor
        k2 = eq.rhs(hc + 0.5 * dtn * eq.rhs(hc)[0])[0]
        assert np.abs(hc + dtn * k2 - hn).max() < 1e-12
    # the start and the end have no step on both sides
    assert run.states[0].stencil is None and run.states[-1].stencil is None


def test_equivariant_recorded_arrays_share_no_memory():
    # the step loop reuses three buffers: every recorded profile and stencil
    # neighbour is a copy of its own
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    run = eq.run(t_end=0.2, record_every=1)
    arrays = [eq.h]
    for state in run.states:
        arrays.append(state.h)
        if state.stencil is not None:
            arrays += state.stencil[2:]
    assert len(arrays) == 1 + (run.steps + 1) + 2 * (run.steps - 1)  # stencils: not the ends
    for i, a in enumerate(arrays):
        assert a.base is None  # no view of a buffer of the run
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    # every stencil neighbour is the recorded profile of the step before or after
    for prev, now, nxt in zip(run.states, run.states[1:], run.states[2:]):
        assert np.array_equal(now.stencil[2], prev.h) and np.array_equal(now.stencil[3], nxt.h)


def test_equivariant_run_counts_its_steps():
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    run = eq.run(t_end=0.2, record_every=30)
    # the dt range covers every step: the clamped last one is the shortest
    dts = [dt for s in run.states if s.stencil for dt in s.stencil[:2]]
    assert run.steps == 104 and run.dt_min <= min(dts) and run.dt_max >= max(dts)
    assert 0 < run.dt_min < run.dt_max <= 0.4 * eq.dtheta**2
    still = eq.run(t_end=0.0)
    assert still.steps == 0 and np.isnan(still.dt_min) and np.isnan(still.dt_max)


# -- circle drift ------------------------------------------------------------


def test_drift_velocity_signs(waist_cylinder, funnel_cylinder):
    # waist: z = 0 is a stable closed geodesic, velocity points toward it
    assert drift_velocity(waist_cylinder.warp, 0.0) == pytest.approx(0.0)
    assert drift_velocity(waist_cylinder.warp, 0.5) < 0
    assert drift_velocity(waist_cylinder.warp, -0.5) > 0
    # funnel (w = e^{-z}): the circle escapes toward larger z
    assert drift_velocity(funnel_cylinder.warp, 0.0) > 0


@pytest.mark.parametrize("warp", ["cosh", "exp_neg"])
def test_drift_phi_on_floats_matches_the_array_warp(warp):
    # the RK4 stages evaluate Phi with math on Python floats, the samples with
    # numpy on arrays: one formula per warp, equal up to the libraries' last
    # bits, here within 4 ulp of 1 relative (4 eps |Phi|)
    surface = WarpedSurface(builtin_warp(warp))
    z = np.linspace(-6.0, 6.0, 20_001)
    on_arrays = drift_velocity(surface.warp, z)
    on_floats = np.array([drift_velocity(surface.warp.scalar, zi) for zi in z.tolist()])
    assert all(type(drift_velocity(surface.warp.scalar, zi)) is float for zi in (-6.0, 0.3, 6.0))
    assert np.all(np.abs(on_floats - on_arrays) <= 4 * np.finfo(float).eps * np.abs(on_arrays))


def test_waist_run_converges(waist_cylinder):
    run = reduce_circle_drift(waist_cylinder, 0.5, 10.0, dt=1e-3)
    assert abs(run.z[-1]) < abs(run.z[0])
    # linearized rate near the waist: z' = -z/2
    assert run.z[-1] == pytest.approx(0.5 * math.exp(-5.0), rel=0.05)
    assert np.all(np.diff(run.volume) <= 0)


def test_funnel_run_drifts(funnel_cylinder):
    run = reduce_circle_drift(funnel_cylinder, 0.0, 5.0, dt=1e-3)
    assert np.all(np.diff(run.z) > 0)
    assert np.all(np.diff(run.volume) < 0)


def test_drift_budget_identity(funnel_cylinder):
    run = reduce_circle_drift(funnel_cylinder, 0.0, 5.0, dt=1e-3)
    drop = run.volume[0] - run.volume[-1]
    assert abs(drop - run.dissipation) / drop < 1e-4


def test_drift_sample_times_increase_strictly():
    # at 40 of these t_end, (n - 1) dt with n = ceil(t_end / dt) rounds to t_end
    # or above; the sample grid then ends at t_end instead of repeating it
    for k in range(1, 12001):
        t_end = k / 1000
        t = _sample_times(t_end, DRIFT_DT)
        assert np.all(np.diff(t) > 0), t_end
        assert t[0] == 0.0 and abs(t[-1] - t_end) <= 1e-11, t_end


@pytest.mark.parametrize("warp, z0, t_end", [
    ("cosh", 0.5, 30.0),
    ("exp_neg", 0.0, 5.0),
    ("cosh", 0.5, 0.2345),     # the RK4 start only, its last step clamped at t_end
    ("cosh", 0.5, 0.555),      # the hand-over at 7 ADAMS_STEP, four Adams steps and part of one
    ("cosh", 0.5, 1.2345),     # the last Adams step ends past t_end
    ("exp_neg", 0.0, 7.0007),  # t_end 7e-4 past a step end: a short fraction of the last step
    ("exp_neg", 0.0, 8.002),   # the sum of DRIFT_DT overshoots t_end
])
def test_drift_matches_an_independent_solver(warp, z0, t_end):
    # DOP853 (order 8, its own dense output) at rtol 1e-13 is the truth on the
    # sample grid; the RK4 loop at the sample spacing had the same accuracy
    from scipy.integrate import solve_ivp
    surface = WarpedSurface(builtin_warp(warp))
    run = reduce_circle_drift(surface, z0, t_end)
    sol = solve_ivp(lambda t, z: drift_velocity(surface.warp, z), (0.0, t_end), [z0],
                    method="DOP853", rtol=1e-13, atol=1e-16, dense_output=True)
    assert sol.success
    assert np.max(np.abs(run.z - sol.sol(run.t)[0])) <= 5e-13


def test_drift_work_per_default_waist_run(monkeypatch):
    # 4 Phi per RK4 starter step and 1 at t = 0, 2 per Adams step (PECE), all on
    # floats; on the sample array w and w' once each, w shared by Phi and the
    # volume; RK4 at DRIFT_STEP alone made 24,002 Phi calls
    calls = Counter()

    def counted(warp, z):
        calls[type(z) is float] += 1
        return drift_velocity(warp, z)

    monkeypatch.setattr(graphflow.flow, "drift_velocity", counted)
    surface = WarpedSurface(builtin_warp("cosh"))
    for name in ("w", "dw"):
        def on_arrays(z, fn=getattr(surface.warp, name), name=name):
            calls[name] += 1
            return fn(z)
        monkeypatch.setattr(surface.warp, name, on_arrays)
    run = reduce_circle_drift(surface, 0.5, 30.0)
    starter = round(7 * ADAMS_STEP / DRIFT_STEP)
    adams = round((30.0 - 7 * ADAMS_STEP) / ADAMS_STEP)
    assert (starter, adams) == (70, 593)
    assert calls == {True: 4 * starter + 1 + 2 * adams, "w": 1, "dw": 1}
    assert calls[True] == 1467 and len(run.t) == 30001


def test_adams_weights_are_exact_on_polynomials():
    # in integers: the predictor (nodes 0, -1, ..., -7) integrates u^q over [0, 1]
    # exactly for q < 8, the corrector (nodes 1, 0, ..., -7) for q < 9
    for q in range(8):
        assert (q + 1) * sum(b * (-k) ** q for k, b in enumerate(_AB8)) == 120960, q
    for q in range(9):
        assert (q + 1) * sum(b * (1 - k) ** q for k, b in enumerate(_AM9)) == 3628800, q
    # the dense weights integrate them over [0, theta]; at theta = 1 they are the corrector
    theta = np.append(np.arange(1, 51) / 50, [0.0123, 0.777])
    dense = _adams_dense() @ np.power.outer(theta, np.arange(1, 10)).T
    nodes = np.arange(1.0, -8.0, -1.0)
    for q in range(9):
        scale = np.abs(nodes ** q) @ np.abs(dense)
        assert np.all(np.abs(nodes ** q @ dense - theta ** (q + 1) / (q + 1)) <= 1e-15 * scale), q
    assert np.abs(dense[:, 49] - np.array(_AM9) / 3628800).max() <= 1e-15


@pytest.mark.parametrize("dt", [3e-3, 0.07, 0.1])
def test_drift_rejects_a_sample_spacing_that_does_not_divide_the_adams_step(dt, waist_cylinder):
    with pytest.raises(ValueError, match="does not divide ADAMS_STEP"):
        reduce_circle_drift(waist_cylinder, 0.5, 1.0, dt=dt)


def test_drift_samples_at_a_coarser_spacing_that_divides_the_adams_step(waist_cylinder):
    # dt = 5e-3 uses a (9, 10) dense table: the same trajectory on every fifth sample
    fine = reduce_circle_drift(waist_cylinder, 0.5, 2.0)
    coarse = reduce_circle_drift(waist_cylinder, 0.5, 2.0, dt=5e-3)
    assert len(coarse.t) == 401 and np.array_equal(coarse.t, fine.t[::5])
    assert np.abs(coarse.z - fine.z[::5]).max() <= 1e-15
