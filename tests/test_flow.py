"""Time integration: nonparametric velocity, equivariant and drift reductions."""

import functools
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import reference_geometry as ref
from graphflow.app import T_END_MAX
from graphflow.classify import classify_limit
from graphflow.errors import ConfigurationError, NotAreaDecreasingError, SolverAbort
import graphflow.flow
from graphflow.flow import (DRIFT_DT, EquivariantFlow, FlowParams, FlowRecord, FlowState,
                            _sample_times, cfl_dt, drift_velocity, h2_field, nonparametric_rhs,
                            reduce_circle_drift, step, tangential_vector_field)
from graphflow.geometry import (Warp, WarpedSurface, builtin_warp, curvature_conditions_report,
                                flat_torus, product_s1_s2)
from graphflow.immersion import GraphMapField, field_geometry, grid_cached, row_cached
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


def _tangential_oracle_fields():
    s1xs2, cosh = product_s1_s2(), WarpedSurface(builtin_warp("cosh"))
    x = GraphMapField(s1xs2, cosh, (4, 4, 4), np.zeros((4, 4, 4, 2))).coords()
    yield GraphMapField(s1xs2, cosh, (4, 4, 4), np.stack(
        [x[..., 0] + 0.3 * np.sin(x[..., 2]), 0.5 + 0.2 * np.cos(x[..., 1]) * np.sin(x[..., 0])],
        axis=-1))
    t3, t2 = flat_torus(3), flat_torus(2, scale=0.5)
    x = GraphMapField(t3, t2, (8, 8, 8), np.zeros((8, 8, 8, 2))).coords()
    yield GraphMapField(t3, t2, (8, 8, 8), np.stack(
        [x[..., 0] + 0.2 * np.sin(x[..., 2]), x[..., 1] + 0.1 * np.cos(x[..., 0] - x[..., 2])],
        axis=-1))
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    yield eq.expand_field(eq.h)


def test_tangential_field_matches_the_christoffel_oracle():
    # X contracted from the first differences of the induced metric is the
    # g-trace of Gamma_g - Gamma_M over the full induced Christoffel tensor
    for field in _tangential_oracle_fields():
        want = ref.tangential_vector_field(field)
        got = tangential_vector_field(field)
        assert np.abs(want).max() > 1e-2, field.M.name       # a field that moves
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), field.M.name


def _torus3_to_t2_field(n=8):
    m, target, shape = flat_torus(3), flat_torus(2, scale=0.5), (n, n, n)
    x = GraphMapField(m, target, shape, np.zeros(shape + (2,))).coords()
    return GraphMapField(m, target, shape, x[..., :2] + 0.1 * np.stack(
        [np.sin(x[..., 2]), np.cos(x[..., 0])], axis=-1))


@pytest.mark.parametrize("make", [_s1xs2_to_cosh_field, _torus3_to_t2_field],
                         ids=["s1xs2_cosh_4", "t3_t2_8"])
def test_grid_step_matches_the_eigh_oracle(monkeypatch, make):
    # one RK2 step through the closed-form L D L^T (inverse, sqrt(det g)) and the
    # closed-form max eigenvalue of g^{-1} (the step bound) against the eigh
    # decomposition: on S^1 x S^2 the induced metric is diagonal, on T^3 it is not
    field = make()
    g = field.induced_g_field()
    assert (np.abs(g[..., 0, 1]).max() > 1e-2) == (make is _torus3_to_t2_field)
    oracle = ref.EighMetricField(field.M, field.N, field.shape, field.f)
    params = FlowParams(t_end=1.0)
    got = step(FlowState(field=field, min_p=field.min_p()), params)
    monkeypatch.setattr(graphflow.flow, "cfl_dt", ref.eigh_cfl_dt)
    want = step(FlowState(field=oracle, min_p=oracle.min_p()), params)
    assert isinstance(want.field, ref.EighMetricField)
    assert got.status == want.status == "Running"

    def gap(a, b):  # max |a - b|; values 2 pi apart on a periodic axis of N are equal
        d = a - b
        for k, ax in enumerate(field.N.axes):
            if ax.periodic:
                d[..., k] -= ax.length * np.round(d[..., k] / ax.length)
        return np.abs(d).max()

    assert gap(want.field.f, field.f) > 1e-3
    assert gap(got.field.f, want.field.f) <= 1e-13 * np.abs(want.field.f).max()
    assert abs(got.t - want.t) <= 1e-13 * want.t
    assert abs(got.dissipation - want.dissipation) <= 1e-13 * want.dissipation
    assert abs(got.min_p - want.min_p) <= 1e-13 * want.min_p


@pytest.mark.parametrize("make", [_s1xs2_to_cosh_field, lambda: _torus3_to_t2_field(4)],
                         ids=["s1xs2_cosh_4", "t3_t2_4"])
def test_grid_steps_match_the_row_getter_oracle(monkeypatch, make):
    # five RK2 steps on the fused pass and on the row getters it replaced, with
    # |H|^2 and the step bound as they were read then: the same numbers, bit for bit
    field = make()
    oracle = object.__new__(ref.RowGetterField)  # the same f: a second wrap can move it
    oracle.__dict__.update(field.__dict__, _cache={}, _grid={})
    params = FlowParams(t_end=1.0)

    def run(state):
        for _ in range(5):
            state = step(state, params)
        return state
    got = run(FlowState(field=field, min_p=field.min_p()))
    monkeypatch.setattr(graphflow.flow, "h2_field", ref.row_getter_h2_field)
    monkeypatch.setattr(graphflow.flow, "cfl_dt", ref.row_getter_cfl_dt)
    want = run(FlowState(field=oracle, min_p=oracle.min_p()))
    assert isinstance(want.field, ref.RowGetterField)
    assert (got.status, got.step_count) == (want.status, want.step_count) == ("Running", 5)
    assert not np.array_equal(got.field.f, field.f)
    assert np.array_equal(got.field.f, want.field.f)
    assert ((got.t, got.min_p, got.max_h2, got.dissipation)
            == (want.t, want.min_p, want.max_h2, want.dissipation))


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

    # each LAPACK call is named by the nearest of these readers on its stack
    readers = ("inverse_metric", "induced_g_inv_field", "cfl_dt")

    def by_reader(name, fn):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name not in readers:
                frame = frame.f_back
            calls[f"{name} in {frame.f_code.co_name if frame else '?'}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("metric_many", "inverse_metric", "christoffels_many"):
        monkeypatch.setattr(m_manifold, name, counted(name, getattr(m_manifold, name)))
    for name in ("wrap", "_metric", "_christoffels_at"):
        monkeypatch.setattr(surface, name, counted(f"N {name}", getattr(surface, name)))
    field = GraphMapField(m_manifold, surface, field.shape, field.f)  # counts its own wrap
    # the grid's stencil index is built when the first field gathers neighbours
    monkeypatch.setattr(GraphMapField, "_stencil_index", grid_cached(
        counted("_stencil_index", GraphMapField._stencil_index.__wrapped__)))
    monkeypatch.setattr(GraphMapField, "_pointwise", row_cached(
        counted("_pointwise", GraphMapField._pointwise.__wrapped__)))
    monkeypatch.setattr(GraphMapField, "_dg_rows", row_cached(
        counted("_dg_rows", GraphMapField._dg_rows.__wrapped__)))
    monkeypatch.setattr(graphflow.immersion, "invariant_rows",
                        counted("invariant_rows", graphflow.immersion.invariant_rows))
    for name in ("eigh", "eigvalsh", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, by_reader(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))
    state = FlowState(field=field, min_p=field.min_p())
    for _ in range(k):
        state = step(state, FlowParams(t_end=1.0))
    assert state.status == "Running" and state.step_count == k
    # One pointwise pass per field evaluates N's chart once, at f, for g_N and
    # Gamma_N, and forms the induced metric, its inverse, nabla^2 f and V.  p comes
    # from tr K and det K alone, so no step forms lambda or mu.  Every 3 x 3 metric
    # (g_M and the induced one of each field) is factorised in closed form, once, for
    # its inverse and the volume, and cfl_dt reads the max eigenvalue of that inverse
    # in closed form: a step makes no LAPACK call.  X and |H|^2 come from the first
    # differences of g, taken only on the fields whose |H|^2 a step reads, and no
    # field builds the induced Christoffel tensor
    assert not hasattr(GraphMapField, "gamma_induced_field")
    assert calls == {
        "metric_many": 1, "inverse_metric": 1, "christoffels_many": 1,  # M side once per grid
        "_stencil_index": 1,                           # grid bookkeeping once per grid
        "N wrap": 1 + 2 * k,                           # one N-chart wrap per field, of its f
        "_pointwise": 1 + 2 * k,                       # the start, then 2 fields per step
        "N _metric": 1 + 2 * k, "N _christoffels_at": 1 + 2 * k,  # in the pass, once each
        "_dg_rows": 1 + k,                             # |H|^2: the start, then each step's end
    }
    state.field.singular_value_fields()  # lambda and mu where a monitor asks for them
    assert calls["invariant_rows"] == 1


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
    # observables: the start check, which is also step 0's record, and the end;
    # each reads rhs once and hands it to singular_values, and rhs runs the stage
    # kernel once; the RK2 step runs it once per stage
    assert calls == {"observables": 2, "singular_values": 2, "rhs": 2, "stage": 2 + 2}


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


@pytest.mark.parametrize("record_every", [0, -5])
def test_equivariant_run_refuses_record_every_below_one(record_every):
    # 0 divided by zero, and a negative value recorded every |n| steps
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    with pytest.raises(ValueError, match="^record_every must be at least 1"):
        eq.run(t_end=0.2, record_every=record_every)


def test_converging_run_computes_one_step_past_its_last(monkeypatch):
    # once a streak of small max |H|^2 is under way, a block ends where it would reach
    # CONVERGENCE_STREAK: the step that converges is computed, and none after it
    calls = Counter()
    kernel, rhs = EquivariantFlow._stage_kernel, EquivariantFlow.rhs

    def counted_kernel(self, b, ws):
        stage = kernel(self, b, ws)

        def counted_stage():
            calls["stage"] += 1
            return stage()
        return counted_stage

    def counted_rhs(self, h):
        calls["rhs"] += 1
        return rhs(self, h)
    monkeypatch.setattr(EquivariantFlow, "_stage_kernel", counted_kernel)
    monkeypatch.setattr(EquivariantFlow, "rhs", counted_rhs)
    run = EquivariantFlow(32, lambda th: 0.8 * np.sin(th)).run(20.0, record_every=5000)
    assert run.status == "Converged" and run.steps > 3 * graphflow.flow.STEP_BLOCK
    computed = (calls["stage"] - calls["rhs"]) / 2   # two stages a step; rhs runs one
    assert run.steps < computed <= run.steps + 1


# one child process per OpenBLAS kernel (OpenBLAS reads OPENBLAS_CORETYPE when it loads):
# V, X, |H|^2, p and cfl_dt's dt of three fields, and f after 5 RK2 steps of the two grids
_KERNEL_DIGEST = """if True:
    import hashlib
    import numpy as np
    from graphflow.flow import (EquivariantFlow, FlowParams, FlowState, cfl_dt, h2_field,
                                nonparametric_rhs, step, tangential_vector_field)
    from graphflow.geometry import WarpedSurface, builtin_warp, flat_torus, product_s1_s2
    from graphflow.immersion import GraphMapField

    def grid(m, n, shape, values):
        x = GraphMapField(m, n, shape, np.zeros(shape + (2,))).coords()
        return GraphMapField(m, n, shape, values(x))

    s1xs2 = grid(product_s1_s2(), WarpedSurface(builtin_warp("cosh")), (6, 8, 8),
                 lambda x: np.stack([x[..., 0] + 0.3 * np.sin(x[..., 2]),
                                     0.5 + 0.2 * np.cos(x[..., 1]) * np.sin(x[..., 0])], -1))
    t3 = grid(flat_torus(3), flat_torus(2, scale=0.5), (4, 4, 4), lambda x: x[..., :2]
              + 0.1 * np.stack([np.sin(x[..., 2]), np.cos(x[..., 0])], -1))
    eq = EquivariantFlow(32, lambda th: 0.8 * np.sin(th))
    params = FlowParams(t_end=1.0)
    digest = hashlib.sha256()
    for field in (s1xs2, t3, eq.expand_field(eq.h)):
        for value in (nonparametric_rhs(field), tangential_vector_field(field), h2_field(field),
                      field.p_field(), np.float64(cfl_dt(field, params))):
            digest.update(np.ascontiguousarray(value).tobytes())
    for field in (s1xs2, t3):
        state = FlowState(field=field, min_p=field.min_p())
        for _ in range(5):
            state = step(state, params)
        assert state.status == "Running"
        digest.update(state.field.f.tobytes())
    print(digest.hexdigest())
"""


def test_grid_step_holds_on_every_blas_kernel():
    # the step's fields are contracted on rows by elementwise products and np.add.reduce, in
    # a fixed order that no BLAS kernel picks, and its step bound has no LAPACK call: their
    # bytes are the same on the default kernel and on OpenBLAS's Haswell and Prescott (SSE3,
    # no FMA) kernels
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for coretype in (None, "Haswell", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run([sys.executable, "-c", _KERNEL_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1] == digests[2], digests


def test_equivariant_run_builds_its_kernels_once(monkeypatch):
    # a run binds one stage kernel to each of its three buffers, and each
    # observables call one more: never one per block or per step
    kernel = EquivariantFlow._stage_kernel
    built = Counter()

    def counted_kernel(self, b, ws):
        built["kernels"] += 1
        return kernel(self, b, ws)
    monkeypatch.setattr(EquivariantFlow, "_stage_kernel", counted_kernel)
    steps = set()
    for block in (1, 3, graphflow.flow.STEP_BLOCK):
        monkeypatch.setattr(graphflow.flow, "STEP_BLOCK", block)
        for t_end in (1e-4, 0.05, 1.0):
            built.clear()
            run = EquivariantFlow(32, lambda th: 0.8 * np.sin(th)).run(t_end, record_every=10**9)
            steps.add(run.steps)
            # observables: the start check, which is also step 0's record, and the end
            assert built == {"kernels": 3 + 2}, (block, t_end)
    assert len(steps) == 3 and max(steps) > 3 * graphflow.flow.STEP_BLOCK


# -- circle drift ------------------------------------------------------------


def test_drift_velocity_signs(waist_cylinder, funnel_cylinder):
    # waist: z = 0 is a stable closed geodesic, velocity points toward it
    assert drift_velocity(waist_cylinder.warp, 0.0) == pytest.approx(0.0)
    assert drift_velocity(waist_cylinder.warp, 0.5) < 0
    assert drift_velocity(waist_cylinder.warp, -0.5) > 0
    # funnel (w = e^{-z}): the circle escapes toward larger z
    assert drift_velocity(funnel_cylinder.warp, 0.0) > 0


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
    ("cosh", 0.5, 0.2345),     # t_end between two samples
    ("cosh", 0.5, 0.555),
    ("cosh", 0.5, 1.2345),
    ("exp_neg", 0.0, 7.0007),  # t_end 7e-4 past a sample: a short last sample step
    ("exp_neg", 0.0, 8.002),   # the sum of DRIFT_DT overshoots t_end
    ("cosh", -0.7, 10.0),      # from below the waist
    ("exp_neg", -3.0, 20.0),   # z crosses 0
])
def test_drift_matches_an_independent_solver(warp, z0, t_end):
    # DOP853 (order 8, its own dense output) at rtol 1e-13 is the truth on the
    # sample grid for the closed-form trajectories
    from scipy.integrate import solve_ivp
    surface = WarpedSurface(builtin_warp(warp))
    run = reduce_circle_drift(surface, z0, t_end)
    sol = solve_ivp(lambda t, z: drift_velocity(surface.warp, z), (0.0, t_end), [z0],
                    method="DOP853", rtol=1e-13, atol=1e-16, dense_output=True)
    assert sol.success
    assert np.max(np.abs(run.z - sol.sol(run.t)[0])) <= 5e-13


@pytest.mark.parametrize("z0", [-6.0, -0.5, 0.0, 0.5, 6.0])
def test_drift_keeps_its_first_integral_to_the_longest_run(z0):
    # the closed forms over the whole configurable range: the first integral of
    # each warp stays constant within a few ulps of its largest term
    eps = np.finfo(float).eps
    run = reduce_circle_drift(WarpedSurface(builtin_warp("exp_neg")), z0, T_END_MAX, dt=0.01)
    z, t = run.z, run.t
    half = np.exp(2 * z) / 2
    first = z + half - t  # z + e^{2z}/2 - t
    assert np.all(np.abs(first - first[0]) <= 8 * eps * np.maximum.reduce([abs(z), half, t]))

    run = reduce_circle_drift(WarpedSurface(builtin_warp("cosh")), z0, T_END_MAX, dt=0.01)
    if z0 == 0.0:
        assert np.all(run.z == 0.0)  # the waist is a fixed point
        return
    z, t = np.abs(run.z), run.t
    log_tanh, log_sinh = np.log(np.tanh(z)), np.log(np.sinh(z))
    first = log_tanh + log_sinh + t  # log tanh|z| + log sinh|z| + t
    scale = np.maximum.reduce([abs(log_tanh), abs(log_sinh), t])
    assert np.all(np.abs(first - first[0]) <= 8 * eps * scale)
    # at t = T_END_MAX, |z| ~ 1e-218 to 1e-216: it has not underflowed
    assert np.all(np.sign(run.z) == np.sign(z0))


def test_drift_refuses_a_warp_without_a_trajectory():
    warp = Warp("two_plus_cos", lambda z: 2 + np.cos(z), lambda z: -np.sin(z),
                lambda z: -np.cos(z))
    with pytest.raises(ConfigurationError) as info:
        reduce_circle_drift(WarpedSurface(warp), 0.5, 1.0)
    assert "two_plus_cos" in str(info.value) and "\n" not in str(info.value)


def test_drift_work_per_default_waist_run(monkeypatch):
    # the trajectory is solved, not integrated: Phi is never called, and w and w'
    # are evaluated once each on the sample array, w shared by Phi and the volume
    calls = Counter()

    def counted(warp, z):
        calls["phi"] += 1
        return drift_velocity(warp, z)

    monkeypatch.setattr(graphflow.flow, "drift_velocity", counted)
    surface = WarpedSurface(builtin_warp("cosh"))
    for name in ("w", "dw"):
        def on_arrays(z, fn=getattr(surface.warp, name), name=name):
            calls[name] += 1
            return fn(z)
        monkeypatch.setattr(surface.warp, name, on_arrays)
    run = reduce_circle_drift(surface, 0.5, 30.0)
    assert calls == {"w": 1, "dw": 1} and len(run.t) == 30001


def test_drift_post_processing_in_buffers_keeps_the_bits_of_the_expressions():
    # Phi^2, the volume and the trapezoid are computed in place; each must equal,
    # bit for bit, the plain expression it replaced
    surface = WarpedSurface(builtin_warp("cosh"))
    run = reduce_circle_drift(surface, 0.5, 30.0)
    w = surface.warp.w(run.z)
    h2 = (-w * surface.warp.dw(run.z) / (1 + w * w)) ** 2
    volume = 8 * np.pi**2 * np.sqrt(1 + w**2)
    assert np.array_equal(run.w, w)
    assert np.array_equal(run.h2, h2) and np.array_equal(run.volume, volume)
    assert run.dissipation == float(np.trapezoid(h2 * volume, run.t))


def test_drift_samples_one_trajectory_at_any_spacing(waist_cylinder):
    # dt = 5e-3: the same trajectory on every fifth sample
    fine = reduce_circle_drift(waist_cylinder, 0.5, 2.0)
    coarse = reduce_circle_drift(waist_cylinder, 0.5, 2.0, dt=5e-3)
    assert len(coarse.t) == 401 and np.array_equal(coarse.t, fine.t[::5])
    assert np.abs(coarse.z - fine.z[::5]).max() <= 1e-15
    # any spacing samples the same trajectory, also one that is no divisor of 0.05
    odd = reduce_circle_drift(waist_cylinder, 0.5, 2.0, dt=3e-3)
    assert np.array_equal(odd.t, _sample_times(2.0, 3e-3))
    assert np.array_equal(odd.z[1:], waist_cylinder.warp.trajectory(0.5, odd.t)[1:])
