"""Acceptance suite: ten quantitative criteria, one pass/fail line each.

Each test prints `criterion N (<name>): PASS|FAIL - <evidence>` and then
asserts, so the printed line always states the verdict with its numbers.
"""

import functools
import math
import time

import numpy as np
import scipy.linalg

import reference_barrier
import reference_geometry as ref
from graphflow.app import run_identities
from graphflow.barrier import (certify_convexity, containment_monitor, diameter_series,
                               m_convexity_at, waist_tube_barrier)
from graphflow.classify import classify_from_observables, classify_limit
from graphflow.flow import (EquivariantFlow, FlowParams, FlowState, drift_velocity,
                            reduce_circle_drift, step)
from graphflow.frames import singular_value_invariants
from graphflow.geometry import (WarpedSurface, builtin_warp, curvature_conditions_report,
                                flat_torus, hopf_map, product_s1_s2, round_sphere,
                                s3_hopf_chart)
from graphflow.immersion import GraphMapField, field_geometry
from graphflow.verify import (check_volume_budget, compute_bound_constants,
                              residual_p_evolution)

AMPLITUDE = 0.8


def _verdict(num, name, ok, evidence):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {evidence}")
    assert ok, f"criterion {num} ({name}): {evidence}"


def _profile(th):
    return AMPLITUDE * np.sin(th)


@functools.lru_cache(maxsize=None)
def _tsui_decay_run():
    """Criterion 5 workload: 1D equivariant run to t = 5 at 128 nodes."""
    eq = EquivariantFlow(128, _profile)
    t0 = time.perf_counter()
    run = eq.run(t_end=5.0, record_every=2000)
    return eq, run, time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def _tsui_convergence_run():
    """Criteria 6 and 9 workload: run to convergence (t <= 20) at 96 nodes."""
    eq = EquivariantFlow(96, _profile)
    run = eq.run(t_end=20.0, record_every=500)
    return eq, run


@functools.lru_cache(maxsize=None)
def _waist_ode():
    surface = WarpedSurface(builtin_warp("cosh"))
    return surface, reduce_circle_drift(surface, 0.5, 30.0, dt=1e-3)


@functools.lru_cache(maxsize=None)
def _funnel_ode():
    surface = WarpedSurface(builtin_warp("exp_neg"))
    return surface, reduce_circle_drift(surface, 0.0, 5.0, dt=1e-3)


def _grid_drift_trajectory(warp_name, z0, t_end=5.0):
    """Full 3D graph flow of the symmetric map on a coarse S^1 x S^2 grid."""
    m_man = product_s1_s2()
    n_man = WarpedSurface(builtin_warp(warp_name))
    shape = (4, 4, 4)
    coords = [np.arange(n) * ax.length / n + (0.5 * ax.length / n if ax.reflect else 0.0)
              for n, ax in zip(shape, m_man.axes)]
    mesh = np.meshgrid(*coords, indexing="ij")
    f0 = np.stack([mesh[0], np.full(shape, z0)], axis=-1)
    field = GraphMapField(m_man, n_man, shape, f0)
    params = FlowParams(t_end=t_end)
    st = FlowState(field=field, min_p=field.min_p())
    ts, zs = [0.0], [z0]
    while st.t < t_end - 1e-12 and st.status == "Running":
        st = step(st, params)
        ts.append(st.t)
        zs.append(float(st.field.f[0, 0, 0, 1]))
    return np.array(ts), np.array(zs)


# ---------------------------------------------------------------------------


def test_criterion_1_algebraic_identities():
    report = run_identities(samples=10_000, seed=0)
    ok = report["max_error"] <= 1e-10 and report["elapsed_seconds"] < 10.0
    _verdict(1, "algebraic identity suite", ok,
             f"max error {report['max_error']:.3e} over {report['samples']} samples "
             f"in {report['elapsed_seconds']:.2f}s")


def test_criterion_2_hopf_singular_values():
    s3 = s3_hopf_chart()
    s2 = round_sphere(2)
    df = np.array([[2.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    n = 13
    eta = (np.arange(n) + 0.5) * (math.pi / 2) / n
    xi = np.arange(n) * 2 * math.pi / n
    worst, count = 0.0, 0
    for e in eta:
        for x1 in xi:
            for x2 in xi[: n // 2]:
                x = np.array([e, x1, x2])
                g_m_inv = s3.inverse_metric(x, s3.metric_many(x))
                lam, mu, _, _ = singular_value_invariants(g_m_inv, s2.metric_many(hopf_map(x)), df)
                worst = max(worst, abs(lam - 2.0), abs(mu - 2.0))
                count += 1
    ok = count >= 1000 and worst <= 1e-10
    _verdict(2, "Hopf singular values", ok,
             f"max |sv - 2| = {worst:.3e} over {count} points")


def test_criterion_3_nonparametric_consistency():
    # The discrete identity (0,V) = H + dF(X) is exact by construction, so the
    # convergence content is the normal projection against the continuum
    # velocity of the profile, on a fixed colatitude window.
    def v_exact(th):
        h = AMPLITUDE * np.sin(th)
        d1 = AMPLITUDE * np.cos(th)
        d2 = -AMPLITUDE * np.sin(th)
        return d2 / (1 + d1**2) + (np.sin(th) * np.cos(th) * d1
                                   - np.sin(h) * np.cos(h)) / (np.sin(th)**2 + np.sin(h)**2)

    norms = []
    for J in (16, 32, 64, 128):
        eq = EquivariantFlow(J, _profile)
        fld = eq.expand_fields([eq.h])[0]
        m = fld.M.dim
        gm, gn = fld.g_m_field(), ref.g_n_field(fld)
        vals = []
        for i in range(J):
            if not (0.5 <= eq.theta[i] <= math.pi - 0.5):
                continue
            idx = (i, 0)
            pg = field_geometry(fld)[idx]
            vec = np.zeros(m + 2)
            vec[m] = v_exact(eq.theta[i])
            gp = np.zeros((m + 2, m + 2))
            gp[:m, :m] = gm[idx]
            gp[m:, m:] = gn[idx]
            vals.append(vec @ gp @ pg.frame.xi - pg.h_xi)
            vals.append(vec @ gp @ pg.frame.eta - pg.h_eta)
        norms.append(float(np.sqrt(np.mean(np.square(vals)))))
    ratios = [norms[k] / norms[k + 1] for k in range(3)]
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    _verdict(3, "nonparametric consistency", ok,
             "L2 refinement ratios " + ", ".join(f"{r:.2f}" for r in ratios)
             + " (target [3, 5])")


def test_criterion_4_p_evolution_residual():
    l2 = {}
    for J, cadence in ((32, 60), (64, 240)):
        eq = EquivariantFlow(J, _profile)
        run = eq.run(t_end=0.3, record_every=cadence)
        triples = [eq.stencil_fields(s) for s in run.states if s.stencil]
        rows = residual_p_evolution(triples)
        l2[J] = [r["l2"] for r in rows]
    n = min(len(l2[32]), len(l2[64]))
    ratios = [l2[32][k] / l2[64][k] for k in range(n)]

    m = 16
    xs = np.arange(m) * 2 * math.pi / m
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    stationary = GraphMapField(flat_torus(2), flat_torus(2, scale=0.5),
                               (m, m), np.stack([xg, yg], -1))
    stat = residual_p_evolution([(0.0, 1.0, 1.0, stationary, stationary, stationary)])[0]["linf"]
    ok = bool(ratios) and all(3.0 <= r <= 5.0 for r in ratios) and stat <= 1e-10
    _verdict(4, "evolution residual of p", ok,
             "L2 ratios " + ", ".join(f"{r:.2f}" for r in ratios)
             + f"; stationary residual {stat:.2e}")


def test_criterion_5_decay_bounds():
    eq, run, elapsed = _tsui_decay_run()
    rec0 = run.records[0]
    constants = compute_bound_constants(rec0.min_p, rec0.max_theta,
                                        min_ric=1.0, sup_sigma_n=1.0)
    assert constants.eps0 == 0.25 and constants.eps1 <= 0.0
    tol = 1e-4
    worst = {"p": math.inf, "df2": math.inf, "h2": math.inf}
    for rec in run.records:
        worst["p"] = min(worst["p"], rec.min_p - (constants.bound_p(rec.t) - tol))
        worst["df2"] = min(worst["df2"], (constants.bound_df2(rec.t) + tol) - rec.max_df2)
        worst["h2"] = min(worst["h2"], (constants.a0 + tol) - rec.max_h2)
    ok = all(v >= 0 for v in worst.values()) and eq.J <= 1000 and elapsed < 30.0
    _verdict(5, "decay bounds", ok,
             f"worst margins p {worst['p']:.2e}, |df|^2 {worst['df2']:.2e}, "
             f"|H|^2 {worst['h2']:.2e}; {eq.J} nodes, run {elapsed:.1f}s "
             f"({len(run.records)} checkpoints to t = {run.states[-1].t:.2f})")


def test_criterion_6_convergence_to_constant():
    eq, run = _tsui_convergence_run()
    last = run.records[-1]
    max_h = math.sqrt(last.max_h2)
    final = eq.expand_fields([run.states[-1].h])[0]
    rep = classify_limit(final, run.status, ricci_positive=True)
    diam = diameter_series([(r.t, r.diameter) for r in run.records], eps0=0.25)
    ok = (run.status == "Converged" and run.states[-1].t <= 20.0 and max_h < 1e-6
          and last.diameter < 1e-3 and rep["class"] == "Constant" and diam["pass"])
    _verdict(6, "convergence to constant", ok,
             f"t_final {run.states[-1].t:.2f}, max|H| {max_h:.2e}, diameter "
             f"{last.diameter:.2e}, class {rep['class']}, log-slope "
             f"{diam.get('log_slope', float('nan')):.3f} <= {diam.get('required_slope', float('nan')):.3f}")


def test_criterion_7_drift_vs_waist_dichotomy():
    funnel, frun = _funnel_ode()
    waist, wrun = _waist_ode()
    funnel_ok = (frun.z[-1] - frun.z[0] > 0
                 and bool(np.all(np.diff(frun.z) > 0))
                 and bool(np.all(np.diff(frun.volume) < 0)))
    z_final = float(wrun.z[-1])
    lam_final = float(waist.warp.w(z_final))
    h_final = abs(drift_velocity(waist.warp, z_final))
    rep = classify_from_observables(
        "Converged", h_final, h_final, np.full(8, lam_final), np.zeros(8),
        np.full(8, waist.gauss_curvature(z_final)), ricci_positive=False)
    waist_ok = abs(z_final) < 1e-4 and rep["class"] == "Rank1Geodesic"

    sups = {}
    for name, z0, ode in (("exp_neg", 0.0, frun), ("cosh", 0.5, wrun)):
        ts, zs = _grid_drift_trajectory(name, z0, t_end=5.0)
        sups[name] = float(np.abs(zs - np.interp(ts, ode.t, ode.z)).max())
    grid_ok = all(v <= 1e-3 for v in sups.values())
    ok = funnel_ok and waist_ok and grid_ok
    _verdict(7, "drift vs waist dichotomy", ok,
             f"funnel monotone {funnel_ok}; waist |z(30)| = {abs(z_final):.2e}, "
             f"class {rep['class']}; grid-vs-ODE sup norms "
             f"funnel {sups['exp_neg']:.2e}, waist {sups['cosh']:.2e}")


def test_criterion_8_barrier_containment():
    waist, wrun = _waist_ode()
    m_man = product_s1_s2()
    bar = waist_tube_barrier(1.0)
    idx = list(range(0, len(wrun.t), 2000)) + [len(wrun.t) - 1]
    checkpoints = [(float(wrun.t[i]), [np.array([0.0, 1.0, 2.0, 0.0, float(wrun.z[i])])])
                   for i in idx]
    contain = containment_monitor(checkpoints, bar)
    min_margin = min(r["margin"] for r in contain["rows"])

    rng = np.random.default_rng(0)
    pts = [np.array([0.1, 1.3, 0.7, sv, zv])
           for sv in (0.5, 2.0) for zv in np.linspace(-0.9, 0.9, 5)]
    cert = certify_convexity(bar, m_man, waist, pts)
    worst_gap = 0.0
    brute_ok = True
    for y in pts:
        d2 = reference_barrier.covariant_hessian(bar, m_man, waist, y)
        g = reference_barrier.product_metric(m_man, waist, y)
        oracle = m_convexity_at(bar, m_man, waist, y, 3)
        brute = reference_barrier.brute_force_m_trace(d2, g, 3, n_frames=1000, rng=rng)
        brute_ok = brute_ok and brute >= oracle - 1e-10
        # the generalized eigenvector frame attains the oracle value
        ev, vecs = scipy.linalg.eigh(d2, g)
        attained = float(np.einsum("ik,ij,jk->", vecs[:, :3], d2, vecs[:, :3]))
        worst_gap = max(worst_gap, abs(attained - oracle))
    ok = contain["pass"] and min_margin > 0 and cert.verdict and brute_ok \
        and worst_gap <= 1e-10
    _verdict(8, "barrier containment", ok,
             f"containment margin >= {min_margin:.3f}; convexity certificate "
             f"{cert.verdict} over {cert.n_samples} points; oracle vs 1000-frame "
             f"brute force gap {worst_gap:.2e}")


def test_criterion_9_volume_budget():
    _, run = _tsui_convergence_run()
    tsui = check_volume_budget(run.records[0].volume, run.records[-1].volume,
                               run.dissipation)
    _, wrun = _waist_ode()
    waist = check_volume_budget(float(wrun.volume[0]), float(wrun.volume[-1]),
                                wrun.dissipation)
    ok = tsui["pass"] and waist["pass"]
    _verdict(9, "volume budget", ok,
             f"relative errors: equivariant {tsui['relative_error']:.2e}, "
             f"waist {waist['relative_error']:.2e} (target <= 2e-2)")


def test_criterion_10_curvature_reports():
    details = []
    rep = curvature_conditions_report(round_sphere(3), round_sphere(2))
    sphere_ok = (rep.exact and rep.min_bric == 3.0
                 and rep.cond_a and rep.cond_b and rep.cond_c)
    details.append(f"S3/S2 min_BRic {rep.min_bric}")
    rep = curvature_conditions_report(product_s1_s2(), WarpedSurface(builtin_warp("cosh")))
    cyl_ok = (rep.exact and rep.min_bric == 1.0
              and rep.cond_a and rep.cond_b and rep.cond_c)
    details.append(f"S1xS2/cosh min_BRic {rep.min_bric}")
    rep = curvature_conditions_report(flat_torus(3), flat_torus(2))
    flat_ok = rep.min_bric == 0.0 and rep.sup_sigma_n == 0.0 \
        and rep.cond_a and rep.cond_b and rep.cond_c
    details.append("flat/flat equality holds" if flat_ok else "flat/flat FAILED")
    const_ok = True
    for m in (2, 3, 4, 5):
        source = round_sphere(m)
        at_threshold = curvature_conditions_report(
            source, round_sphere(2, curvature=float(2 * m - 3)))
        above = curvature_conditions_report(
            source, round_sphere(2, curvature=2 * m - 3 + 0.01))
        const_ok = const_ok and at_threshold.exact \
            and at_threshold.min_bric == float(2 * m - 3) \
            and at_threshold.cond_a and not above.cond_a
    details.append(f"(2m-3) threshold exact for m in 2..5: {const_ok}")
    ok = sphere_ok and cyl_ok and flat_ok and const_ok
    _verdict(10, "curvature condition reports", ok, "; ".join(details))
