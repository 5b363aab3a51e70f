"""Charts, metrics, Christoffel symbols, curvature tensors, and condition reports."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_geometry as ref
import graphflow.geometry
from graphflow.errors import ConfigurationError, DegenerateMetricError, DomainError, SolverAbort
from graphflow.geometry import (Axis, ChartManifold, Warp, WarpedSurface, builtin_warp,
                                curvature_conditions_report, flat_torus, hopf_map,
                                product_s1_s2, round_sphere, s3_hopf_chart)


# -- chart bookkeeping -------------------------------------------------------


def test_periodic_wrap(torus2):
    x = torus2.wrap([2 * math.pi + 0.3, -0.5])
    assert np.allclose(x, [0.3, 2 * math.pi - 0.5])


def test_non_periodic_out_of_range_raises(waist_cylinder):
    with pytest.raises(DomainError):
        waist_cylinder.wrap([0.0, 100.0])


@pytest.mark.parametrize("z, shown", [(-np.inf, "-inf"), (np.nan, "nan"), (7.25, "7.25")])
def test_out_of_range_message_prints_a_plain_float(waist_cylinder, z, shown):
    # the first offending coordinate as a Python float, not as numpy's repr
    # np.float64(...)
    with pytest.raises(DomainError) as err:
        waist_cylinder.wrap([[1.0, 0.5], [0.0, z]])
    assert str(err.value) == (
        f"warped_cylinder[cosh]: coordinate {shown} outside axis 1 range [-6.0, 6.0]")


def test_sphere_wrap_is_the_old_field_fold(sphere2, rng):
    # past either pole, exactly on a pole, several turns round phi: the chart's
    # fold is the field's old fold followed by the old periodic wrap
    n = 200
    theta = np.concatenate([rng.uniform(-math.pi, 0.0, n), rng.uniform(math.pi, 2 * math.pi, n),
                            rng.uniform(0.0, math.pi, n), np.repeat([0.0, math.pi], n // 2)])
    phi = rng.uniform(-6 * math.pi, 6 * math.pi, theta.size)
    x = np.stack([theta, phi], axis=-1)
    old = ref.periodic_wrap(sphere2, ref.wrap_target(sphere2, x))
    assert np.array_equal(sphere2.wrap(x), old)


def test_periodic_wrap_at_the_ends_of_the_period_is_the_old_remainder():
    # wrap takes the remainder only of the values outside (lo, hi); with lo = 0, as
    # on every periodic axis of the package, that gives the old remainder's bits
    # for every value, -0 and the ends of the period included
    charts = [flat_torus(2), flat_torus(3, scale=0.5), round_sphere(2), round_sphere(3),
              product_s1_s2(), s3_hopf_chart(), WarpedSurface(builtin_warp("cosh"))]
    assert all(ax.lo == 0.0 for chart in charts for ax in chart.axes if ax.periodic)
    torus = flat_torus(2, scale=0.5)
    length = torus.axes[0].length
    edges = [0.0, -0.0, 1e-300, -1e-300, length, -length, 3 * length, 7.5, -7.5, np.nan]
    v = np.array(edges + [np.nextafter(e, s) for e in edges for s in (-np.inf, np.inf)])
    x = np.stack([v, v[::-1]], axis=-1)
    got, want = torus.wrap(x), ref.periodic_wrap(torus, x)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_only_the_innermost_polar_angle_folds():
    # past theta_1's pole theta_2 is mirrored too, which a seam of theta_1 alone
    # cannot say: the outer polar angles are plain bounded axes
    s3 = round_sphere(3)
    assert [(ax.reflect, ax.periodic) for ax in s3.axes] == [(False, False), (True, False),
                                                            (False, True)]
    with pytest.raises(DomainError, match="axis 0"):
        s3.wrap([-0.1, 0.5, 0.0])
    assert np.array_equal(s3.wrap([0.3, -0.5, 0.25]), [0.3, 0.5, 0.25 + math.pi])


def _chart_with_metric(g):
    """A 2-torus chart whose metric is the fixed matrix g at every point."""
    g = np.array(g, dtype=float)
    return ChartManifold("fixed", [Axis(0.0, 2 * math.pi, periodic=True)] * 2,
                         metric_at=lambda x: np.broadcast_to(g, x.shape[:-1] + (2, 2)),
                         christoffels_at=lambda x: np.zeros(x.shape + (2, 2)))


@pytest.mark.parametrize("g", [[[1.0, 1e-3], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
                               [[1.0, np.nan], [np.nan, 1.0]]])
def test_metric_many_refuses_a_non_symmetric_or_nan_metric(g):
    with pytest.raises(DegenerateMetricError, match="metric not symmetric"):
        _chart_with_metric(g).metric_many(np.zeros((3, 2)))


def test_inverse_metric_refuses_a_metric_that_is_not_positive_definite():
    chart = _chart_with_metric([[1.0, 0.0], [0.0, -1.0]])
    x = np.zeros((3, 2))
    with pytest.raises(DegenerateMetricError, match="not positive definite"):
        chart.inverse_metric(x, chart.metric_many(x))


def test_inverse_metric_names_the_point_where_only_cholesky_fails():
    """A singular metric whose eigvalsh reads a roundoff-positive 3.5e-18."""
    chart = _chart_with_metric([[3.0, 0.3], [0.3, 0.03]])
    for x in (np.zeros((3, 2)), np.zeros(2)):
        with pytest.raises(DegenerateMetricError,
                           match=r"not positive definite at \[0\. 0\.\] \(eigs"):
            chart.inverse_metric(x, chart.metric_many(x))


@settings(max_examples=100, deadline=None)
@given(b=st.floats(-10.0, 10.0), d=st.floats(-1e-4, 1e-4))
def test_metric_symmetry_tolerance_is_that_of_allclose(b, d):
    g = np.array([[2.0 + abs(b), b], [b + d, 2.0 + abs(b)]])
    chart = _chart_with_metric(g)
    if np.allclose(g, g.T, atol=1e-12):
        assert np.array_equal(chart.metric_many(np.zeros(2)), g)
    else:
        with pytest.raises(DegenerateMetricError):
            chart.metric_many(np.zeros(2))


def test_flat_torus_scale_metric():
    t = flat_torus(2, scale=0.5)
    assert np.allclose(t.metric_many([0.1, 0.2]), 0.25 * np.eye(2))
    assert np.allclose(t.christoffels_many([0.1, 0.2]), 0.0)


# -- Christoffel symbols: analytic vs finite differences of the metric -------


def _numeric_christoffels(manifold, pt):
    """The oracle: Christoffel symbols from complex-step derivatives of the metric."""
    return ref.LoopCurvatureChart.of(manifold)._christoffels_from_metric(pt)


@pytest.mark.parametrize("man,pt", [
    ("sphere2", [1.1, 0.7]),
    ("sphere3", [1.0, 0.8, 2.0]),
    ("s1xs2", [0.3, 1.2, 2.5]),
    ("waist_cylinder", [0.4, 0.9]),
])
def test_christoffels_match_metric_derivatives(man, pt, request):
    manifold = request.getfixturevalue(man)
    analytic = manifold.christoffels_many(pt)
    fd = _numeric_christoffels(manifold, np.asarray(pt, dtype=float))
    assert np.abs(analytic - fd).max() < 1e-8


def _chart_points(manifold, rng, batch):
    lo = np.array([ax.lo + (0 if ax.periodic else 0.05 * ax.length) for ax in manifold.axes])
    hi = np.array([ax.hi - (0 if ax.periodic else 0.05 * ax.length) for ax in manifold.axes])
    return rng.uniform(lo, hi, size=batch + (manifold.dim,))


@pytest.mark.parametrize("man", ["sphere2", "sphere3", "s1xs2", "waist_cylinder", "torus3"])
def test_batched_chart_matches_pointwise(man, request, rng):
    manifold = request.getfixturevalue(man)
    m = manifold.dim
    pts = _chart_points(manifold, rng, (3, 4))
    g = manifold.metric_many(pts)
    gam = manifold.christoffels_many(pts)
    assert g.shape == (3, 4, m, m) and gam.shape == (3, 4, m, m, m)
    for idx in np.ndindex(3, 4):
        assert np.array_equal(g[idx], manifold.metric_many(pts[idx]))
        fd = _numeric_christoffels(manifold, pts[idx])
        assert np.abs(gam[idx] - fd).max() < 1e-8


# -- curvature ---------------------------------------------------------------


def _sigma(manifold, x, v, w):
    """The declared sigma(v ^ w) at one chart point, and the oracle's."""
    x, v, w = (np.asarray(a, dtype=float) for a in (x, v, w))
    _, sig = manifold.curvature(manifold.metric_many(x), v, w)
    return float(sig), ref.sectional(ref.LoopCurvatureChart.of(manifold), x, v, w)


def test_sphere_sectional_curvature(sphere2):
    for val in _sigma(sphere2, [1.2, 0.5], [1.0, 0.0], [0.0, 1.0]):
        assert abs(val - 1.0) < 1e-7


def test_scaled_sphere_sectional():
    s = round_sphere(2, curvature=4.0)
    for val in _sigma(s, [1.0, 0.3], [1.0, 0.2], [0.1, 1.0]):
        assert abs(val - 4.0) < 1e-6


def test_flat_torus_curvature_vanishes(torus3):
    x = np.array([0.1, 0.2, 0.3])
    ct = ref.curvature_package(ref.LoopCurvatureChart.of(torus3), x)
    assert np.abs(ct.riemann).max() < 1e-12
    ricci, _ = torus3.curvature(torus3.metric_many(x), np.eye(3)[0], np.eye(3)[1])
    for ric in (ricci, ct.ricci):
        assert np.abs(ric).max() < 1e-12


def test_sphere3_ricci(sphere3):
    x = np.array([1.3, 1.1, 0.4])
    ct = ref.curvature_package(ref.LoopCurvatureChart.of(sphere3), x)
    g = sphere3.metric_many(x)
    ricci, _ = sphere3.curvature(g, np.eye(3)[0], np.eye(3)[1])
    # Ric = (m - 1) sigma g on a space form
    for ric in (ricci, ct.ricci):
        assert np.abs(ric - 2.0 * g).max() < 1e-6


def test_bi_ricci_space_form(sphere3):
    x = np.array([1.2, 0.9, 0.5])
    g = sphere3.metric_many(x)
    v = np.array([1.0, 0.0, 0.0]) / math.sqrt(g[0, 0])
    w = np.array([0.0, 1.0, 0.0]) / math.sqrt(g[1, 1])
    val = ref.bi_ricci(ref.LoopCurvatureChart.of(sphere3), x, v, w)
    # BRic = (2m - 3) sigma = 3 on the unit 3-sphere
    assert abs(val - 3.0) < 1e-6


def test_warped_surface_gauss_curvature():
    surf = WarpedSurface(builtin_warp("cosh"))
    for z in (-1.0, 0.0, 0.7):
        assert abs(surf.gauss_curvature(z) + 1.0) < 1e-12
    # cross-check against the oracle's intrinsic curvature tensor
    x = np.array([0.2, 0.5])
    val = ref.sectional(ref.LoopCurvatureChart.of(surf), x, [1.0, 0.0], [0.0, 1.0])
    assert abs(val + 1.0) < 1e-6


def test_builtin_warp_unknown():
    with pytest.raises(ConfigurationError):
        builtin_warp("nope")


def test_warp_must_stay_positive():
    sin = Warp("sin", np.sin, np.cos, lambda z: -np.sin(z))
    with pytest.raises(ConfigurationError):
        WarpedSurface(sin)  # vanishes inside the z-range


def test_exp_neg_trajectory_raises_when_its_newton_steps_run_out(monkeypatch):
    # from z0 = 0, the start 2R = 1 at t = 0 takes 6 steps to meet the tolerance
    trajectory = builtin_warp("exp_neg").trajectory
    t = np.array([0.0, 5.0])
    monkeypatch.setattr(graphflow.geometry, "NEWTON_STEPS", 6)
    z = trajectory(0.0, t)
    assert np.abs(z + np.exp(2 * z) / 2 - (0.5 + t)).max() <= 4 * np.finfo(float).eps * 5.5
    monkeypatch.setattr(graphflow.geometry, "NEWTON_STEPS", 5)
    with pytest.raises(SolverAbort, match="no convergence in 5 Newton steps"):
        trajectory(0.0, t)


def test_gauss_curvature_at_dispatch(sphere2, waist_cylinder):
    assert sphere2.gauss_curvature_at([1.0, 0.2]) == 1.0
    assert abs(waist_cylinder.gauss_curvature_at([0.1, 0.3]) + 1.0) < 1e-12
    with pytest.raises(ConfigurationError):
        round_sphere(3).gauss_curvature_at([1.0, 1.0, 1.0])
    # a surface that declares no curvature is refused in one line, not differentiated
    unflagged = ChartManifold("sphere_unflagged", sphere2.axes, sphere2._metric_at,
                              sphere2._christoffels_at)
    with pytest.raises(ConfigurationError) as info:
        unflagged.gauss_curvature_at([1.0, 0.2])
    assert str(info.value) == ("sphere_unflagged: no closed-form sup sigma_N "
                               "(N must have a constant curvature or be a warped surface)")


def test_sup_sigma(waist_cylinder, torus2):
    assert abs(waist_cylinder.sup_gauss_curvature() + 1.0) < 1e-12
    assert torus2.sup_gauss_curvature() == 0.0
    # a sphere without its constant-curvature flag has no closed form
    s = round_sphere(2, curvature=2.0)
    unflagged = ChartManifold("sphere_unflagged", s.axes, s._metric_at, s._christoffels_at)
    with pytest.raises(ConfigurationError, match="sphere_unflagged: no closed-form sup sigma_N"):
        unflagged.sup_gauss_curvature()


# -- the Hopf map ------------------------------------------------------------


def test_hopf_map_range():
    y = hopf_map([0.7, 1.0, 2.5])
    assert y[0] == pytest.approx(1.4)
    assert 0.0 <= y[1] < 2 * math.pi


def test_s3_chart_is_round():
    s3 = s3_hopf_chart()
    for val in _sigma(s3, [0.6, 1.0, 2.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]):
        assert abs(val - 1.0) < 1e-6


# -- curvature condition reports --------------------------------------------


def test_report_sphere_pair(sphere3, sphere2):
    rep = curvature_conditions_report(sphere3, sphere2)
    assert rep.exact
    assert rep.min_ric == 2.0
    assert rep.min_bric == 3.0
    assert rep.sup_sigma_n == 1.0
    assert rep.cond_a and rep.cond_b and rep.cond_c
    assert rep.trace_ineq_2b and rep.trace_ineq_3


def test_report_product_pair(s1xs2, waist_cylinder):
    rep = curvature_conditions_report(s1xs2, waist_cylinder)
    assert rep.exact
    assert rep.min_ric == 0.0
    assert rep.min_bric == 1.0
    assert rep.sup_sigma_n == -1.0
    assert rep.cond_a and rep.cond_b and rep.cond_c


def test_report_refuses_a_chart_without_a_closed_form(s1xs2, waist_cylinder):
    # S^1 x S^2 without its product flag, and the cosh cylinder (K = -1) as the
    # source of a map into the round sphere: neither declares a closed form
    unflagged = ChartManifold("s1_x_s2_unflagged", s1xs2.axes, s1xs2._metric_at,
                              s1xs2._christoffels_at)
    for m_manifold, n_manifold in ((unflagged, waist_cylinder), (waist_cylinder, round_sphere(2))):
        with pytest.raises(ConfigurationError) as info:
            curvature_conditions_report(m_manifold, n_manifold)
        message = str(info.value)
        assert "\n" not in message
        assert message.startswith(f"{m_manifold.name}: no closed-form curvature conditions")


def test_report_flat_pair(torus3, torus2):
    rep = curvature_conditions_report(torus3, torus2)
    assert rep.exact
    assert rep.min_bric == 0.0 and rep.sup_sigma_n == 0.0
    assert rep.cond_a and rep.cond_b and rep.cond_c  # equality cases


def test_report_condition_a_failure(sphere2):
    # target too positively curved for the flat source
    rep = curvature_conditions_report(flat_torus(3), round_sphere(2, curvature=2.0))
    assert not rep.cond_a and not rep.cond_c
    assert rep.cond_b


def test_report_as_dict_roundtrip(sphere3, sphere2):
    d = asdict(curvature_conditions_report(sphere3, sphere2))
    for key in ("min_ric", "min_bric", "sup_sigma_n", "cond_a", "cond_b", "cond_c",
                "exact", "seed", "trace_ineq_2b", "trace_ineq_3"):
        assert key in d
