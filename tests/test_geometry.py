"""Charts, metrics, Christoffel symbols, curvature tensors, and condition reports."""

import math

import numpy as np
import pytest

from graphflow.errors import ConfigurationError, DomainError
from graphflow.geometry import (ChartManifold, WarpedSurface, bi_ricci, builtin_warp,
                                curvature_package, curvature_conditions_report, flat_torus,
                                gauss_curvature_at, hopf_map, round_sphere, s3_hopf_chart,
                                sectional, sphere_distance, sup_sigma_of, warped_curvature)


# -- chart bookkeeping -------------------------------------------------------


def test_periodic_wrap(torus2):
    x = torus2.wrap([2 * math.pi + 0.3, -0.5])
    assert np.allclose(x, [0.3, 2 * math.pi - 0.5])


def test_non_periodic_out_of_range_raises(waist_cylinder):
    with pytest.raises(DomainError):
        waist_cylinder.wrap([0.0, 100.0])
    assert not waist_cylinder.contains([0.0, 100.0])
    assert waist_cylinder.contains([0.0, 1.0])


def test_flat_torus_scale_metric():
    t = flat_torus(2, scale=0.5)
    assert np.allclose(t.metric_at([0.1, 0.2]), 0.25 * np.eye(2))
    assert np.allclose(t.christoffels_at([0.1, 0.2]), 0.0)


# -- Christoffel symbols: analytic vs finite differences of the metric -------


@pytest.mark.parametrize("man,pt", [
    ("sphere2", [1.1, 0.7]),
    ("sphere3", [1.0, 0.8, 2.0]),
    ("s1xs2", [0.3, 1.2, 2.5]),
    ("waist_cylinder", [0.4, 0.9]),
])
def test_christoffels_match_metric_derivatives(man, pt, request):
    manifold = request.getfixturevalue(man)
    analytic = manifold.christoffels_at(pt)
    fd = manifold._christoffels_from_metric(np.asarray(pt, dtype=float))
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
        assert np.array_equal(g[idx], manifold.metric_at(pts[idx]))
        fd = manifold._christoffels_from_metric(pts[idx])
        assert np.abs(gam[idx] - fd).max() < 1e-8


def test_numeric_christoffels_fallback(s1xs2, rng):
    numeric = ChartManifold("numeric_s1xs2", s1xs2.axes, s1xs2._metric_at)
    pts = _chart_points(s1xs2, rng, (5,))
    assert np.abs(numeric.christoffels_many(pts) - s1xs2.christoffels_many(pts)).max() < 1e-8


# -- curvature ---------------------------------------------------------------


def test_sphere_sectional_curvature(sphere2):
    x = np.array([1.2, 0.5])
    val = sectional(sphere2, x, [1.0, 0.0], [0.0, 1.0])
    assert abs(val - 1.0) < 1e-7


def test_scaled_sphere_sectional():
    s = round_sphere(2, curvature=4.0)
    val = sectional(s, np.array([1.0, 0.3]), [1.0, 0.2], [0.1, 1.0])
    assert abs(val - 4.0) < 1e-6


def test_flat_torus_curvature_vanishes(torus3):
    ct = curvature_package(torus3, [0.1, 0.2, 0.3])
    assert np.abs(ct.riemann).max() < 1e-12
    assert np.abs(ct.ricci).max() < 1e-12


def test_sphere3_ricci(sphere3):
    x = np.array([1.3, 1.1, 0.4])
    ct = curvature_package(sphere3, x)
    g = sphere3.metric_at(x)
    # Ric = (m - 1) sigma g on a space form
    assert np.abs(ct.ricci - 2.0 * g).max() < 1e-6


def test_bi_ricci_space_form(sphere3):
    x = np.array([1.2, 0.9, 0.5])
    g = sphere3.metric_at(x)
    v = np.array([1.0, 0.0, 0.0]) / math.sqrt(g[0, 0])
    w = np.array([0.0, 1.0, 0.0]) / math.sqrt(g[1, 1])
    val = bi_ricci(sphere3, x, v, w)
    # BRic = (2m - 3) sigma = 3 on the unit 3-sphere
    assert abs(val - 3.0) < 1e-6


def test_warped_surface_gauss_curvature():
    surf = WarpedSurface(builtin_warp("cosh"))
    for z in (-1.0, 0.0, 0.7):
        assert abs(surf.gauss_curvature(z) + 1.0) < 1e-12
        assert abs(warped_curvature(surf, z) + 1.0) < 1e-12
    # cross-check against the intrinsic curvature tensor
    x = np.array([0.2, 0.5])
    val = sectional(surf, x, [1.0, 0.0], [0.0, 1.0])
    assert abs(val + 1.0) < 1e-6


def test_warped_curvature_domain_check(waist_cylinder):
    with pytest.raises(DomainError):
        warped_curvature(waist_cylinder, 50.0)


def test_builtin_warp_unknown():
    with pytest.raises(ConfigurationError):
        builtin_warp("nope")
    with pytest.raises(ConfigurationError):
        builtin_warp("poly")  # coefficients required


def test_warp_must_stay_positive():
    with pytest.raises(ConfigurationError):
        WarpedSurface(builtin_warp("sin"))  # vanishes inside the z-range


def test_gauss_curvature_at_dispatch(sphere2, waist_cylinder):
    assert gauss_curvature_at(sphere2, [1.0, 0.2]) == 1.0
    assert abs(gauss_curvature_at(waist_cylinder, [0.1, 0.3]) + 1.0) < 1e-12
    with pytest.raises(ConfigurationError):
        gauss_curvature_at(round_sphere(3), [1.0, 1.0, 1.0])


def test_sup_sigma(waist_cylinder, torus2):
    assert abs(sup_sigma_of(waist_cylinder) + 1.0) < 1e-12
    assert sup_sigma_of(torus2) == 0.0


# -- distances and the Hopf map ---------------------------------------------


def test_sphere_distance():
    assert abs(sphere_distance(1.0, [0.5, 0.0], [0.5 + 0.3, 0.0]) - 0.3) < 1e-12
    assert abs(sphere_distance(4.0, [0.5, 0.0], [0.8, 0.0]) - 0.15) < 1e-12


def test_hopf_map_range():
    y = hopf_map([0.7, 1.0, 2.5])
    assert y[0] == pytest.approx(1.4)
    assert 0.0 <= y[1] < 2 * math.pi


def test_s3_chart_is_round():
    s3 = s3_hopf_chart()
    x = np.array([0.6, 1.0, 2.0])
    assert abs(sectional(s3, x, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) - 1.0) < 1e-6


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


def test_report_rejects_bad_sampling(sphere3, sphere2):
    with pytest.raises(ConfigurationError):
        curvature_conditions_report(sphere3, sphere2, point_samples=0)


def test_report_as_dict_roundtrip(sphere3, sphere2):
    d = curvature_conditions_report(sphere3, sphere2).as_dict()
    for key in ("min_ric", "min_bric", "sup_sigma_n", "cond_a", "cond_b", "cond_c",
                "exact", "seed", "trace_ineq_2b", "trace_ineq_3"):
        assert key in d
