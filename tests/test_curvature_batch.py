"""Batched curvature tensors against the per-point reference implementation.

``reference_geometry`` keeps the chart derivatives, curvature tensors, BRic
sampling, sampled curvature report and monitor curvature inputs as they were
computed one point at a time; the batched code must agree to 1e-12 (relative,
for entries above 1) at every point of a batch.
"""

import math

import numpy as np
import pytest

import reference_geometry as ref
from graphflow.frames import generalized_eigvalsh
from graphflow.geometry import (Axis, ChartManifold, WarpedSurface, _orthonormalize, bi_ricci,
                                builtin_warp, curvature_package, curvature_conditions_report,
                                gauss_curvature_at, min_bric_sampled, product_s1_s2,
                                round_sphere, s3_hopf_chart, sectional)
from graphflow.immersion import GraphMapField, field_geometry
from graphflow.verify import _curvature_inputs

TOL = 1e-12
TENSOR_FIELDS = ("g", "gamma", "riemann", "ricci", "scalar")


def _unflagged(manifold):
    """The same chart without its closed-form curvature flags."""
    return ChartManifold(f"{manifold.name}_unflagged", manifold.axes, manifold._metric_at,
                         manifold._christoffels_at)


MANIFOLDS = {
    "sphere3": lambda: round_sphere(3),
    "s1xs2": product_s1_s2,
    "waist_cylinder": lambda: WarpedSurface(builtin_warp("cosh")),
    "s3_hopf": s3_hopf_chart,
    "unflagged_sphere": lambda: _unflagged(round_sphere(2, curvature=2.0)),
}


def _chart_points(manifold, rng, batch):
    lo = np.array([ax.lo + (0 if ax.periodic else 0.05 * ax.length) for ax in manifold.axes])
    hi = np.array([ax.hi - (0 if ax.periodic else 0.05 * ax.length) for ax in manifold.axes])
    return rng.uniform(lo, hi, size=batch + (manifold.dim,))


def _close(new, old):
    """Elementwise within TOL, relative to the oracle's magnitude where it exceeds 1
    (the warped-cylinder tensors grow like cosh(z)^2, about 1e4)."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.all(np.abs(new - old) <= TOL * np.maximum(1.0, np.abs(old)))


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_batched_curvature_matches_pointwise_oracle(name, rng):
    manifold = MANIFOLDS[name]()
    loop = ref.LoopCurvatureChart.of(manifold)
    m = manifold.dim
    pts = _chart_points(manifold, rng, (4, 8))
    raw = rng.standard_normal((4, 8, 2, m))
    ct = curvature_package(manifold, pts)
    pairs, ok = _orthonormalize(ct.g, raw)
    assert ok.all()
    sig = sectional(manifold, pts, pairs[..., 0, :], pairs[..., 1, :], ct)
    bric = bi_ricci(manifold, pts, pairs[..., 0, :], pairs[..., 1, :], ct)
    numeric = ChartManifold("numeric", manifold.axes, manifold._metric_at)
    gam_numeric = numeric.christoffels_many(pts)
    _close(gam_numeric, ref.LoopCurvatureChart.of(numeric).christoffels_many(pts))
    for idx in np.ndindex(4, 8):
        old = ref.curvature_package(loop, pts[idx])
        for key in TENSOR_FIELDS:
            _close(getattr(ct, key)[idx], getattr(old, key))
        old_pair = ref._orthonormalize(old.g, raw[idx])
        _close(pairs[idx], old_pair)
        _close(sig[idx], ref.sectional(loop, pts[idx], *old_pair, tensors=old))
        _close(bric[idx], ref.bi_ricci(loop, pts[idx], *old_pair, tensors=old))
    if m == 2:  # the general branch of the Gauss curvature, closed forms aside
        plain = _unflagged(manifold)
        _close(gauss_curvature_at(plain, pts),
               ref.gauss_curvature_at(ref.LoopCurvatureChart.of(plain), pts))
    # the same normal stream per point, so the same descent
    flat = pts.reshape(-1, m)[:6]
    _close(min_bric_sampled(manifold, flat, np.random.default_rng(7)),
           ref.min_bric_sampled(loop, flat, 64, np.random.default_rng(7)))


def test_sampled_report_matches_pointwise_oracle(s1xs2, waist_cylinder):
    unflagged = _unflagged(s1xs2)
    new = curvature_conditions_report(unflagged, waist_cylinder, seed=3)
    old = ref.curvature_conditions_report(ref.LoopCurvatureChart.of(unflagged), waist_cylinder,
                                          seed=3)
    assert not new.exact and not old.exact
    assert abs(new.min_ric - old.min_ric) <= TOL and abs(new.min_bric - old.min_bric) <= TOL
    for key in ("cond_a", "cond_b", "cond_c", "trace_ineq_2b", "trace_ineq_3", "point_count",
                "frame_count", "sup_sigma_n"):
        assert getattr(new, key) == getattr(old, key), key


def test_curvature_inputs_match_pointwise_oracle():
    # S^1 x S^2 declares no constant curvature, so every node takes the tensor path
    m, n = product_s1_s2(), WarpedSurface(builtin_warp("cosh"))
    shape = (4, 16, 8)
    x = GraphMapField(m, n, shape, np.zeros(shape + (2,))).coords()
    f = np.stack([x[..., 0] + 0.3 * np.sin(x[..., 2]),
                  0.5 + 0.2 * np.cos(x[..., 1]) * np.sin(x[..., 0])], axis=-1)
    field = GraphMapField(m, n, shape, f)
    mask = field.interior_mask()
    assert mask.sum() >= 256
    alpha = field_geometry(field)[mask].frame.alpha
    new = _curvature_inputs(field, mask, alpha)
    old = ref.curvature_inputs(field, mask, alpha)
    for a, b in zip(new, old):
        _close(a, b)
    empty = np.zeros(shape, dtype=bool)  # no node above the |H| floor
    assert [np.size(v) for v in _curvature_inputs(field, empty, alpha[:0])] == [0, 0, 0, 0, 0]


def _sheared_s1xs2(c=0.7):
    """S^1 x S^2 in the chart (s, theta + c s, phi): a non-diagonal metric.

    The metric and the Christoffel symbols are the product ones, transformed
    as tensors by the constant Jacobian of the shear.
    """
    base = product_s1_s2()
    jac = np.array([[1.0, 0.0, 0.0], [-c, 1.0, 0.0], [0.0, 0.0, 1.0]])  # d(base)/d(sheared)
    jinv = np.linalg.inv(jac)

    def to_base(x):
        y = x.copy()
        y[..., 1] = x[..., 1] - c * x[..., 0]
        return y

    def metric(x):
        return jac.T @ base._metric_at(to_base(x)) @ jac

    def christoffels(x):
        return np.einsum("ka,...abc,bi,cj->...kij", jinv, base._christoffels_at(to_base(x)),
                         jac, jac)

    # s in [0, 1] keeps theta = theta' - c s inside (0, pi) on the theta' range
    axes = [Axis(0.0, 1.0), Axis(1.0, 2.5), Axis(0.0, 2 * math.pi, periodic=True)]
    return ChartManifold("s1_x_s2_sheared", axes, metric, christoffels)


def test_ricci_minimum_of_a_non_diagonal_metric(waist_cylinder, rng):
    # the Ricci eigenvalues of S^1 x S^2 are (0, 1, 1) in any chart; g^{-1} Ric
    # is not symmetric where g is not diagonal, so they come from the whitened form
    sheared = _sheared_s1xs2()
    pts = _chart_points(sheared, rng, (16,))
    ct = curvature_package(sheared, pts)
    eig = generalized_eigvalsh(ct.ricci, ct.g)
    assert np.abs(eig - [0.0, 1.0, 1.0]).max() <= 1e-12
    rep = curvature_conditions_report(sheared, waist_cylinder)
    assert not rep.exact
    assert abs(rep.min_ric) <= 1e-12 and abs(rep.min_bric - 1.0) <= 1e-12
    assert rep.cond_a and rep.cond_b and rep.cond_c
    assert rep.trace_ineq_2b and rep.trace_ineq_3


def test_degenerate_pair_is_flagged_alone(sphere3):
    g = sphere3.metric_many(np.full((3, 3), [1.0, 1.2, 0.3]))
    e1, e2 = np.eye(3)[:2]
    pairs = np.array([[e1, e2], [e1, 2 * e1], [0 * e1, e2]])
    out, ok = _orthonormalize(g, pairs)
    assert ok.tolist() == [True, False, False]
    assert np.array_equal(out[1:], pairs[1:])  # handed back as given
    _close(out[0], ref._orthonormalize(g[0], pairs[0]))
