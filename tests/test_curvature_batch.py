"""Batched curvature tensors against the per-point reference implementation.

``reference_geometry`` keeps the chart derivatives, curvature tensors,
sectional and bi-Ricci curvature and monitor curvature inputs as they were
computed one point at a time; the batched code must agree to 1e-12 (relative,
for entries above 1) at every point of a batch.  Its ``bi_ricci`` is also the
oracle of the closed forms behind the curvature report.
"""

import math

import numpy as np
import pytest

import reference_geometry as ref
from graphflow.errors import ConfigurationError
from graphflow.frames import generalized_eigvalsh
from graphflow.geometry import (Axis, ChartManifold, WarpedSurface, builtin_warp,
                                curvature_conditions_report, curvature_package, flat_torus,
                                gauss_curvature_at, product_s1_s2, round_sphere, s3_hopf_chart,
                                sectional)
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
    pairs = np.array([ref._orthonormalize(ct.g[idx], raw[idx]) for idx in np.ndindex(4, 8)])
    pairs = pairs.reshape(raw.shape)
    sig = sectional(manifold, pts, pairs[..., 0, :], pairs[..., 1, :], ct)
    numeric = ChartManifold("numeric", manifold.axes, manifold._metric_at)
    gam_numeric = numeric.christoffels_many(pts)
    _close(gam_numeric, ref.LoopCurvatureChart.of(numeric).christoffels_many(pts))
    for idx in np.ndindex(4, 8):
        old = ref.curvature_package(loop, pts[idx])
        for key in TENSOR_FIELDS:
            _close(getattr(ct, key)[idx], getattr(old, key))
        _close(sig[idx], ref.sectional(loop, pts[idx], *pairs[idx], tensors=old))
    if m == 2:  # the general branch of the Gauss curvature, closed forms aside
        plain = _unflagged(manifold)
        _close(gauss_curvature_at(plain, pts),
               ref.gauss_curvature_at(ref.LoopCurvatureChart.of(plain), pts))


def _warped_t3(a=0.6):
    """T^3 with the metric dx^2 + e^{a sin x} (dy^2 + dz^2): its scalar curvature
    varies with x, so no chart point stands for the others."""
    axes = [Axis(0.0, 2 * math.pi, periodic=True) for _ in range(3)]

    def metric(x):
        g = np.zeros(x.shape + (3,), dtype=x.dtype)
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = g[..., 2, 2] = np.exp(a * np.sin(x[..., 0]))
        return g

    def christoffels(x):
        # with u = a sin x: Gamma^x_yy = Gamma^x_zz = -u' e^u / 2, Gamma^y_xy = Gamma^z_xz = u' / 2
        du = a * np.cos(x[..., 0])
        gam = np.zeros(x.shape + (3, 3), dtype=x.dtype)
        gam[..., 0, 1, 1] = gam[..., 0, 2, 2] = -0.5 * du * np.exp(a * np.sin(x[..., 0]))
        gam[..., 1, 0, 1] = gam[..., 1, 1, 0] = gam[..., 2, 0, 2] = gam[..., 2, 2, 0] = 0.5 * du
        return gam

    return ChartManifold("warped_t3", axes, metric, christoffels)


BRIC_CHARTS = {
    "sphere2": lambda: round_sphere(2),
    "s1xs2": product_s1_s2,
    "s3_hopf": s3_hopf_chart,
    "warped_t3": _warped_t3,
}


@pytest.mark.parametrize("name", sorted(BRIC_CHARTS))
def test_bi_ricci_is_half_the_scalar_curvature(name, rng):
    # m = 2: BRic = K = scal/2.  m = 3: with u a unit normal to the orthonormal
    # v, w, BRic(v, w) = sec(v, w) + sec(v, u) + sec(w, u) = scal/2 in every
    # frame.  So min BRic = min scal/2 wherever m <= 3, and the report needs no
    # search over frames
    manifold = BRIC_CHARTS[name]()
    loop = ref.LoopCurvatureChart.of(manifold)
    numeric = ChartManifold("numeric", manifold.axes, manifold._metric_at)
    pts = _chart_points(manifold, rng, (200,))
    # the hand-written Christoffel symbols of the warped T^3 are those of its metric
    _close(manifold.christoffels_many(pts), numeric.christoffels_many(pts))
    scal = curvature_package(manifold, pts).scalar
    for x, s, raw in zip(pts, scal, rng.standard_normal((200, 2, manifold.dim))):
        old = ref.curvature_package(loop, x)
        pair = ref._orthonormalize(old.g, raw)
        assert abs(ref.bi_ricci(loop, x, *pair, tensors=old) - s / 2) <= TOL


CLOSED_FORM_CHARTS = {
    "sphere2": lambda: round_sphere(2),
    "sphere3": lambda: round_sphere(3),
    "sphere4_k0.5": lambda: round_sphere(4, curvature=0.5),
    "s3_hopf": s3_hopf_chart,
    "torus3": lambda: flat_torus(3),
    "s1xs2": product_s1_s2,
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CHARTS))
def test_closed_form_report_matches_the_curvature_tensors(name, rng):
    # constant curvature k: min Ric = (m-1)k, BRic = (2m-3)k in every frame,
    # scal = m(m-1)k; S^1 x S^2: Ricci eigenvalues (0, 1, 1), scal 2, BRic = scal/2 = 1
    manifold = CLOSED_FORM_CHARTS[name]()
    m, k = manifold.dim, manifold.constant_curvature
    if k is None:
        ric, scal, bric = [0.0, 1.0, 1.0], 2.0, 1.0
    else:
        ric, scal, bric = [(m - 1) * k] * m, m * (m - 1) * k, (2 * m - 3) * k
    rep = curvature_conditions_report(manifold, round_sphere(2))
    assert (rep.min_ric, rep.min_bric) == (ric[0], bric)
    x = _chart_points(manifold, rng, ())
    ct = curvature_package(manifold, x)
    _close(generalized_eigvalsh(ct.ricci, ct.g), ric)
    _close(ct.scalar, scal)
    loop = ref.LoopCurvatureChart.of(manifold)
    old = ref.curvature_package(loop, x)
    for raw in rng.standard_normal((20, 2, m)):
        _close(ref.bi_ricci(loop, x, *ref._orthonormalize(old.g, raw), tensors=old), bric)


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
    # the sheared chart declares no closed form, so the report refuses it
    with pytest.raises(ConfigurationError, match="no closed-form curvature conditions"):
        curvature_conditions_report(sheared, waist_cylinder)
