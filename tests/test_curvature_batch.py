"""Closed-form curvature against the per-point reference implementation.

``reference_geometry`` keeps the chart derivatives, curvature tensors (a
complex step of the Christoffel symbols), sectional and bi-Ricci curvature
and monitor curvature inputs, computed one point at a time.  The package's
closed forms (the blocks of a product chart, the Gauss curvature of a
surface, the curvature report) must agree with it to 1e-12 (relative, for
entries above 1) at every point of a batch.
"""

import math
import re

import numpy as np
import pytest

import reference_geometry as ref
from graphflow.errors import ConfigurationError
from graphflow.flow import FlowParams, FlowState, step
from graphflow.frames import generalized_eigvalsh, quad_form
from graphflow.geometry import (WARP_SAMPLES, WARP_Z_MAX, Axis, ChartManifold, Warp,
                                WarpedSurface, builtin_warp, curvature_conditions_report,
                                flat_torus, product, product_s1_s2, round_sphere,
                                s3_hopf_chart)
from graphflow.immersion import GraphMapField, field_geometry
from graphflow.verify import _curvature_inputs, residual_p_evolution

TOL = 1e-12


def _unflagged(manifold):
    """The same chart without its closed-form curvature."""
    return ChartManifold(f"{manifold.name}_unflagged", manifold.axes, manifold._metric_at,
                         manifold._christoffels_at)


def _numeric(manifold):
    """The same metric with the oracle's Christoffel symbols: complex-step
    derivatives of the metric, one point at a time."""
    return ref.LoopCurvatureChart("numeric", manifold.axes, manifold._metric_at, None)


MANIFOLDS = {
    "sphere3": lambda: round_sphere(3),
    "s1xs2": product_s1_s2,
    "s2xs2": lambda: product(round_sphere(2), round_sphere(2)),
    "s2_half_x_s3": lambda: product(round_sphere(2, curvature=0.5), round_sphere(3)),
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
    # the declared Ricci tensor and sigma(v ^ w) over a batch, at g-orthonormal
    # frames, against the oracle's curvature tensors at each point
    manifold = MANIFOLDS[name]()
    loop = ref.LoopCurvatureChart.of(manifold)
    m = manifold.dim
    pts = _chart_points(manifold, rng, (4, 8))
    raw = rng.standard_normal((4, 8, 2, m))
    g = manifold.metric_many(pts)
    pairs = np.array([ref._orthonormalize(g[idx], raw[idx]) for idx in np.ndindex(4, 8)])
    pairs = pairs.reshape(raw.shape)
    _close(manifold.christoffels_many(pts), _numeric(manifold).christoffels_many(pts))
    if name == "unflagged_sphere":  # it declares nothing, and is refused in one line
        for call in (lambda: manifold.curvature(g, pairs[..., 0, :], pairs[..., 1, :]),
                     lambda: manifold.gauss_curvature_at(pts)):
            with pytest.raises(ConfigurationError,
                               match=f"^{re.escape(manifold.name)}: no closed-form [^\n]*$"):
                call()
        return
    old = {idx: ref.curvature_package(loop, pts[idx]) for idx in np.ndindex(4, 8)}
    if manifold.blocks is not None:
        ricci, sig = manifold.curvature(g, pairs[..., 0, :], pairs[..., 1, :])
        for idx, ct in old.items():
            _close(ricci[idx], ct.ricci)
            _close(sig[idx], ref.sectional(loop, pts[idx], *pairs[idx], tensors=ct))
    if m == 2:
        coordinate_plane = [ref.sectional(loop, pts[idx], [1.0, 0.0], [0.0, 1.0], ct)
                            for idx, ct in old.items()]
        _close(np.broadcast_to(manifold.gauss_curvature_at(pts), (4, 8)).ravel(), coordinate_plane)


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
    pts = _chart_points(manifold, rng, (200,))
    # the hand-written Christoffel symbols of the warped T^3 are those of its metric
    _close(manifold.christoffels_many(pts), _numeric(manifold).christoffels_many(pts))
    for x, raw in zip(pts, rng.standard_normal((200, 2, manifold.dim))):
        old = ref.curvature_package(loop, x)
        pair = ref._orthonormalize(old.g, raw)
        assert abs(ref.bi_ricci(loop, x, *pair, tensors=old) - old.scalar / 2) <= TOL


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
    # each chart declares (min Ric, min BRic, scal), and the report reads them.
    # Every chart here is homogeneous, and BRic is the same in every frame (a
    # constant curvature, or m <= 3), so one point and any frame attain them
    manifold = CLOSED_FORM_CHARTS[name]()
    min_ric, min_bric, scal = manifold.ricci_extremes
    rep = curvature_conditions_report(manifold, round_sphere(2))
    assert (rep.min_ric, rep.min_bric) == (min_ric, min_bric)
    x = _chart_points(manifold, rng, ())
    loop = ref.LoopCurvatureChart.of(manifold)
    old = ref.curvature_package(loop, x)
    _close(generalized_eigvalsh(old.ricci, old.g)[0], min_ric)
    _close(old.scalar, scal)
    for raw in rng.standard_normal((20, 2, manifold.dim)):
        _close(ref.bi_ricci(loop, x, *ref._orthonormalize(old.g, raw), tensors=old), min_bric)


def test_product_joins_its_factors(rng):
    flat = product(flat_torus(1), flat_torus(2))
    pts = _chart_points(flat, rng, (5,))
    assert np.array_equal(flat.metric_many(pts), flat_torus(3).metric_many(pts))
    assert not flat.christoffels_many(pts).any()
    assert flat.constant_curvature == 0.0 and flat.ricci_extremes == (0.0, 0.0, 0.0)
    assert product_s1_s2().ricci_extremes == (0.0, 1.0, 2.0)  # derived from the blocks
    # each factor's polar seams keep their own azimuthal partner
    assert [ax.partner_axis for ax in product(round_sphere(2), round_sphere(2)).axes] \
        == [1, None, 3, None]


def test_bi_ricci_of_s2xs2_depends_on_the_frame(rng):
    # m = 4: BRic = 2 - sigma(v ^ w) of unit factors lies in [1, 2] and reaches
    # 1 on a factor plane, so it is not scal/2 = 2, and the report declares no
    # min BRic for it
    s2xs2 = product(round_sphere(2), round_sphere(2))
    loop = ref.LoopCurvatureChart.of(s2xs2)
    x = _chart_points(s2xs2, rng, ())
    old = ref.curvature_package(loop, x)
    factor_plane = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0 / math.sin(x[0]), 0.0, 0.0]])
    frames = np.array([factor_plane] + [ref._orthonormalize(old.g, raw)
                                        for raw in rng.standard_normal((200, 2, 4))])
    bric = np.array([ref.bi_ricci(loop, x, *pair, tensors=old) for pair in frames])
    assert np.all((1 - TOL <= bric) & (bric <= 2 + TOL))
    assert abs(bric[0] - 1.0) <= TOL
    _close(old.scalar, 4.0)
    assert np.abs(bric - old.scalar / 2).max() > 0.5
    # the same from the blocks
    g = np.broadcast_to(old.g, (len(frames), 4, 4))
    ricci, sig = s2xs2.curvature(g, frames[:, 0], frames[:, 1])
    v, w = frames[:, 0], frames[:, 1]
    _close(quad_form(v, ricci, v) + quad_form(w, ricci, w) - sig, bric)
    with pytest.raises(ConfigurationError) as info:
        curvature_conditions_report(s2xs2, round_sphere(2))
    assert str(info.value).startswith(f"{s2xs2.name}: no closed-form curvature conditions")
    assert "\n" not in str(info.value)


WARPS = {
    "cosh": lambda: builtin_warp("cosh"),
    "exp_neg": lambda: builtin_warp("exp_neg"),
    # K = cos z / (2 + cos z) varies with the height, with its sup 1/3 at z = 0
    "two_plus_cos": lambda: Warp("two_plus_cos", lambda z: 2.0 + np.cos(z),
                                 lambda z: -np.sin(z), lambda z: -np.cos(z)),
}


@pytest.mark.parametrize("name", sorted(WARPS))
def test_warped_surface_curvature_matches_the_curvature_tensors(name, rng):
    # sigma_N = -w''/w and its sup over WARP_SAMPLES heights, against the
    # sectional curvature of the coordinate plane from the curvature tensors
    surface = WarpedSurface(WARPS[name]())
    zs = np.linspace(-WARP_Z_MAX, WARP_Z_MAX, WARP_SAMPLES)
    pts = np.stack([rng.uniform(0.0, 2 * math.pi, zs.shape), zs], axis=-1)
    loop = ref.LoopCurvatureChart.of(surface)
    sig = np.array([ref.sectional(loop, x, [1.0, 0.0], [0.0, 1.0]) for x in pts])
    _close(surface.gauss_curvature_at(pts), sig)
    _close(surface.sup_gauss_curvature(), sig.max())


def test_curvature_inputs_match_pointwise_oracle():
    # S^1 x S^2 declares no constant curvature, so every node takes the block path
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
    # the same chart without its blocks: the monitors refuse it in one line
    unflagged = GraphMapField(_unflagged(m), n, shape, f)
    with pytest.raises(ConfigurationError) as info:
        _curvature_inputs(unflagged, mask, alpha)
    assert str(info.value) == (f"{m.name}_unflagged: no closed-form curvature (M must have a "
                               "constant curvature or be a product of such)")


def test_monitors_on_a_product_differentiate_nothing():
    # the curvature inputs come from the blocks: the Christoffel symbols of M are
    # never evaluated at a complex point, as a complex step would evaluate them
    m, n = product_s1_s2(), WarpedSurface(builtin_warp("cosh"))
    christoffels = m._christoffels_at

    def real_only(x):
        if np.iscomplexobj(x):
            raise AssertionError("Christoffel symbols of M differentiated")
        return christoffels(x)

    m._christoffels_at = real_only
    shape = (4, 12, 4)
    x = GraphMapField(m, n, shape, np.zeros(shape + (2,))).coords()
    f = np.stack([x[..., 0] + 0.02 * np.sin(x[..., 1]) * np.cos(x[..., 2]),
                  0.5 + 0.02 * np.cos(x[..., 0] + x[..., 2])], axis=-1)
    field = GraphMapField(m, n, shape, f)
    states = [FlowState(field=field, min_p=field.min_p())]
    for _ in range(2):
        states.append(step(states[-1], FlowParams(t_end=1.0)))
    s0, s1, s2 = states
    mask = s1.field.interior_mask()
    inputs = _curvature_inputs(s1.field, mask, field_geometry(s1.field)[mask].frame.alpha)
    assert all(np.isfinite(v).all() for v in inputs)
    (row,) = residual_p_evolution([(s1.t, s1.t - s0.t, s2.t - s1.t, s0.field, s1.field, s2.field)])
    assert row["nodes"] == int(mask.sum()) > 0 and math.isfinite(row["l2"])


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
    loop = ref.LoopCurvatureChart.of(sheared)
    tensors = [ref.curvature_package(loop, x) for x in _chart_points(sheared, rng, (16,))]
    eig = generalized_eigvalsh(np.array([ct.ricci for ct in tensors]),
                               np.array([ct.g for ct in tensors]))
    assert np.abs(eig - [0.0, 1.0, 1.0]).max() <= 1e-12
    # the sheared chart declares no closed form, so the report refuses it
    with pytest.raises(ConfigurationError, match="no closed-form curvature conditions"):
        curvature_conditions_report(sheared, waist_cylinder)
